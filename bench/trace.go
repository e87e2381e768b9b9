package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A traced run records one event at each boundary between the harness
// and the stack and turns them into spans when the run ends:
//
//	publish    origin node   Publish() entered → the first datagram carrying
//	                         the record has been written (child: that wire.tx)
//	wire.tx    sending node  WriteTo entered → WriteTo returned
//	wire.rx    reading node  the matching WriteTo entered → ReadFrom returned
//	relay.hop  interior node first wire.rx of the record → its first wire.tx
//	                         on the way out (child: that wire.tx)
//	deliver    replica       first wire.rx of the record → OnUpdate entered
//	                         (gossip: → the 2 ms poller saw it)
//
// Spans of one record share (key, seq); parent is the span that caused
// this one. Self time — a span minus the part its children cover — is
// the time the record spent waiting inside that node: publish self time
// is the sender's queueing (hot queue, batch-then-throttle), relay.hop
// self time the relay's forwarding lag, deliver the receiver's
// callback-dispatch lag.
type evKind uint8

const (
	evPublish evKind = iota
	evTx
	evRx
	evDeliver
)

type event struct {
	kind   evKind
	node   int32
	peer   int32 // evRx: the node that wrote the datagram, -1 unknown
	t0, t1 int64 // ns since the tracer's epoch
	key    string
	seq    uint64
}

// maxEvents bounds a trace's memory; what does not fit is counted in
// dropped, never silently lost.
const maxEvents = 600_000

type tracer struct {
	epoch   time.Time
	sampleN uint32 // record 1 key in sampleN (floods), 1 = every key

	mu      sync.Mutex
	nodes   []string
	byName  map[string]int32
	byAddr  map[string]int32
	events  []event
	dropped int64
	started int64     // when the stack started; publishes made earlier queue from here
	window  int64     // when the measured window began; earlier records are warm-up
	pubNs   []float64 // duration of every Publish call, sampled or not
}

func newTracer(sampleN int) *tracer {
	if sampleN < 1 {
		sampleN = 1
	}
	return &tracer{
		epoch: time.Now(), sampleN: uint32(sampleN),
		byName: make(map[string]int32), byAddr: make(map[string]int32),
	}
}

// The methods the workloads call on every publish and delivery are
// no-ops on a nil tracer, so an untraced run pays one nil check.

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) node(name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byName[name]; ok {
		return i
	}
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, name)
	t.byName[name] = i
	return i
}

func (t *tracer) bind(addr string, node int32) {
	t.mu.Lock()
	t.byAddr[addr] = node
	t.mu.Unlock()
}

func (t *tracer) peer(addr string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byAddr[addr]; ok {
		return i
	}
	return -1
}

func (t *tracer) markStarted() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.started = t.now()
	t.mu.Unlock()
}

// markWindow separates the warm-up from the measured window: the
// waiting-time rows count only records that entered a node after it.
func (t *tracer) markWindow() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.window = t.now()
	t.mu.Unlock()
}

func (t *tracer) keep(key string) bool {
	if t.sampleN == 1 {
		return true
	}
	h := uint32(2166136261) // FNV-1a, inline: no allocation per record
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h%t.sampleN == 0
}

func (t *tracer) record(kind evKind, node, peer int32, t0, t1 int64, key string, seq uint64) {
	if !t.keep(key) {
		return
	}
	t.mu.Lock()
	if len(t.events) < maxEvents {
		t.events = append(t.events, event{kind, node, peer, t0, t1, key, seq})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// published closes the timing of one Publish call the harness made on
// node at t0 (from now()).
func (t *tracer) published(node int32, key string, seq uint64, t0 int64) {
	if t == nil {
		return
	}
	t1 := t.now()
	t.mu.Lock()
	t.pubNs = append(t.pubNs, float64(t1-t0))
	t.mu.Unlock()
	t.record(evPublish, node, -1, t0, t1, key, seq)
}

func (t *tracer) deliver(node int32, key string, seq uint64) {
	if t == nil {
		return
	}
	now := t.now()
	t.record(evDeliver, node, -1, now, now, key, seq)
}

// span is one JSONL line of the trace file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	Node   string `json:"node"`
	Key    string `json:"key"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceSummary is what the spans say about each layer's waiting.
type traceSummary struct {
	spans         []span
	dropped       int64
	sendWaitMs    []float64 // publish self time
	hopLagMs      []float64 // relay.hop self time
	dispatchLagUs []float64 // deliver duration
	pubNs         []float64
}

// sortKey orders a key's events causally: a WriteTo is entered before
// the peer can read what it wrote, though it may return after.
func (e *event) sortKey() int64 {
	if e.kind == evRx || e.kind == evDeliver {
		return e.t1
	}
	return e.t0
}

type nodeSeq struct {
	node int32
	seq  uint64
}

// build turns the recorded events into spans, one key at a time.
func (t *tracer) build() *traceSummary {
	t.mu.Lock()
	events := t.events
	t.events = nil
	sum := &traceSummary{dropped: t.dropped, pubNs: t.pubNs}
	started, window := t.started, t.window
	t.mu.Unlock()

	sort.SliceStable(events, func(a, b int) bool {
		if events[a].key != events[b].key {
			return events[a].key < events[b].key
		}
		return events[a].sortKey() < events[b].sortKey()
	})
	add := func(name string, e *event, parent int, start, end int64) int {
		sum.spans = append(sum.spans, span{
			ID: len(sum.spans) + 1, Parent: parent, Name: name, Node: t.nodes[e.node],
			Key: e.key, Seq: e.seq, Start: start, End: end,
		})
		return len(sum.spans)
	}
	for lo := 0; lo < len(events); {
		hi := lo
		for hi < len(events) && events[hi].key == events[lo].key {
			hi++
		}
		// Per-key state, in event order.
		openPub := map[int32][]int{}  // node → publish spans not yet on the wire
		cause := map[nodeSeq]int{}    // (node, seq) → the publish or relay.hop span its sends belong to
		lastTx := map[nodeSeq]int{}   // (node, seq) → its latest wire.tx span
		firstRx := map[nodeSeq]int{}  // (node, seq) → its first wire.rx span
		hopOpen := map[nodeSeq]bool{} // first wire.rx seen, nothing sent on yet
		delivered := map[nodeSeq]bool{}
		for i := lo; i < hi; i++ {
			e := &events[i]
			ns := nodeSeq{e.node, e.seq}
			switch e.kind {
			case evPublish:
				start := e.t0
				if start < started {
					start = started // queued before the sender ran: the wait starts with it
				}
				id := add("publish", e, 0, start, max(start, e.t1))
				openPub[e.node] = append(openPub[e.node], id)
			case evTx:
				parent := cause[ns]
				closes := false
				if pubs := openPub[e.node]; len(pubs) > 0 {
					// The first datagram at or past a publish's seq puts
					// it on the wire; an overwritten publish rides the
					// later version that replaced it.
					kept := pubs[:0]
					for _, id := range pubs {
						p := &sum.spans[id-1]
						if p.Seq <= e.seq {
							p.End = e.t1
							if self := p.End - p.Start - (e.t1 - e.t0); self >= 0 && p.Start >= window {
								sum.sendWaitMs = append(sum.sendWaitMs, float64(self)/1e6)
							}
							parent, closes = id, true
						} else {
							kept = append(kept, id)
						}
					}
					openPub[e.node] = kept
				}
				if !closes && hopOpen[ns] {
					arrived := sum.spans[firstRx[ns]-1].End
					parent = add("relay.hop", e, firstRx[ns], arrived, e.t1)
					hopOpen[ns] = false
					if arrived >= window {
						sum.hopLagMs = append(sum.hopLagMs, float64(e.t0-arrived)/1e6)
					}
				}
				if parent != 0 {
					cause[ns] = parent
				}
				lastTx[ns] = add("wire.tx", e, parent, e.t0, e.t1)
			case evRx:
				parent, start := 0, e.t1
				if id, ok := lastTx[nodeSeq{e.peer, e.seq}]; ok && e.peer >= 0 {
					parent, start = id, sum.spans[id-1].Start
				}
				id := add("wire.rx", e, parent, start, e.t1)
				if _, seen := firstRx[ns]; !seen {
					firstRx[ns] = id
					hopOpen[ns] = true
				}
			case evDeliver:
				if id, ok := firstRx[ns]; ok && !delivered[ns] {
					delivered[ns] = true
					arrived := sum.spans[id-1].End
					add("deliver", e, id, arrived, e.t1)
					if arrived >= window {
						sum.dispatchLagUs = append(sum.dispatchLagUs, float64(e.t1-arrived)/1e3)
					}
				}
			}
		}
		lo = hi
	}
	return sum
}

// write stores the spans as JSONL under dir and returns the path.
func (s *traceSummary) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range s.spans {
		if err := enc.Encode(&s.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: close %s: %w", path, err)
	}
	return path, nil
}

// layerMetrics folds the span self times into the per-layer rows.
func (s *traceSummary) layerMetrics(m map[string]float64) {
	sort.Float64s(s.sendWaitMs)
	sort.Float64s(s.hopLagMs)
	sort.Float64s(s.dispatchLagUs)
	sort.Float64s(s.pubNs)
	m["sstp.send_wait_p50_ms"] = quantile(s.sendWaitMs, 0.5)
	m["sstp.send_wait_p95_ms"] = quantile(s.sendWaitMs, tailRank(len(s.sendWaitMs), 0.95, minBeyond))
	m["sstp.dispatch_lag_p50_us"] = quantile(s.dispatchLagUs, 0.5)
	m["sstp.dispatch_lag_p99_us"] = quantile(s.dispatchLagUs, tailRank(len(s.dispatchLagUs), 0.99, minBeyond))
	m["relay.hop_lag_p50_ms"] = quantile(s.hopLagMs, 0.5)
	m["relay.hop_lag_p95_ms"] = quantile(s.hopLagMs, tailRank(len(s.hopLagMs), 0.95, minBeyond))
	m["sstp.publish_ns_per_op"] = mean(s.pubNs)
	m["sstp.publish_p99_us"] = quantile(s.pubNs, tailRank(len(s.pubNs), 0.99, minBeyond)) / 1e3
	m["bench.spans"] = float64(len(s.spans))
}
