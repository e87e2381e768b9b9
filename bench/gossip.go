package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"softstate/internal/gossip"
	"softstate/internal/transport"
)

// gossip_churn: a 12-node anti-entropy mesh with 2 % loss, configured
// as `ssload -gossip-peers` configures it, loaded at node 0. After the
// warm-up nodes 0..10 each own the keys congruent to their index and
// take 40 updates/s between them (one writer per key: concurrent
// writers of one key are a conflict the protocol does not claim to
// resolve). Node 11 only replicates; it is closed and restarted empty
// three times during the window.
const (
	gossipNodes      = 12
	gossipWriters    = gossipNodes - 1
	gossipVictim     = gossipNodes - 1
	gossipLoss       = 0.02
	gossipInterval   = 25 * time.Millisecond
	gossipRate       = 1e6
	gossipValueSize  = 64
	gossipUpdateRate = 40 // per second
	gossipCycles     = 3
	gossipPoll       = 2 * time.Millisecond
)

// mesh is one built gossip topology: the initial table published at
// node 0, nothing started.
type mesh struct {
	e     *env
	tr    *tracer
	w     *wire
	nw    *transport.MemNetwork
	peers []net.Addr
	ids   []int32 // tracer node ids
	tk    *tracker
	keys  []string
	seq   uint64
	val   []byte

	// nodes[gossipVictim] is swapped by the churn goroutine while
	// totals reads it; the writers' slots never change.
	mu    sync.Mutex
	nodes []*gossip.Node
	dead  gossip.Stats // counters of closed incarnations of the victim
}

func gossipAddr(i int) transport.MemAddr { return transport.MemAddr(fmt.Sprintf("gossip/%d", i)) }

func (m *mesh) newNode(i int) (*gossip.Node, error) {
	name := fmt.Sprintf("gossip%d", i)
	return gossip.New(gossip.Config{
		Session: 44, NodeID: uint64(i + 1),
		Conn:  m.w.wrap(m.nw.Endpoint(gossipAddr(i)), name),
		Peers: m.peers, Interval: gossipInterval, RateBps: gossipRate,
		SuspectAfter: 2, EvictAfter: 4,
		Seed: m.e.seed + int64(100+i),
	})
}

func (m *mesh) victim() *gossip.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[gossipVictim]
}

func (m *mesh) close() {
	for i := 0; i < gossipWriters; i++ {
		m.nodes[i].Close()
	}
	if v := m.victim(); v != nil {
		v.Close()
	}
}

func (m *mesh) publish(owner int, key string, due int64) error {
	m.seq++
	m.val = encodeValue(m.val, gossipValueSize, m.seq, due)
	t0 := m.tr.now()
	err := m.nodes[owner].Publish(key, m.val, 0)
	m.tr.published(m.ids[owner], key, m.seq, t0)
	return err
}

// lacking filters todo down to the keys n does not yet hold at (or
// past) the generator's current version.
func (m *mesh) lacking(n *gossip.Node, todo []string) []string {
	kept := todo[:0]
	for _, k := range todo {
		want, _, _ := m.tk.want(k)
		if v, _, ok := n.Get(k); ok {
			if s, _, ok := decodeValue(v); ok && s >= want {
				continue
			}
		}
		kept = append(kept, k)
	}
	return kept
}

func addStats(dst *gossip.Stats, s gossip.Stats) {
	dst.BytesSent += s.BytesSent
	dst.Agreements += s.Agreements
	dst.Divergences += s.Divergences
	dst.RecordsServed += s.RecordsServed
	dst.RecordsApplied += s.RecordsApplied
	dst.RateDropped += s.RateDropped
}

// totals sums the counters of every incarnation of every node.
func (m *mesh) totals() gossip.Stats {
	m.mu.Lock()
	st, v := m.dead, m.nodes[gossipVictim]
	m.mu.Unlock()
	for i := 0; i < gossipWriters; i++ {
		addStats(&st, m.nodes[i].Stats())
	}
	if v != nil {
		addStats(&st, v.Stats())
	}
	return st
}

func buildMesh(e *env, tr *tracer, records int) (*mesh, error) {
	m := &mesh{e: e, tr: tr, w: newWire(tr), nw: transport.NewMemNetwork(e.seed), tk: newTracker(gossipWriters)}
	m.nw.SetDefaultLoss(gossipLoss)
	for i := 0; i < gossipNodes; i++ {
		m.peers = append(m.peers, gossipAddr(i))
		m.ids = append(m.ids, tr.node(fmt.Sprintf("gossip%d", i)))
	}
	for i := 0; i < gossipNodes; i++ {
		n, err := m.newNode(i)
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, n)
	}
	// The initial table goes in at node 0, as ssload loads a mesh.
	for i := 0; i < records; i++ {
		key := narrowKey(i)
		m.keys = append(m.keys, key)
		if err := m.publish(0, key, time.Now().UnixNano()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// churn kills and restarts the victim gossipCycles times over the
// window that began at start: down at 1/16, 6/16 and 11/16 of it, back
// up empty a quarter-window later. A restart is complete when the node
// has held every key at the version that was current when it looked.
func (m *mesh) churn(start time.Time, window time.Duration) (rejoinMs, evictMs []float64, err error) {
	for c := 0; c < gossipCycles; c++ {
		time.Sleep(time.Until(start.Add(window * time.Duration(1+5*c) / 16)))
		old := m.victim()
		old.Close()
		m.nw.Endpoint(gossipAddr(gossipVictim)).Close()
		m.mu.Lock()
		addStats(&m.dead, old.Stats())
		m.nodes[gossipVictim] = nil
		m.mu.Unlock()
		killed := time.Now()
		evictions := func() int {
			n := 0
			for i := 0; i < gossipWriters; i++ {
				n += m.nodes[i].Stats().Evictions
			}
			return n
		}
		base := evictions()
		restartAt := killed.Add(window / 4)
		// Evicted once half the survivors have given up on it.
		if waitFor(time.Until(restartAt), gossipPoll, func() bool { return evictions()-base >= gossipWriters/2 }) {
			evictMs = append(evictMs, float64(time.Since(killed).Microseconds())/1e3)
		}
		time.Sleep(time.Until(restartAt))
		fresh, err := m.newNode(gossipVictim)
		if err != nil {
			return rejoinMs, evictMs, err
		}
		todo := append([]string(nil), m.keys...)
		fresh.Start()
		back := time.Now()
		m.mu.Lock()
		m.nodes[gossipVictim] = fresh
		m.mu.Unlock()
		if !waitFor(30*time.Second, gossipPoll, func() bool {
			todo = m.lacking(fresh, todo)
			return len(todo) == 0
		}) {
			return rejoinMs, evictMs, fmt.Errorf("gossip_churn: restarted node still lacks %d keys after 30s", len(todo))
		}
		rejoinMs = append(rejoinMs, float64(time.Since(back).Microseconds())/1e3)
	}
	return rejoinMs, evictMs, nil
}

func runGossipChurn(e *env) (*outcome, error) {
	out := newOutcome()
	records := e.pick(256, 44)
	m, setupS, err := timedSetup(e, func(tr *tracer) (*mesh, error) { return buildMesh(e, tr, records) })
	if err != nil {
		return nil, err
	}
	defer m.close()
	out.e2e["setup_s"], out.dur["setup"] = setupS, setupS
	tk := m.tk

	// Warm up until every node holds the whole table; from then on
	// each key has one writer.
	joined := time.Now()
	m.tr.markStarted()
	for _, n := range m.nodes {
		n.Start()
	}
	now := time.Now().UnixNano()
	others := make([][]int, gossipWriters) // every writer but the owner
	for owner := range others {
		for r := 0; r < gossipWriters; r++ {
			if r != owner {
				others[owner] = append(others[owner], r)
			}
		}
	}
	for i, k := range m.keys {
		tk.seed(k, uint64(i+1), now, others[i%gossipWriters])
	}
	if !waitFor(time.Minute, gossipPoll, func() bool {
		for _, n := range m.nodes {
			if len(m.lacking(n, append([]string(nil), m.keys...))) > 0 {
				return false
			}
		}
		return true
	}) {
		return nil, fmt.Errorf("gossip_churn: mesh did not converge in the warm-up")
	}
	out.dur["warmup"] = time.Since(joined).Seconds()
	out.layer["bench.warmup_ms"] = out.dur["warmup"] * 1e3

	window := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	var rejoinMs, evictMs []float64
	var churnErr error
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		rejoinMs, evictMs, churnErr = m.churn(start, window)
	}()

	// The poller stands in for the OnUpdate a gossip node does not
	// have: every 2 ms it looks at each outstanding (update, node) pair.
	stopPolling := poll(gossipPoll, func() {
		tk.outstanding(func(r int, key string, _ bool) {
			if v, _, ok := m.nodes[r].Get(key); ok {
				if s, _, ok := decodeValue(v); ok {
					tk.observe(r, key, s, time.Now().UnixNano())
					m.tr.deliver(m.ids[r], key, s)
				}
			}
		})
	})
	defer stopPolling()

	rnd := e.rng(3)
	g0 := m.totals()
	bytes0 := m.w.txBytes.Load()
	m.tr.markWindow()
	mt := startMeter()
	pc := &pacer{start: start, interval: time.Second / gossipUpdateRate}
	events := int(e.seconds * gossipUpdateRate)
	var pubErr error
	for ev := 0; ev < events && pubErr == nil; ev++ {
		due := pc.wait(ev).UnixNano()
		i := rnd.Intn(records)
		tk.publish(m.keys[i], m.seq+1, due, others[i%gossipWriters])
		pubErr = m.publish(i%gossipWriters, m.keys[i], due)
	}
	wall, cpu, mallocs := mt.stop()
	tk.endWindow(time.Now().UnixNano())
	bytes := m.w.txBytes.Load() - bytes0
	<-churnDone
	g1 := m.totals()
	out.dur["measure"] = wall.Seconds()

	graceStart := time.Now()
	waitFor(visDeadline, 5*time.Millisecond, func() bool { return tk.waiting(time.Now().UnixNano()) == 0 })
	stopPolling()
	tk.finish()
	out.dur["grace"] = time.Since(graceStart).Seconds()
	if pubErr != nil {
		return nil, fmt.Errorf("gossip_churn: publish: %w", pubErr)
	}
	if churnErr != nil {
		return nil, churnErr
	}

	openLoopMetrics(out, tk, wall, cpu, mallocs, bytes, records)
	out.attempted += gossipCycles // each restart is an operation too
	delivered := float64(tk.attempted - tk.failed)
	out.layer["gossip.rejoin_ms"] = median(rejoinMs)
	out.layer["gossip.evict_ms"] = median(evictMs)
	out.layer["gossip.bytes_per_delivery"] = ratio(float64(g1.BytesSent-g0.BytesSent), delivered)
	agree, diverge := float64(g1.Agreements-g0.Agreements), float64(g1.Divergences-g0.Divergences)
	out.layer["gossip.divergence_ratio"] = ratio(diverge, agree+diverge)
	out.layer["gossip.served_per_applied"] = ratio(float64(g1.RecordsServed-g0.RecordsServed), float64(g1.RecordsApplied-g0.RecordsApplied))
	out.layer["gossip.rate_dropped"] = float64(g1.RateDropped - g0.RateDropped)
	m.w.layer(out.layer)
	out.layer["bench.gen_late_p99_us"] = pc.lateP99()

	// Output check: every node, the restarted one included, holds every
	// key at the generator's latest version.
	for i, n := range m.nodes {
		waitFor(10*time.Second, 5*time.Millisecond, func() bool {
			return len(m.lacking(n, append([]string(nil), m.keys...))) == 0
		})
		have := make(map[string][]byte, len(m.keys))
		for _, k := range m.keys {
			if v, _, ok := n.Get(k); ok {
				have[k] = v
			}
		}
		checkReplica(e, out, tk, fmt.Sprintf("node %d", i), have)
	}
	return out, nil
}
