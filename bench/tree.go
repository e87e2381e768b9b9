package main

import (
	"fmt"
	"math"
	"time"

	"softstate/internal/relay"
	"softstate/internal/sstp"
	"softstate/internal/staleness"
	"softstate/internal/transport"
)

// lossy_tree: publisher → 2 relays → 2 leaves each, every link
// 1 Mbit/s with 5 % loss and 5 ms jitter, records refreshed under a
// 10 s TTL. After a warm-up to convergence an open-loop stream of
// updates (80 %), births (10 %) and deletes (10 %) runs for the window.
const (
	treeRelays    = 2
	treeLeaves    = 4
	treeRate      = 1e6
	treeLoss      = 0.05
	treeJitter    = 5 * time.Millisecond
	treeTTL       = 10 * time.Second
	treeValueSize = 64
	treeEventRate = 100 // per second
)

// senderTotals and receiverTotals add up the Stats() of every sender
// and receiver in a topology so a window's counters are one subtraction.
type senderTotals struct{ data, datagrams float64 }

func (t *senderTotals) add(s sstp.SenderStats) {
	t.data += float64(s.DataSent)
	t.datagrams += float64(s.DatagramsSent)
}

type receiverTotals struct{ fresh, dup, nacks, supp, queries float64 }

func (t *receiverTotals) add(s sstp.ReceiverStats) {
	t.fresh += float64(s.DataReceived)
	t.dup += float64(s.Duplicates)
	t.nacks += float64(s.NACKsSent)
	t.supp += float64(s.NACKsSuppressed)
	t.queries += float64(s.QueriesSent)
}

// sstpLayer fills the sstp.* counter rows from a window's totals.
func sstpLayer(m map[string]float64, s0, s1 senderTotals, r0, r1 receiverTotals) {
	fresh := r1.fresh - r0.fresh
	nacks, supp := r1.nacks-r0.nacks, r1.supp-r0.supp
	m["sstp.records_per_datagram"] = ratio(s1.data-s0.data, s1.datagrams-s0.datagrams)
	m["sstp.fresh_ratio"] = ratio(fresh, fresh+r1.dup-r0.dup)
	m["sstp.nacks_per_record"] = ratio(nacks, fresh)
	m["sstp.queries_per_record"] = ratio(r1.queries-r0.queries, fresh)
	m["sstp.nack_suppressed_ratio"] = ratio(supp, supp+nacks)
}

// tree is one built lossy_tree topology with its initial table
// published and nothing started.
type tree struct {
	tr     *tracer
	w      *wire
	pub    *sstp.Sender
	pnode  int32
	relays []*relay.Relay
	leaves []*sstp.Receiver
	tk     *tracker
	est    *staleness.Estimator // shared by every leaf, as ssload does

	seq  uint64 // the generator's version counter: one per event
	val  []byte
	live []string // keys the generator has published and not deleted
}

func (t *tree) close() {
	for _, l := range t.leaves {
		l.Close()
	}
	for _, r := range t.relays {
		r.Close()
	}
	t.pub.Close()
}

// publish sends the next version of key, due at due.
func (t *tree) publish(key string, due int64) error {
	t.seq++
	t.val = encodeValue(t.val, treeValueSize, t.seq, due)
	t0 := t.tr.now()
	err := t.pub.Publish(key, t.val, 0)
	t.tr.published(t.pnode, key, t.seq, t0)
	return err
}

func (t *tree) converged() bool {
	want := t.pub.RootDigest()
	for _, l := range t.leaves {
		if l.RootDigest() != want {
			return false
		}
	}
	return true
}

func (t *tree) totals() (s senderTotals, r receiverTotals, rl relay.Stats) {
	s.add(t.pub.Stats())
	for _, x := range t.relays {
		s.add(x.DownstreamSender(0).Stats())
		r.add(x.Upstream().Stats())
		st := x.Stats()
		rl.Forwarded += st.Forwarded
		rl.QueriesServed += st.QueriesServed
		rl.NACKsHeard += st.NACKsHeard
	}
	for _, l := range t.leaves {
		r.add(l.Stats())
	}
	return s, r, rl
}

func buildTree(e *env, tr *tracer, records int) (*tree, error) {
	t := &tree{tr: tr, w: newWire(tr), tk: newTracker(treeLeaves), est: staleness.NewEstimator(0), pnode: tr.node("pub")}
	nw := transport.NewMemNetwork(e.seed)
	nw.SetDefaultLoss(treeLoss)
	nw.SetDefaultJitter(treeJitter)
	endpoint := func(addr, node, group string) transport.Conn {
		nw.Join(transport.MemAddr(group), transport.MemAddr(addr))
		t.w.join(group, addr)
		return t.w.wrap(nw.Endpoint(transport.MemAddr(addr)), node)
	}
	var err error
	if t.pub, err = sstp.NewSender(sstp.SenderConfig{
		Session: 43, SenderID: 1, Conn: endpoint("pub", "pub", "grp/root"), Dest: transport.MemAddr("grp/root"),
		TotalRate: treeRate, SummaryInterval: summaryInterval, TTL: treeTTL,
		Stripes: e.stripes, CoalesceRecords: coalesceRecords, BatchDatagrams: batchDatagrams,
		Seed: e.seed,
	}); err != nil {
		return nil, err
	}
	for k := 0; k < treeRelays; k++ {
		node, group := fmt.Sprintf("relay%d", k), fmt.Sprintf("grp/%d", k)
		r, err := relay.New(relay.Config{
			Session: 43, RelayID: uint64(100 * (k + 1)),
			UpstreamConn:     endpoint(fmt.Sprintf("up/%d", k), node, "grp/root"),
			UpstreamFeedback: transport.MemAddr("grp/root"),
			Downstreams: []relay.Downstream{{
				Conn: endpoint(fmt.Sprintf("dn/%d", k), node, group), Dest: transport.MemAddr(group), Rate: treeRate,
			}},
			TTL: treeTTL, SummaryInterval: summaryInterval, NACKWindow: nackWindow,
			Stripes: e.stripes, CoalesceRecords: coalesceRecords, BatchDatagrams: batchDatagrams,
			Seed: e.seed + int64(1000+k),
		})
		if err != nil {
			return nil, err
		}
		t.relays = append(t.relays, r)
	}
	for j := 0; j < treeLeaves; j++ {
		group := fmt.Sprintf("grp/%d", j/(treeLeaves/treeRelays))
		name := fmt.Sprintf("leaf%d", j)
		node := tr.node(name)
		leaf, err := sstp.NewReceiver(sstp.ReceiverConfig{
			Session: 43, ReceiverID: uint64(10_000 + j),
			Conn: endpoint(fmt.Sprintf("leaf/%d", j), name, group), FeedbackDest: transport.MemAddr(group),
			NACKWindow: nackWindow, Stripes: e.stripes, Consistency: t.est,
			Seed: e.seed + int64(2000+j),
			OnUpdate: func(key string, value []byte, _ uint64, _ float64) {
				if seq, _, ok := decodeValue(value); ok {
					t.tk.observe(j, key, seq, time.Now().UnixNano())
					tr.deliver(node, key, seq)
				}
			},
			OnExpire: func(key string) { t.tk.observeGone(j, key, time.Now().UnixNano()) },
		})
		if err != nil {
			return nil, err
		}
		t.leaves = append(t.leaves, leaf)
	}
	t.live = make([]string, 0, records*2)
	for i := 0; i < records; i++ {
		key := narrowKey(i)
		if err := t.publish(key, time.Now().UnixNano()); err != nil {
			return nil, err
		}
		t.live = append(t.live, key)
	}
	return t, nil
}

func runLossyTree(e *env) (*outcome, error) {
	out := newOutcome()
	records := e.pick(1024, 48)
	t, setupS, err := timedSetup(e, func(tr *tracer) (*tree, error) { return buildTree(e, tr, records) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	out.e2e["setup_s"], out.dur["setup"] = setupS, setupS

	// Warm up until every leaf is digest-equal with the publisher.
	joined := time.Now()
	t.tr.markStarted()
	t.pub.Start()
	for _, r := range t.relays {
		r.Start()
	}
	for _, l := range t.leaves {
		l.Start()
	}
	if !waitFor(time.Minute, 2*time.Millisecond, t.converged) {
		return nil, fmt.Errorf("lossy_tree: leaves did not converge in the warm-up")
	}
	out.dur["warmup"] = time.Since(joined).Seconds()
	out.layer["bench.warmup_ms"] = out.dur["warmup"] * 1e3

	// The measured window: an open-loop event stream.
	tk := t.tk
	var allLeaves []int
	for j := range t.leaves {
		allLeaves = append(allLeaves, j)
	}
	now := time.Now().UnixNano()
	for i, key := range t.live {
		tk.seed(key, uint64(i+1), now, allLeaves)
	}
	// A leaf that never held a key gets no OnExpire when the key's
	// tombstone arrives (a birth deleted again within a few hundred
	// milliseconds), so pending deletes are also polled for absence.
	stopPolling := poll(10*time.Millisecond, func() {
		tk.outstanding(func(r int, key string, wantGone bool) {
			if wantGone {
				if _, held := t.leaves[r].Get(key); !held {
					tk.observeGone(r, key, time.Now().UnixNano())
				}
			}
		})
	})
	defer stopPolling()

	nextKey := records
	rnd := e.rng(1)
	s0, r0, rl0 := t.totals()
	p0 := t.pub.Stats()
	bytes0 := t.w.txBytes.Load()
	t.tr.markWindow()
	m := startMeter()
	pc := &pacer{start: time.Now(), interval: time.Second / treeEventRate}
	events := int(e.seconds * treeEventRate)
	for i := 0; i < events; i++ {
		due := pc.wait(i).UnixNano()
		var err error
		switch x := rnd.Float64(); {
		case x < 0.1:
			key := narrowKey(nextKey)
			nextKey++
			t.live = append(t.live, key)
			tk.publish(key, t.seq+1, due, allLeaves)
			err = t.publish(key, due)
		case x < 0.2 && len(t.live) > records/2:
			at := rnd.Intn(len(t.live))
			key := t.live[at]
			t.live[at] = t.live[len(t.live)-1]
			t.live = t.live[:len(t.live)-1]
			t.seq++
			tk.remove(key, t.seq, due, treeTTL, allLeaves)
			t.pub.Delete(key)
		default:
			key := t.live[rnd.Intn(len(t.live))]
			tk.publish(key, t.seq+1, due, allLeaves)
			err = t.publish(key, due)
		}
		if err != nil {
			return nil, fmt.Errorf("lossy_tree: publish: %w", err)
		}
	}
	wall, cpu, mallocs := m.stop()
	tk.endWindow(time.Now().UnixNano())
	bytes := t.w.txBytes.Load() - bytes0
	s1, r1, rl1 := t.totals()
	p1 := t.pub.Stats()
	snap := t.est.Snapshot()
	out.dur["measure"] = wall.Seconds()

	// Grace: let what is in flight land. Updates get their 2 s; a
	// delete whose tombstones were all lost needs the TTL to expire.
	graceStart := time.Now()
	waitFor(treeTTL+visDeadline, 5*time.Millisecond, func() bool { return tk.waiting(time.Now().UnixNano()) == 0 })
	stopPolling()
	tk.finish()
	out.dur["grace"] = time.Since(graceStart).Seconds()

	openLoopMetrics(out, tk, wall, cpu, mallocs, bytes, len(t.live))
	sstpLayer(out.layer, s0, s1, r0, r1)
	relayRepair := float64(rl1.QueriesServed - rl0.QueriesServed + rl1.NACKsHeard - rl0.NACKsHeard)
	rootRepair := float64(p1.QueriesServed - p0.QueriesServed + p1.NACKsReceived - p0.NACKsReceived)
	out.layer["relay.local_repair_ratio"] = ratio(relayRepair, relayRepair+rootRepair)
	out.layer["relay.forwarded"] = float64(rl1.Forwarded - rl0.Forwarded)
	t.w.layer(out.layer)
	out.layer["staleness.consistency_error"] = math.Abs(snap.Consistency - (1 - out.e2e["stale_fraction"]))
	out.layer["staleness.tvis_p50_error"] = ratio(math.Abs(snap.TVis.P50*1e3-out.e2e["t_vis_p50_ms"]), out.e2e["t_vis_p50_ms"])
	out.layer["bench.gen_late_p99_us"] = pc.lateP99()

	// Output check: once the tree has settled, every leaf must hold
	// exactly the generator's live keys at their latest version.
	waitFor(treeTTL+5*time.Second, 5*time.Millisecond, t.converged)
	for j, l := range t.leaves {
		checkReplica(e, out, tk, fmt.Sprintf("leaf %d", j), l.Snapshot())
	}
	return out, nil
}

// openLoopMetrics fills the end-to-end rows the three open-loop
// workloads share. A record here is one fresh delivery: an (event,
// replica) pair that became visible. liveKeys is the heap denominator.
func openLoopMetrics(out *outcome, tk *tracker, wall, cpu time.Duration, mallocs uint64, wireBytes int64, liveKeys int) {
	out.attempted, out.failed = tk.attempted, tk.failed
	delivered := float64(tk.attempted - tk.failed)
	out.e2e["records_per_s"] = delivered / wall.Seconds()
	out.e2e["cpu_us_per_record"] = ratio(float64(cpu.Microseconds()), delivered)
	out.e2e["allocs_per_record"] = ratio(float64(mallocs), delivered)
	out.e2e["wire_bytes_per_record"] = ratio(float64(wireBytes), delivered)
	out.e2e["heap_bytes_per_record"] = heapInuse() / float64(liveKeys)
	p50, p95, p99, rank := quantiles(tk.tvisMs)
	out.e2e["t_vis_p50_ms"], out.e2e["t_vis_p95_ms"], out.e2e["t_vis_p99_ms"] = p50, p95, p99
	out.samples, out.rank99 = len(tk.tvisMs), rank
	out.e2e["stale_fraction"] = tk.staleFraction()
}

// checkReplica compares one replica's contents with the truth map:
// every live key present at its latest version, every deleted key gone.
func checkReplica(e *env, out *outcome, tk *tracker, who string, have map[string][]byte) {
	for _, key := range tk.keys() {
		seq, deleted, _ := tk.want(key)
		if e.corruptTruth {
			seq++
		}
		got, ok := have[key]
		switch {
		case deleted && ok:
			out.errorf("%s still holds deleted key %s", who, key)
		case !deleted && !ok:
			out.errorf("%s lacks live key %s", who, key)
		case !deleted:
			if s, _, ok := decodeValue(got); !ok || s != seq {
				out.errorf("%s holds %s at seq %d, truth is %d", who, key, s, seq)
			}
		}
	}
}
