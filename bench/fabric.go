package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"softstate/internal/fabric"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// fabric_tenants: 256 tenant sessions of 8 records each multiplexed
// over one fabric link with 2 % loss. Tenant 0 is provisioned at ten
// times the others' rate and publishes a spike every 250 ms; latency is
// reported for the 255 well-behaved tenants, the ones fair queueing is
// there to protect. Tenants keep the settings `ssload -sessions` gives
// them (no coalescing knobs: the fabric drives their send path).
const (
	fabTenantRecords = 8
	fabTenantRate    = 256e3
	fabLoss          = 0.02
	fabBurst         = 10
	fabEventRate     = 500 // per second, round-robin over tenants
	fabSpikeEvery    = 250 * time.Millisecond
	fabValueSize     = 64
	fabTTL           = 60 * time.Second
)

func fabricKey(tenant, k int) string { return fmt.Sprintf("t%d/key/%03d", tenant, k) }

// tenants is one built fabric topology: every tenant's initial table
// published, nothing started.
type tenants struct {
	tr        *tracer
	w         *wire
	f         *fabric.Fabric
	fnode     int32
	senders   []*sstp.Sender
	receivers []*sstp.Receiver
	tk        *tracker
	seq       uint64
	val       []byte
	done      []bool // converged, per tenant
}

func (t *tenants) close() {
	t.f.Close()
	// Each receiver's Close waits out a read-deadline tick; a few
	// hundred in sequence would dominate the run.
	var wg sync.WaitGroup
	for _, r := range t.receivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Close()
		}()
	}
	wg.Wait()
}

func (t *tenants) publish(i int, key string, due int64) error {
	t.seq++
	t.val = encodeValue(t.val, fabValueSize, t.seq, due)
	t0 := t.tr.now()
	err := t.senders[i].Publish(key, t.val, 0)
	t.tr.published(t.fnode, key, t.seq, t0)
	return err
}

// converged reports whether every tenant's replica has matched its
// sender since done was last cleared.
func (t *tenants) converged() bool {
	all := true
	for i := range t.senders {
		if !t.done[i] {
			t.done[i] = t.senders[i].RootDigest() == t.receivers[i].RootDigest()
			all = all && t.done[i]
		}
	}
	return all
}

func (t *tenants) totals() (s senderTotals, r receiverTotals, served float64) {
	for i := range t.senders {
		s.add(t.senders[i].Stats())
		r.add(t.receivers[i].Stats())
	}
	for _, ts := range t.f.TenantStats() {
		served += float64(ts.Packets)
	}
	return s, r, served
}

func buildTenants(e *env, tr *tracer, n int) (*tenants, error) {
	t := &tenants{
		tr: tr, w: newWire(tr), tk: newTracker(n), fnode: tr.node("fab"),
		senders: make([]*sstp.Sender, n), receivers: make([]*sstp.Receiver, n), done: make([]bool, n),
	}
	nw := transport.NewMemNetwork(e.seed)
	nw.SetDefaultLoss(fabLoss)
	var err error
	if t.f, err = fabric.New(fabric.Config{
		Conn:     t.w.wrap(nw.Endpoint("fab"), "fab"),
		LinkRate: float64(n) * fabTenantRate,
	}); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		session := uint64(1000 + i)
		rname := fmt.Sprintf("r%d", i)
		rate := fabTenantRate
		if i == 0 {
			rate *= fabBurst
		}
		if t.senders[i], err = t.f.AddSender(sstp.SenderConfig{
			Session: session, SenderID: 1, Dest: transport.MemAddr(rname),
			TotalRate: rate, SummaryInterval: summaryInterval, TTL: fabTTL,
			Seed: e.seed + int64(i),
		}, 1); err != nil {
			return nil, err
		}
		node := tr.node(rname)
		if t.receivers[i], err = sstp.NewReceiver(sstp.ReceiverConfig{
			Session: session, ReceiverID: 2,
			Conn: t.w.wrap(nw.Endpoint(transport.MemAddr(rname)), rname), FeedbackDest: transport.MemAddr("fab"),
			NACKWindow: nackWindow, Seed: e.seed + int64(10_000+i),
			OnUpdate: func(key string, value []byte, _ uint64, _ float64) {
				if s, _, ok := decodeValue(value); ok {
					t.tk.observe(i, key, s, time.Now().UnixNano())
					tr.deliver(node, key, s)
				}
			},
		}); err != nil {
			return nil, err
		}
		for k := 0; k < fabTenantRecords; k++ {
			if err := t.publish(i, fabricKey(i, k), time.Now().UnixNano()); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func runFabricTenants(e *env) (*outcome, error) {
	out := newOutcome()
	n := e.pick(256, 12)
	t, setupS, err := timedSetup(e, func(tr *tracer) (*tenants, error) { return buildTenants(e, tr, n) })
	if err != nil {
		return nil, err
	}
	defer t.close()
	out.e2e["setup_s"], out.dur["setup"] = setupS, setupS

	joined := time.Now()
	t.tr.markStarted()
	t.f.Start()
	for _, r := range t.receivers {
		r.Start()
	}
	if !waitFor(time.Minute, 2*time.Millisecond, t.converged) {
		return nil, fmt.Errorf("fabric_tenants: tenants did not converge in the warm-up")
	}
	out.dur["warmup"] = time.Since(joined).Seconds()
	out.layer["bench.warmup_ms"] = out.dur["warmup"] * 1e3

	// The measured window. Tenant 0's events are published but not
	// tracked: its latency is the price of its own burst.
	tk := t.tk
	now := time.Now().UnixNano()
	for i := 1; i < n; i++ {
		for k := 0; k < fabTenantRecords; k++ {
			tk.seed(fabricKey(i, k), uint64(i*fabTenantRecords+k+1), now, []int{i})
		}
	}
	spikeBatch := int(float64(fabEventRate) / float64(n) * fabSpikeEvery.Seconds() * (fabBurst - 1))
	spikeBatch = max(spikeBatch, 1)
	eventsPerSpike := int(fabSpikeEvery.Seconds() * fabEventRate)
	rnd := e.rng(2)
	s0, r0, served0 := t.totals()
	bytes0 := t.w.txBytes.Load()
	t.tr.markWindow()
	m := startMeter()
	pc := &pacer{start: time.Now(), interval: time.Second / fabEventRate}
	events := int(e.seconds * fabEventRate)
	for ev := 0; ev < events; ev++ {
		due := pc.wait(ev).UnixNano()
		i := ev % n
		key := fabricKey(i, rnd.Intn(fabTenantRecords))
		if i != 0 {
			tk.publish(key, t.seq+1, due, []int{i})
		}
		err := t.publish(i, key, due)
		if ev%eventsPerSpike == 0 {
			for b := 0; b < spikeBatch && err == nil; b++ {
				err = t.publish(0, fabricKey(0, b%fabTenantRecords), due)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fabric_tenants: publish: %w", err)
		}
	}
	wall, cpu, mallocs := m.stop()
	tk.endWindow(time.Now().UnixNano())
	bytes := t.w.txBytes.Load() - bytes0
	s1, r1, served1 := t.totals()
	out.dur["measure"] = wall.Seconds()

	graceStart := time.Now()
	waitFor(visDeadline, 5*time.Millisecond, func() bool { return tk.waiting(time.Now().UnixNano()) == 0 })
	tk.finish()
	out.dur["grace"] = time.Since(graceStart).Seconds()

	openLoopMetrics(out, tk, wall, cpu, mallocs, bytes, n*fabTenantRecords)
	sstpLayer(out.layer, s0, s1, r0, r1)
	out.layer["fabric.datagrams_per_s"] = (served1 - served0) / wall.Seconds()
	// Equal weights and equal demand: the victims' served bytes should
	// be equal; report their mean relative deviation.
	var victimBytes []float64
	starved := 0.0
	for _, ts := range t.f.TenantStats() {
		if ts.Session != 1000 {
			victimBytes = append(victimBytes, float64(ts.Bytes))
		}
		if ts.Starved {
			starved++
		}
	}
	avg, dev := mean(victimBytes), 0.0
	for _, b := range victimBytes {
		dev += math.Abs(b - avg)
	}
	out.layer["fabric.share_error"] = ratio(dev, avg*float64(len(victimBytes)))
	unknown, overflow, foreign := t.f.Drops()
	out.layer["fabric.demux_drops"] = float64(unknown + overflow + foreign)
	out.layer["fabric.starved_tenants"] = starved
	t.w.layer(out.layer)
	out.layer["bench.gen_late_p99_us"] = pc.lateP99()

	// Output check: every tenant's replica, tenant 0 included, must end
	// up equal to its sender; the tracked tenants also against the
	// truth map.
	clear(t.done)
	if !waitFor(10*time.Second, 5*time.Millisecond, t.converged) {
		for i, ok := range t.done {
			if !ok {
				out.errorf("tenant %d did not converge after the stream", i)
			}
		}
	}
	have := make(map[string][]byte)
	for i := 1; i < n; i++ {
		for k, v := range t.receivers[i].Snapshot() {
			have[k] = v
		}
	}
	checkReplica(e, out, tk, "tenant replicas", have)
	return out, nil
}
