package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// floodShape is one sender draining a pre-published table into one
// empty receiver: the three bulk workloads differ only in these fields.
type floodShape struct {
	name     string
	records  int
	udp      bool    // loopback sockets instead of the MemNetwork
	feedback bool    // summaries, digest descent and NACKs on
	rate     float64 // sender TotalRate, bits/s
}

// floodRound is what one build-publish-drain cycle measured.
type floodRound struct {
	setupS, drainS            float64
	cpuUs, allocs, wire, heap float64 // per record
	stale                     float64 // time-average share of keys not yet at the replica
	p50, p95, p99, rank99     float64 // ms from Start() to each record's OnUpdate
	sender                    sstp.SenderStats
	receiver                  sstp.ReceiverStats
	w                         *wire
	missing                   int // records absent or wrong at the replica after the drain
}

// runFlood repeats rounds until their set-ups and drains add up to the
// requested window and reports each metric's median over the rounds:
// a round is one sample of set-up time and one of drain rate, and a
// single sample of either does not repeat to a few percent.
func runFlood(e *env, sh floodShape, tr *tracer) (*outcome, error) {
	out := newOutcome()
	keys := make([]string, sh.records)
	for i := range keys {
		keys[i] = wideKey(i)
	}
	var rounds []floodRound
	measured := 0.0
	for len(rounds) == 0 || (measured < e.seconds && len(rounds) < e.pick(32, 2)) {
		r, err := floodOnce(e, sh, keys, len(rounds), tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		measured += r.setupS + r.drainS
		out.attempted += int64(sh.records)
		out.failed += int64(r.missing)
		if r.missing > 0 {
			out.errorf("%s round %d: %d of %d records missing or wrong at the replica", sh.name, len(rounds), r.missing, sh.records)
		}
		out.dur["setup"] += r.setupS
		out.dur["measure"] += r.drainS
	}
	out.rounds = len(rounds)
	col := func(f func(*floodRound) float64) float64 {
		v := make([]float64, len(rounds))
		for i := range rounds {
			v[i] = f(&rounds[i])
		}
		return median(v)
	}
	n := float64(sh.records)
	out.e2e["setup_s"] = col(func(r *floodRound) float64 { return r.setupS })
	out.e2e["records_per_s"] = col(func(r *floodRound) float64 { return n / r.drainS })
	out.e2e["cpu_us_per_record"] = col(func(r *floodRound) float64 { return r.cpuUs })
	out.e2e["allocs_per_record"] = col(func(r *floodRound) float64 { return r.allocs })
	out.e2e["wire_bytes_per_record"] = col(func(r *floodRound) float64 { return r.wire })
	out.e2e["heap_bytes_per_record"] = col(func(r *floodRound) float64 { return r.heap })
	out.e2e["t_vis_p50_ms"] = col(func(r *floodRound) float64 { return r.p50 })
	out.e2e["t_vis_p95_ms"] = col(func(r *floodRound) float64 { return r.p95 })
	out.e2e["t_vis_p99_ms"] = col(func(r *floodRound) float64 { return r.p99 })
	out.e2e["stale_fraction"] = col(func(r *floodRound) float64 { return r.stale })
	out.samples, out.rank99 = sh.records, rounds[0].rank99

	var sent senderTotals
	var rcvd receiverTotals
	for i := range rounds {
		sent.add(rounds[i].sender)
		rcvd.add(rounds[i].receiver)
		rounds[i].w.layer(out.layer)
	}
	sstpLayer(out.layer, senderTotals{}, sent, receiverTotals{}, rcvd)
	return out, nil
}

func floodOnce(e *env, sh floodShape, keys []string, round int, tr *tracer) (floodRound, error) {
	n := len(keys)
	w := newWire(tr)
	fr := floodRound{w: w}

	setup := time.Now()
	var sc, rc transport.Conn
	var dest, fbDest net.Addr
	if sh.udp {
		udp, err := transport.New("udp", transport.Options{})
		if err != nil {
			return fr, err
		}
		if sc, err = udp.Listen("127.0.0.1:0"); err != nil {
			return fr, fmt.Errorf("%s: %w", sh.name, err)
		}
		defer sc.Close()
		if rc, err = udp.Listen("127.0.0.1:0"); err != nil {
			return fr, fmt.Errorf("%s: %w", sh.name, err)
		}
		defer rc.Close()
		// Not wrapped: a wrapper would hide the *net.UDPConn that
		// netio.Wrap needs for sendmmsg/recvmmsg.
		dest, fbDest = rc.LocalAddr(), sc.LocalAddr()
	} else {
		nw := transport.NewMemNetwork(e.seed + int64(round))
		sc, rc = w.wrap(nw.Endpoint("sender"), "sender"), w.wrap(nw.Endpoint("rcv"), "rcv")
		dest, fbDest = transport.MemAddr("rcv"), transport.MemAddr("sender")
	}
	summary := summaryInterval
	if !sh.feedback {
		summary = time.Hour // open loop: nothing to answer a summary
	}
	s, err := sstp.NewSender(sstp.SenderConfig{
		Session: 77, SenderID: 1, Conn: sc, Dest: dest,
		TotalRate: sh.rate, SummaryInterval: summary, TTL: 10 * time.Minute,
		Stripes: e.stripes, CoalesceRecords: coalesceRecords, BatchDatagrams: batchDatagrams,
		Seed: e.seed,
	})
	if err != nil {
		return fr, err
	}
	defer s.Close()
	// One delivery time per record, written by the receiver's single
	// dispatcher goroutine and read after the count says it is done.
	// Record i carries seq i+1, so a value under the wrong key shows.
	var start time.Time
	seenNs := make([]int64, 0, n)
	var seen, bad atomic.Int64
	snode, rnode := tr.node("sender"), tr.node("rcv")
	r, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 77, ReceiverID: 2, Conn: rc, FeedbackDest: fbDest,
		DisableFeedback: !sh.feedback, NACKWindow: nackWindow,
		Stripes: e.stripes, DisableConsistency: true, Seed: e.seed + 1,
		OnUpdate: func(key string, value []byte, _ uint64, _ float64) {
			seenNs = append(seenNs, int64(time.Since(start)))
			seq, _, ok := decodeValue(value)
			if !ok || seq < 1 || seq > uint64(n) || keys[seq-1] != key {
				bad.Add(1)
			}
			tr.deliver(rnode, key, seq)
			seen.Add(1)
		},
	})
	if err != nil {
		return fr, err
	}
	defer r.Close()

	// Publish from no more goroutines than processors, disjoint ranges.
	var wg sync.WaitGroup
	var pubErr atomic.Value
	for g := 0; g < e.procs; g++ {
		lo, hi := n*g/e.procs, n*(g+1)/e.procs
		wg.Add(1)
		go func() {
			defer wg.Done()
			var val []byte
			for i := lo; i < hi; i++ {
				val = encodeValue(val, 32, uint64(i+1), 0)
				t0 := tr.now()
				err := s.Publish(keys[i], val, 0)
				tr.published(snode, keys[i], uint64(i+1), t0)
				if err != nil {
					pubErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := pubErr.Load().(error); err != nil {
		return fr, fmt.Errorf("%s: publish: %w", sh.name, err)
	}
	fr.setupS = time.Since(setup).Seconds()

	m := startMeter()
	start = time.Now()
	tr.markStarted()
	s.Start()
	r.Start()
	// Poll the replica size every millisecond: it times the drain to
	// 1 ms and integrates 1 − c(t) on the way.
	staleSum, polls := 0.0, 0
	done := waitFor(2*time.Minute, time.Millisecond, func() bool {
		have := r.Len()
		staleSum += 1 - float64(have)/float64(n)
		polls++
		return have == n && r.RootDigest() == s.RootDigest()
	})
	wall, cpu, mallocs := m.stop()
	if !done {
		return fr, fmt.Errorf("%s: replica holds %d of %d records after %v", sh.name, r.Len(), n, wall)
	}
	fr.drainS = wall.Seconds()
	fr.cpuUs = float64(cpu.Microseconds()) / float64(n)
	fr.allocs = float64(mallocs) / float64(n)
	fr.stale = staleSum / float64(polls)
	fr.sender, fr.receiver = s.Stats(), r.Stats()
	if sh.udp {
		fr.wire = float64(fr.sender.BytesSent) / float64(n)
	} else {
		fr.wire = float64(w.txBytes.Load()) / float64(n)
	}

	// The dispatcher may trail the table; wait for its last callback.
	waitFor(10*time.Second, time.Millisecond, func() bool { return seen.Load() >= int64(n) })
	fr.heap = heapInuse() / float64(n)

	// Output check: every key, against what the generator published.
	var want []byte
	for i, k := range keys {
		want = encodeValue(want, 32, uint64(i+1), 0)
		if e.corruptTruth {
			want[0] ^= 0xff
		}
		if got, ok := r.Get(k); !ok || string(got) != string(want) {
			fr.missing++
		}
	}
	fr.missing += int(bad.Load())
	if got := int(seen.Load()); got != n {
		fr.missing += n - got
	}
	r.Close() // no callback runs after Close: seenNs is ours now
	ms := make([]float64, len(seenNs))
	for i, ns := range seenNs {
		ms[i] = float64(ns) / 1e6
	}
	fr.p50, fr.p95, fr.p99, fr.rank99 = quantiles(ms)
	return fr, nil
}
