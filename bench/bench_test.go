package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"softstate/internal/table"
)

func toyEnv() *env {
	procs := min(runtime.NumCPU(), 4)
	return &env{seed: 7, seconds: 0.3, toy: true, procs: procs, stripes: table.NormalizeStripes(procs)}
}

// TestToyWorkloads runs every workload's traced path (an untraced
// pass, a traced pass, the probes) at toy scale and holds what comes out
// to the catalog: exactly those names, finite, none missing, and no
// end-to-end metric at zero.
func TestToyWorkloads(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // most of a toy run is waiting: closes, grace periods
			e := toyEnv()
			e.outDir = dir
			out, err := runTraced(e, w)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct(lossy(w.Name)) {
				t.Errorf("run is incorrect: attempted %d failed %d errors %v", out.attempted, out.failed, out.errs)
			}
			// runOne reports the catalog's names and nothing else, a
			// metric a workload has no use for as 0; so no workload may
			// compute a name the catalog lacks, and every end-to-end
			// metric must be there and positive.
			known := map[string]bool{}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				known[d.Name] = true
			}
			for _, vals := range []map[string]float64{out.e2e, out.layer} {
				for name, v := range vals {
					if !known[name] || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v: not in the catalog, or not finite", name, v)
					}
				}
			}
			for _, d := range endToEnd {
				if out.e2e[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, out.e2e[d.Name])
				}
			}
			for _, name := range []string{"protocol.encode_ns_per_record", "netio.read_ns_per_datagram", "bench.layer_cpu_coverage"} {
				if out.layer[name] <= 0 {
					t.Errorf("per-layer metric %s = %v, want > 0", name, out.layer[name])
				}
			}
			if w.Name != "udp_flood" && (out.spanFile == "" || out.layer["bench.spans"] == 0) {
				t.Errorf("traced run wrote no spans (file %q)", out.spanFile)
			}
		})
	}
}

// TestDriverLine: what runOne reports carries the catalog's units and
// marshals to the object the driver reads.
func TestDriverLine(t *testing.T) {
	rr, err := runOne(toyEnv(), findWorkload("announce_flood"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Correct || rr.Attempted < 1 || rr.Failed != 0 || len(rr.Metrics) != len(endToEnd) {
		t.Fatalf("report %+v", rr)
	}
	for _, d := range endToEnd {
		if got := rr.Metrics[d.Name]; got.Unit != d.Unit || got.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %q", d.Name, got, d.Unit)
		}
	}
}

// TestCorruptTruthFails shows the output check has teeth: the same run
// against a truth map that disagrees with what was published is wrong.
func TestCorruptTruthFails(t *testing.T) {
	for _, name := range []string{"announce_flood", "gossip_churn"} {
		e := toyEnv()
		e.corruptTruth = true
		out, err := findWorkload(name).run(e)
		if err != nil {
			t.Fatal(err)
		}
		if out.correct(lossy(name)) || len(out.errs) == 0 {
			t.Errorf("%s: a corrupted truth map still passed the output check", name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalog in metrics.go
// and main.go, so the contract and the program cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []workloadDef
	for _, w := range workloads {
		want = append(want, workloadDef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(doc.Workloads, want) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuantiles(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1) // 1..1000
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.95, 950}, {0.99, 990}, {0.001, 1}, {1, 1000}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	// The tail rule: never report a percentile with fewer than
	// minBeyond samples past it, never go below the median.
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{1_000_000, 0.99, 0.99},
		{100 * minBeyond, 0.99, 0.99},
		{10 * minBeyond, 0.99, 0.9},
		{10 * minBeyond, 0.5, 0.5},
		{minBeyond, 0.99, 0.5},
		{0, 0.99, 0.99},
	} {
		got := tailRank(c.n, c.q, minBeyond)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailRank(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
		if c.n > 2*minBeyond {
			i := int(math.Ceil(got*float64(c.n))) - 1 // the index quantile() picks
			if beyond := c.n - 1 - i; beyond < minBeyond {
				t.Errorf("tailRank(%d, %v) leaves %d samples beyond, want >= %d", c.n, c.q, beyond, minBeyond)
			}
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

// TestDueTimeAccounting: latency runs from when an event was due, not
// from when a late generator got round to publishing it.
func TestDueTimeAccounting(t *testing.T) {
	const ms = int64(time.Millisecond)
	tk := newTracker(2)
	both := []int{0, 1}
	tk.seed("k", 1, 0, both)

	// Due at 1000 ms, but the generator stalled and published at
	// 1050 ms; replica 0 shows it at 1070 ms. The stall is part of the
	// latency: 70 ms, not 20.
	tk.publish("k", 2, 1000*ms, both)
	tk.observe(0, "k", 2, 1070*ms)
	if len(tk.tvisMs) != 1 || tk.tvisMs[0] != 70 {
		t.Fatalf("t_vis = %v, want [70]", tk.tvisMs)
	}
	// Replica 1 never sees seq 2: seq 3 overwrites it, and showing the
	// later version makes both visible, each from its own due time.
	tk.publish("k", 3, 1100*ms, both)
	tk.observe(1, "k", 3, 1200*ms)
	if got := tk.tvisMs[1:]; !reflect.DeepEqual(got, []float64{200, 100}) {
		t.Fatalf("t_vis after overwrite = %v, want [200 100]", got)
	}
	// Past the deadline is a failure, not a latency sample.
	tk.observe(0, "k", 3, 1100*ms+int64(visDeadline)+1)
	if tk.failed != 1 || tk.attempted != 4 {
		t.Fatalf("failed %d attempted %d, want 1 of 4", tk.failed, tk.attempted)
	}
	// A delete is visible when the key is gone.
	tk.remove("k", 4, 5000*ms, time.Second, both)
	tk.observeGone(0, "k", 5030*ms)
	if got := tk.tvisMs[len(tk.tvisMs)-1]; got != 30 {
		t.Fatalf("delete t_vis = %v, want 30", got)
	}
	tk.endWindow(6000 * ms)
	past := 5000*ms + int64(visDeadline+time.Second) + 1
	if tk.waiting(6000*ms) != 1 || tk.waiting(past) != 0 {
		t.Fatalf("waiting = %d now, %d past the delete's deadline; want 1 and 0", tk.waiting(6000*ms), tk.waiting(past))
	}
	tk.observeGone(1, "k", 7000*ms) // in the grace period: resolves, adds no stale time past the window
	tk.finish()
	if tk.failed != 1 || tk.attempted != 6 {
		t.Fatalf("after finish: failed %d attempted %d, want 1 of 6", tk.failed, tk.attempted)
	}
	// Stale time: replica 0 was behind over [1000,1070], from 1100 until
	// just past the deadline, and [5000,5030]; replica 1 over [1000,1200]
	// and [5000,6000] (the window's end, not the 7000 it resolved at).
	wantStale := (70+30+200+1000)*ms + int64(visDeadline)
	if d := tk.staleNs - wantStale; d < 0 || d > 2 {
		t.Errorf("stale time %d ns, want %d", tk.staleNs, wantStale)
	}
	if tk.pairNs != 2*6000*ms {
		t.Errorf("tracked time %d ns, want %d", tk.pairNs, 2*6000*ms)
	}

	// An update overtaken by a delete is judged by the delete's deadline:
	// the key lingering 8 s (every tombstone lost, gone with the TTL) is
	// within it, so neither operation failed.
	tk = newTracker(1)
	tk.seed("d", 1, 0, []int{0})
	tk.publish("d", 2, 0, []int{0})
	tk.remove("d", 3, 100*ms, 10*time.Second, []int{0})
	tk.observeGone(0, "d", 8000*ms)
	if tk.attempted != 2 || tk.failed != 0 {
		t.Errorf("overtaken update: failed %d of %d, want 0 of 2", tk.failed, tk.attempted)
	}

	// The pacer's schedule does not move when the generator is late.
	p := &pacer{start: time.Now().Add(-100 * time.Millisecond), interval: 10 * time.Millisecond}
	due := p.wait(3)
	if want := p.start.Add(30 * time.Millisecond); !due.Equal(want) {
		t.Errorf("due = %v, want %v", due, want)
	}
	if len(p.lateUs) != 1 || p.lateUs[0] < 69_000 {
		t.Errorf("lateness %v us, want one sample of at least 70 ms", p.lateUs)
	}
}

// TestSpanAssembly feeds the tracer one record's journey through a
// relay and checks the spans, their parents and the self times.
func TestSpanAssembly(t *testing.T) {
	tr := newTracer(1)
	pub, rel, leaf := tr.node("pub"), tr.node("relay"), tr.node("leaf")
	const us = int64(time.Microsecond)
	tr.record(evPublish, pub, -1, 0, 2*us, "k", 5)
	tr.record(evTx, pub, -1, 300*us, 310*us, "k", 5)   // waited 300 us in the sender
	tr.record(evRx, rel, pub, 320*us, 320*us, "k", 5)  // 20 us on the wire
	tr.record(evTx, rel, -1, 1320*us, 1330*us, "k", 5) // 1000 us in the relay
	tr.record(evRx, leaf, rel, 1350*us, 1350*us, "k", 5)
	tr.record(evDeliver, leaf, -1, 1400*us, 1400*us, "k", 5) // 50 us to the callback
	tr.record(evTx, pub, -1, 5000*us, 5010*us, "k", 5)       // a cold re-announcement
	sum := tr.build()

	var names []string
	byName := map[string]span{}
	for _, s := range sum.spans {
		names = append(names, s.Name)
		if _, dup := byName[s.Name]; !dup {
			byName[s.Name] = s
		}
	}
	want := []string{"publish", "wire.tx", "wire.rx", "relay.hop", "wire.tx", "wire.rx", "deliver", "wire.tx"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if p := byName["publish"]; p.Start != 0 || p.End != 310*us || p.Parent != 0 {
		t.Errorf("publish span %+v", p)
	}
	if byName["wire.tx"].Parent != byName["publish"].ID || byName["wire.rx"].Parent != byName["wire.tx"].ID ||
		byName["relay.hop"].Parent != byName["wire.rx"].ID {
		t.Errorf("parents wrong: %+v", sum.spans)
	}
	if last := sum.spans[len(sum.spans)-1]; last.Parent != byName["publish"].ID {
		t.Errorf("re-announcement's parent is %d, want the publish span", last.Parent)
	}
	if !reflect.DeepEqual(sum.sendWaitMs, []float64{0.3}) || !reflect.DeepEqual(sum.hopLagMs, []float64{1}) ||
		!reflect.DeepEqual(sum.dispatchLagUs, []float64{50}) {
		t.Errorf("self times: send wait %v ms, hop lag %v ms, dispatch lag %v us", sum.sendWaitMs, sum.hopLagMs, sum.dispatchLagUs)
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(set int, scale float64) runReport {
		r := runReport{Workload: "w", Set: set, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{100 * scale, d.Unit}
		}
		return r
	}
	if !compareSets([]runReport{mk(1, 1), mk(2, 1.04)}) {
		t.Error("sets 4% apart failed -check")
	}
	if compareSets([]runReport{mk(1, 1), mk(2, 1.5)}) {
		t.Error("sets 50% apart passed -check")
	}
}
