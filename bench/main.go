// Command bench is the repo's benchmark: it drives the live soft-state
// stack in-process through six named workloads, checks every replica
// against the generator's own truth map, and prints each metric by
// name with its unit and direction. README.md in this directory is the
// glossary; BENCHMARK.json at the repo root is the contract.
//
//	go run -C bench .                       all workloads, one table
//	go run -C bench . -workload lossy_tree  one workload; the last line
//	                                        is the driver's result object
//	go run -C bench . -trace 1              the per-layer (traced) run
//	go run -C bench . -repeat 2 -check      two sets, compared by bound
//	bash bench/run.sh <flags>               BENCHMARK.json's command: the same
//	                                        program, built under .bench_build
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"softstate/internal/runmeta"
	"softstate/internal/table"
)

// workloads in the order they run. Names are fixed: issues cite them.
var workloads = []workloadDef{
	{"announce_flood", "bare announce/listen fast path: 262144 x 32 B records, unpaced, open loop, mem; codec+table+namespace+mem transport+callback dispatch do all the work", runAnnounceFlood},
	{"catchup_repair", "late joiner with feedback on: 262144 records, summaries, digest descent and NACKs, paced 100 Mbit/s; the same layers run the other way round, and the NACK storm is repeatable", runCatchupRepair},
	{"udp_flood", "announce_flood over loopback UDP sockets, 65536 records a round: netio sendmmsg/recvmmsg and the udp transport dominate", runUDPFlood},
	{"lossy_tree", "the paper's regime: publisher, 2 relays, 4 leaves, 1 Mbit/s links, 5% loss, 5 ms jitter, 100 events/s of updates, births and deletes; scheduler, token bucket, NACK damping and relay decide", runLossyTree},
	{"fabric_tenants", "256 tenant sessions over one fabric link, 2% loss, one 10x-bursty tenant, 500 events/s: fair queueing, demux and the driven send loop", runFabricTenants},
	{"gossip_churn", "12-node anti-entropy mesh, 2% loss, 40 updates/s, one node killed and restarted empty three times: the leaderless copy of the descent protocol plus restart catch-up", runGossipChurn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// lossy says whether a workload injects loss (and so may miss a few
// deadlines without being wrong).
func lossy(name string) bool {
	return name == "lossy_tree" || name == "fabric_tenants" || name == "gossip_churn"
}

// report is the -json document: one per invocation.
type report struct {
	Link       string       `json:"link"`
	Meta       runmeta.Meta `json:"meta"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Stripes    int          `json:"stripes"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Trace      bool         `json:"trace"`
	Runs       []runReport  `json:"runs"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runReport struct {
	Workload  string                 `json:"workload"`
	Set       int                    `json:"set"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Samples   int                    `json:"t_vis_samples"`
	Rank99    float64                `json:"t_vis_p99_rank"`
	Rounds    int                    `json:"rounds,omitempty"`
	Durations map[string]float64     `json:"durations_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	SpanFile  string                 `json:"span_file,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all six)")
		seed     = flag.Int64("seed", 1, "generator seed")
		seconds  = flag.Float64("seconds", 8, "length of each measured window")
		trace    = flag.Int("trace", 0, "1: traced run, report the per-layer metrics")
		jsonOut  = flag.Bool("json", false, "print the full result as one JSON document")
		repeat   = flag.Int("repeat", 1, "run each workload this many times")
		check    = flag.Bool("check", false, "with -repeat 2: fail if the two sets differ by more than a metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) ||
		(*check && (*repeat < 2 || *trace == 1)) { // -check compares end-to-end metrics of two sets
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []workloadDef{*w}
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	e := &env{
		seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs, stripes: table.NormalizeStripes(procs),
		outDir: ".bench_out", // in the working directory: the driver's checkout, and ignored by git
	}
	rep := report{
		Link: linkStatement, Meta: runmeta.Collect(), GOMAXPROCS: procs, Stripes: e.stripes,
		Seed: *seed, Seconds: *seconds, Trace: e.trace,
	}
	ok := true
	for set := 1; set <= *repeat; set++ {
		for i := range selected {
			rr, err := runOne(e, &selected[i], set)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", selected[i].Name, err)
				os.Exit(1)
			}
			if !*jsonOut {
				printRun(rr)
			}
			ok = ok && rr.Correct
			rep.Runs = append(rep.Runs, *rr)
		}
	}
	if *check && !compareSets(rep.Runs) {
		ok = false
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if len(selected) == 1 && *repeat == 1 {
		// The driver's contract: one object, last line of stdout.
		rr := &rep.Runs[0]
		line, err := json.Marshal(map[string]any{
			"correct": rr.Correct, "attempted": rr.Attempted, "failed": rr.Failed, "metrics": rr.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED (wrong output, missed deadlines or sets apart)")
		os.Exit(1)
	}
}

// runOne runs a workload and shapes its outcome into the reported
// metric set: end-to-end untraced, per-layer traced.
func runOne(e *env, w *workloadDef, set int) (*runReport, error) {
	// Start each run from a collected, scavenged heap: what an earlier
	// workload left behind (heap goal, cached spans) otherwise moves
	// the short timings of the next, setup_s above all.
	debug.FreeOSMemory()
	t0 := time.Now()
	var out *outcome
	var err error
	if e.trace {
		out, err = runTraced(e, w)
	} else {
		out, err = w.run(e)
	}
	if err != nil {
		return nil, err
	}
	out.dur["total"] = time.Since(t0).Seconds()
	rr := &runReport{
		Workload: w.Name, Set: set, Correct: out.correct(lossy(w.Name)),
		Attempted: out.attempted, Failed: out.failed, Errors: out.errs,
		Samples: out.samples, Rank99: out.rank99, Rounds: out.rounds,
		Durations: out.dur, Metrics: map[string]metricValue{}, SpanFile: out.spanFile,
	}
	defs, vals := endToEnd, out.e2e
	if e.trace {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rr.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return rr, nil
}

func printRun(rr *runReport) {
	fmt.Printf("== %s (set %d): correct=%v attempted=%d failed=%d t_vis samples=%d p99 rank=%.4f total %.1fs\n",
		rr.Workload, rr.Set, rr.Correct, rr.Attempted, rr.Failed, rr.Samples, rr.Rank99, rr.Durations["total"])
	for _, msg := range rr.Errors {
		fmt.Printf("   ! %s\n", msg)
	}
	defs := endToEnd
	if _, traced := rr.Metrics[perLayer[0].Name]; traced {
		defs = perLayer
	}
	for _, d := range defs {
		arrow := "lower is better"
		if d.Better == "higher" {
			arrow = "higher is better"
		}
		fmt.Printf("   %-36s %16.4f %-6s (%s)\n", d.Name, rr.Metrics[d.Name].Value, d.Unit, arrow)
	}
	if rr.SpanFile != "" {
		fmt.Printf("   spans: %s\n", rr.SpanFile)
	}
}

// compareSets is -check: the first two runs of each workload must
// agree on every end-to-end metric to within that metric's bound.
func compareSets(runs []runReport) bool {
	ok := true
	first := map[string]*runReport{}
	for i := range runs {
		r := &runs[i]
		a, seen := first[r.Workload]
		if !seen {
			first[r.Workload] = r
			continue
		}
		if r.Set != 2 {
			continue
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, r.Metrics[d.Name].Value
			if lo := math.Min(x, y); lo <= 0 || math.Abs(x-y)/lo > d.Bound {
				fmt.Fprintf(os.Stderr, "bench: -check: %s %s: %.4f vs %.4f differ by more than %.0f%%\n",
					r.Workload, d.Name, x, y, d.Bound*100)
				ok = false
			}
		}
	}
	return ok
}
