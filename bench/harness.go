package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The SSTP sender/receiver knobs are the repo's own harness profile
// (what ssload passes) and are identical in every workload, so two
// runs of the benchmark differ only in the code under test.
const (
	coalesceRecords = 32
	batchDatagrams  = 16
	summaryInterval = 200 * time.Millisecond
	nackWindow      = 50 * time.Millisecond
)

// linkStatement goes into every JSON result: nothing here crosses a
// real link, so absolute rates say nothing about a network.
const linkStatement = "in-process MemNetwork / host loopback — no real link"

// env is what one workload run is given. Only seed reaches the
// generator; the stack under test sees generated inputs alone.
type env struct {
	seed    int64
	seconds float64 // length of the measured window
	trace   bool    // wrap conns and callbacks with span recording
	toy     bool    // bench_test.go: same shapes, tiny counts
	procs   int     // GOMAXPROCS, also the generator goroutine cap
	stripes int     // table.NormalizeStripes(procs)

	// corruptTruth makes the generator's truth map disagree with what
	// it published; bench_test.go uses it to show the output check
	// fails a run.
	corruptTruth bool

	tr     *tracer // set by runTraced for the traced pass
	outDir string  // where a traced run writes its span file
}

// tracer returns the traced pass's tracer, sampling one key in sampleN
// (bulk workloads cannot keep a span per record), or nil when untraced.
func (e *env) tracer(sampleN int) *tracer {
	if e.tr != nil {
		e.tr.sampleN = uint32(sampleN)
	}
	return e.tr
}

func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// pick returns full unless this is a toy run.
func (e *env) pick(full, toy int) int {
	if e.toy {
		return toy
	}
	return full
}

// outcome is one workload run's result.
type outcome struct {
	attempted int64
	failed    int64
	errs      []string // output-check violations; any makes the run incorrect

	e2e   map[string]float64
	layer map[string]float64 // counters and ratios read off the run itself

	samples int     // t_vis sample count behind the quantiles
	rank99  float64 // the rank t_vis_p99_ms resolved to (tailRank)
	rounds  int

	dur      map[string]float64 // seconds by phase: setup, measure, grace, total
	spanFile string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, dur: map[string]float64{}}
}

func (o *outcome) errorf(format string, args ...any) {
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// maxFailedFraction is the share of operations a lossy workload may
// miss its deadline on before the run counts as incorrect; the
// lossless workloads allow none.
const maxFailedFraction = 0.02

func (o *outcome) correct(lossy bool) bool {
	limit := 0.0
	if lossy {
		limit = maxFailedFraction
	}
	return len(o.errs) == 0 && o.attempted > 0 && ratio(float64(o.failed), float64(o.attempted)) <= limit
}

// meter measures one window: wall clock, process CPU and heap
// allocations. ReadMemStats stops the world, so it brackets the window
// and is never called inside it.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	mallocs uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: processCPU(), mallocs: ms.Mallocs}
}

func (m meter) stop() (wall, cpu time.Duration, mallocs uint64) {
	wall, cpu = time.Since(m.t0), processCPU()-m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, cpu, ms.Mallocs - m.mallocs
}

// heapInuse is the heap in use after a full collection.
func heapInuse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// Values carry the generator's own bookkeeping, so every boundary that
// sees a value (OnUpdate, Get, a decoded datagram) can tell which
// publish it came from and when that publish was due:
//
//	seq uint64 | due unix-nanos int64 | filler derived from seq
const valueHeader = 16

func encodeValue(dst []byte, size int, seq uint64, due int64) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	dst = binary.BigEndian.AppendUint64(dst[:0], seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(due))
	for i := valueHeader; i < size; i++ {
		dst = append(dst, byte('a'+(int(seq)+i)%26))
	}
	return dst
}

func decodeValue(v []byte) (seq uint64, due int64, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(v), int64(binary.BigEndian.Uint64(v[8:])), true
}

// wideKey spreads keys over 256 top-level components (every stripe
// count gets an even shard, and the digest tree is three levels deep);
// narrowKey is ssload's default shape, 32 top-level groups under one
// root component.
func wideKey(i int) string   { return fmt.Sprintf("g%03d/m%02d/k%d", i%256, (i/256)%16, i) }
func narrowKey(i int) string { return fmt.Sprintf("load/%03d/%d", i%32, i) }

// pacer is the open-loop clock: event i is due at start + i*interval
// whether or not the generator got there in time. Latencies are taken
// from the due time, so a stalled generator (or a stalled Publish)
// charges its delay to the events it held up.
type pacer struct {
	start    time.Time
	interval time.Duration
	lateUs   []float64
}

func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until event i is due and records how late the generator
// woke.
func (p *pacer) wait(i int) time.Time {
	due := p.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	p.lateUs = append(p.lateUs, float64(time.Since(due).Nanoseconds())/1e3)
	return due
}

func (p *pacer) lateP99() float64 {
	s := append([]float64(nil), p.lateUs...)
	sort.Float64s(s)
	return quantile(s, tailRank(len(s), 0.99, minBeyond))
}

// An open-loop workload builds its topology and publishes its initial
// table again and again: one build is 0.5–35 ms, too short to repeat to
// a few percent, so setup_s is the median of at least minSetups builds,
// and of more (up to maxSetups) while they have not yet used up
// setupBudget. Each build but the last is closed before the next, and
// each starts from a heap collected by hand with the collector's own
// pacing switched off: left on, a cycle (and the scavenger behind it)
// lands in some builds and not in others, and what that costs swings
// between 0 and 100 % of a 1.5 ms build with the state of the machine.
// The first two builds of a process are never timed.
const (
	minSetups   = 7
	maxSetups   = 49
	setupBudget = 100 * time.Millisecond
)

type topology interface{ close() }

// timedSetup returns the last build, which goes on to run and is the
// only one traced, with the median build time in seconds.
func timedSetup[T topology](e *env, build func(tr *tracer) (T, error)) (T, float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := e.tracer(1)
	// A toy run builds a few times only: closing a topology costs a
	// read-deadline tick per receiver, far more than building a toy one.
	minN, maxN := e.pick(minSetups, 3), e.pick(maxSetups, 5)
	var times []float64
	var spent time.Duration
	for builds := 0; ; builds++ {
		timed := builds >= 2
		n := len(times) + 1
		last := timed && (n >= maxN || (n >= minN && spent >= setupBudget))
		var use *tracer
		if last {
			use = tr
		}
		runtime.GC()
		t0 := time.Now()
		tp, err := build(use)
		if err != nil {
			return tp, 0, err
		}
		if d := time.Since(t0); timed {
			spent += d
			times = append(times, d.Seconds())
		}
		if last {
			return tp, median(times), nil
		}
		tp.close()
	}
}

// poll calls f every interval on a goroutine of its own until the
// returned stop is called; stop waits for the goroutine to end and may
// be called more than once.
func poll(every time.Duration, f func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				f()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}

// waitFor polls cond every step until it holds or the timeout passes.
func waitFor(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
}
