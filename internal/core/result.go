package core

import (
	"softstate/internal/metric"
	"softstate/internal/table"
)

// Result is the measurement summary of one protocol run.
type Result struct {
	Mode     Mode
	Duration float64

	// Consistency is the time-averaged system consistency E[c(t)]
	// over the live set (empty-set intervals excluded), averaged
	// across receivers — the quantity the paper's simulations plot.
	Consistency float64
	// ConsistencyWithEmpty counts empty-live-set intervals as zero
	// consistency, matching the occupied-state sum of the paper's
	// closed form E[c(t)] = ρ·q.
	ConsistencyWithEmpty float64
	// BusyFraction is the fraction of time the live set was non-empty
	// (the empirical utilization ρ).
	BusyFraction float64

	// ConsistencyCI is a 95% confidence half-width for Consistency
	// (receiver 0), from the method of batch means over 10 batches of
	// the measurement window.
	ConsistencyCI float64

	// PerReceiver holds each receiver's busy-average consistency.
	PerReceiver []float64

	// Receive latency T_rec (receiver 0, successful deliveries only).
	MeanLatency   float64
	P50Latency    float64
	P95Latency    float64
	DeliveryRatio float64 // delivered / (delivered + died-undelivered)

	// Bandwidth accounting (receiver-0 perspective for data classes).
	RedundantFraction float64 // of delivered data transmissions
	WastedFraction    float64 // redundant + lost, of all data bits
	DataBits          float64
	FeedbackBits      float64

	// Counters.
	Arrivals      int
	Deaths        int
	Updates       int
	Transmissions int
	NACKsSent     int // generated at receivers
	NACKsRecv     int // delivered to the sender
	NACKsDropped  int // dropped at the feedback queue
	Promotions    int // cold→hot promotions caused by NACKs

	// Transitions is the empirical Table 1: [enter I=0/C=1] ×
	// [exit I=0/C=1/D=2] service-completion counts for receiver 0.
	Transitions [2][3]int

	// Series is the sampled consistency time series (nil unless
	// Config.SampleInterval > 0).
	Series *metric.Series
}

// TransitionProbabilities normalizes the Table 1 counts into empirical
// probabilities; rows with no observations return zeros.
func (r Result) TransitionProbabilities() [2][3]float64 {
	var out [2][3]float64
	for i := 0; i < 2; i++ {
		total := 0
		for j := 0; j < 3; j++ {
			total += r.Transitions[i][j]
		}
		if total == 0 {
			continue
		}
		for j := 0; j < 3; j++ {
			out[i][j] = float64(r.Transitions[i][j]) / float64(total)
		}
	}
	return out
}

func (e *Engine) result(duration float64) Result {
	res := Result{
		Mode:          e.cfg.Mode,
		Duration:      duration,
		MeanLatency:   e.lat.Mean(),
		P50Latency:    e.lat.Quantile(0.5),
		P95Latency:    e.lat.Quantile(0.95),
		DeliveryRatio: e.lat.DeliveryRatio(),

		RedundantFraction: e.bw.RedundantFraction(),
		WastedFraction:    e.bw.WastedFraction(),
		DataBits:          e.bw.DataBits(),
		FeedbackBits:      e.bw.FeedbackBits,

		Arrivals:      e.arrivals,
		Deaths:        e.deaths,
		Updates:       e.updates,
		Transmissions: e.transmissions(),
		NACKsSent:     e.nacksGen,
		NACKsRecv:     e.nacksRecv,
		Promotions:    e.promoted,
		Transitions:   e.transitions,
		Series:        e.series,
	}
	if e.fb != nil {
		res.NACKsDropped = e.fb.Dropped()
	}
	sumBusy, sumAvg := 0.0, 0.0
	for _, m := range e.meters {
		res.PerReceiver = append(res.PerReceiver, m.BusyAverage())
		sumBusy += m.BusyAverage()
		sumAvg += m.Average()
	}
	n := float64(len(e.meters))
	res.Consistency = sumBusy / n
	res.ConsistencyWithEmpty = sumAvg / n
	res.BusyFraction = e.meters[0].BusyFraction()
	if e.batch != nil {
		res.ConsistencyCI = e.batch.CI95()
	}
	return res
}

// transmissions sums completed services across all data servers.
func (e *Engine) transmissions() int {
	if e.ch != nil {
		return e.ch.Transmissions()
	}
	n := 0
	for _, ch := range e.chq {
		if ch != nil {
			n += ch.Transmissions()
		}
	}
	return n
}

// TableConsistency cross-checks the engine's incremental counters
// against a full comparison of the mirrored publisher/subscriber
// tables (requires Config.TrackTables). It returns, for each receiver,
// (consistent, live) at the current instant.
func (e *Engine) TableConsistency() ([][2]int, bool) {
	if e.pub == nil {
		return nil, false
	}
	out := make([][2]int, len(e.subs))
	for i, s := range e.subs {
		c, l := table.Consistency(e.pub, s, e.Now())
		out[i] = [2]int{c, l}
	}
	return out, true
}

// CounterConsistency returns the engine's incremental
// (consistent, live) counters per receiver, for cross-checking.
func (e *Engine) CounterConsistency() [][2]int {
	out := make([][2]int, len(e.nCons))
	for i, c := range e.nCons {
		out[i] = [2]int{c, len(e.live)}
	}
	return out
}

// LiveRecords returns the current number of live records.
func (e *Engine) LiveRecords() int { return len(e.live) }
