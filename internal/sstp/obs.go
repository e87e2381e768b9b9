package sstp

import (
	"softstate/internal/obs"
	"softstate/internal/staleness"
	"softstate/internal/trace"
)

// Metric catalog shared between the live stack and the simulators
// (internal/core emits the same names), so a simulator prediction and
// a production run are directly comparable. See README
// "Observability" for the full catalog.
//
// All instruments are nil-safe: with no registry configured the
// increments below cost a nil check and nothing else.

// senderMetrics are the publisher-side series.
type senderMetrics struct {
	publishes  *obs.Counter // sstp_publishes_total
	updates    *obs.Counter // sstp_updates_total
	deletes    *obs.Counter // sstp_deletes_total
	annHot     *obs.Counter // sstp_announcements_total{queue="hot"}
	annCold    *obs.Counter // sstp_announcements_total{queue="cold"}
	txBits     *obs.Counter // sstp_tx_bits_total
	summaries  *obs.Counter // sstp_summaries_total
	heartbeats *obs.Counter // sstp_heartbeats_total
	digests    *obs.Counter // sstp_digests_total
	nacksRecv  *obs.Counter // sstp_nacks_received_total
	promotions *obs.Counter // sstp_promotions_total
	queries    *obs.Counter // sstp_queries_served_total
	reports    *obs.Counter // sstp_reports_heard_total
	allocOK    *obs.Counter // sstp_alloc_decisions_total{outcome="ok"}
	allocLim   *obs.Counter // sstp_alloc_decisions_total{outcome="rate_limited"}
	allocErr   *obs.Counter // sstp_alloc_decisions_total{outcome="error"}

	rate    *obs.Gauge // sstp_send_rate_bps
	loss    *obs.Gauge // sstp_loss_estimate
	live    *obs.Gauge // sstp_records_live
	pubRate *obs.EWMA  // sstp_publish_bps

	byClassSent []*obs.Counter // sstp_class_sent_total{class=...}
	byClassBits []*obs.Counter // sstp_class_bits_total{class=...}
}

func newSenderMetrics(reg *obs.Registry, classes []Class) senderMetrics {
	m := senderMetrics{
		publishes:  reg.Counter("sstp_publishes_total"),
		updates:    reg.Counter("sstp_updates_total"),
		deletes:    reg.Counter("sstp_deletes_total"),
		annHot:     reg.Counter("sstp_announcements_total", "queue", "hot"),
		annCold:    reg.Counter("sstp_announcements_total", "queue", "cold"),
		txBits:     reg.Counter("sstp_tx_bits_total"),
		summaries:  reg.Counter("sstp_summaries_total"),
		heartbeats: reg.Counter("sstp_heartbeats_total"),
		digests:    reg.Counter("sstp_digests_total"),
		nacksRecv:  reg.Counter("sstp_nacks_received_total"),
		promotions: reg.Counter("sstp_promotions_total"),
		queries:    reg.Counter("sstp_queries_served_total"),
		reports:    reg.Counter("sstp_reports_heard_total"),
		allocOK:    reg.Counter("sstp_alloc_decisions_total", "outcome", "ok"),
		allocLim:   reg.Counter("sstp_alloc_decisions_total", "outcome", "rate_limited"),
		allocErr:   reg.Counter("sstp_alloc_decisions_total", "outcome", "error"),
		rate:       reg.Gauge("sstp_send_rate_bps"),
		loss:       reg.Gauge("sstp_loss_estimate"),
		live:       reg.Gauge("sstp_records_live"),
		pubRate:    reg.Rate("sstp_publish_bps"),
	}
	for _, cl := range classes {
		m.byClassSent = append(m.byClassSent, reg.Counter("sstp_class_sent_total", "class", cl.Name))
		m.byClassBits = append(m.byClassBits, reg.Counter("sstp_class_bits_total", "class", cl.Name))
	}
	return m
}

// receiverMetrics are the subscriber-side series.
type receiverMetrics struct {
	deliveries  *obs.Counter // sstp_deliveries_total
	duplicates  *obs.Counter // sstp_duplicates_total
	rejected    *obs.Counter // sstp_rejected_total (key refused by the namespace)
	losses      *obs.Counter // sstp_losses_total (inferred from seq gaps)
	nacksSent   *obs.Counter // sstp_nacks_sent_total
	suppressed  *obs.Counter // sstp_nacks_suppressed_total
	queriesSent *obs.Counter // sstp_queries_sent_total
	reportsSent *obs.Counter // sstp_reports_sent_total
	expired     *obs.Counter // sstp_expirations_total
	peerData    *obs.Counter // sstp_repairs_total
	peerDigests *obs.Counter // sstp_peer_digests_total
	mismatches  *obs.Counter // sstp_summary_mismatches_total
	goodbyes    *obs.Counter // sstp_goodbyes_total

	replica *obs.Gauge // sstp_replica_records
	loss    *obs.Gauge // sstp_loss_estimate

	tRec *obs.Histogram // sstp_t_rec_seconds
	tvis *obs.Histogram // sstp_tvis_seconds (origin publish -> local delivery)

	// Windowed consistency gauges, refreshed from the staleness
	// estimator at sweep cadence (sstp_tvis_* / sstp_staleness_* /
	// sstp_consistency_*).
	tvisQ       [3]*obs.Gauge // sstp_tvis_window_seconds{q="p50"|"p95"|"p99"}
	staleQ      [4]*obs.Gauge // sstp_staleness_age_seconds{q="p50"|"p95"|"p99"|"max"}
	staleKeys   *obs.Gauge    // sstp_staleness_tracked_keys
	consistency *obs.Gauge    // sstp_consistency_estimate (windowed E[c(t)])
	consSamples *obs.Gauge    // sstp_consistency_samples
}

func newReceiverMetrics(reg *obs.Registry) receiverMetrics {
	return receiverMetrics{
		deliveries:  reg.Counter("sstp_deliveries_total"),
		duplicates:  reg.Counter("sstp_duplicates_total"),
		rejected:    reg.Counter("sstp_rejected_total"),
		losses:      reg.Counter("sstp_losses_total"),
		nacksSent:   reg.Counter("sstp_nacks_sent_total"),
		suppressed:  reg.Counter("sstp_nacks_suppressed_total"),
		queriesSent: reg.Counter("sstp_queries_sent_total"),
		reportsSent: reg.Counter("sstp_reports_sent_total"),
		expired:     reg.Counter("sstp_expirations_total"),
		peerData:    reg.Counter("sstp_repairs_total"),
		peerDigests: reg.Counter("sstp_peer_digests_total"),
		mismatches:  reg.Counter("sstp_summary_mismatches_total"),
		goodbyes:    reg.Counter("sstp_goodbyes_total"),
		replica:     reg.Gauge("sstp_replica_records"),
		loss:        reg.Gauge("sstp_loss_estimate"),
		tRec:        reg.Histogram("sstp_t_rec_seconds"),
		tvis:        reg.Histogram("sstp_tvis_seconds"),
		tvisQ: [3]*obs.Gauge{
			reg.Gauge("sstp_tvis_window_seconds", "q", "p50"),
			reg.Gauge("sstp_tvis_window_seconds", "q", "p95"),
			reg.Gauge("sstp_tvis_window_seconds", "q", "p99"),
		},
		staleQ: [4]*obs.Gauge{
			reg.Gauge("sstp_staleness_age_seconds", "q", "p50"),
			reg.Gauge("sstp_staleness_age_seconds", "q", "p95"),
			reg.Gauge("sstp_staleness_age_seconds", "q", "p99"),
			reg.Gauge("sstp_staleness_age_seconds", "q", "max"),
		},
		staleKeys:   reg.Gauge("sstp_staleness_tracked_keys"),
		consistency: reg.Gauge("sstp_consistency_estimate"),
		consSamples: reg.Gauge("sstp_consistency_samples"),
	}
}

// setConsistency publishes one estimator snapshot to the gauges.
func (m *receiverMetrics) setConsistency(s staleness.Snapshot) {
	m.tvisQ[0].Set(s.TVis.P50)
	m.tvisQ[1].Set(s.TVis.P95)
	m.tvisQ[2].Set(s.TVis.P99)
	m.staleQ[0].Set(s.Staleness.P50)
	m.staleQ[1].Set(s.Staleness.P95)
	m.staleQ[2].Set(s.Staleness.P99)
	m.staleQ[3].Set(s.Staleness.Max)
	m.staleKeys.Set(float64(s.TrackedKeys))
	m.consistency.Set(s.Consistency)
	m.consSamples.Set(float64(s.AgreementSamples))
}

// traceRecord appends to an optional event ring (nil-safe), stamping
// which protocol node the event happened at.
func traceRecord(r *trace.Ring, node string, k trace.Kind, key string) {
	if r != nil {
		r.RecordNode(nowSeconds(), k, key, node)
	}
}
