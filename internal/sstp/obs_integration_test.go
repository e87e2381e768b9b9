package sstp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"softstate/internal/obs"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

// TestObservabilityEndToEnd drives an instrumented sender/receiver
// pair over a lossy in-memory network and asserts the shared registry
// and event ring reflect the session: announcements split by queue,
// deliveries, reports, and a renderable Prometheus page. It then
// serves the receiver's admin endpoint on a loopback port and scrapes
// it over real HTTP the way a monitoring stack would: /metrics must
// carry the consistency gauges, /stats.json a non-empty consistency
// section, /trace node-stamped lifecycle events.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.New("test")
	// Deep enough that the cold cycle's TX events (~1k/s) cannot evict
	// the publish-time ARRIVE events before /trace is scraped.
	ring := trace.NewSafe(1 << 16)
	nw := transport.NewMemNetwork(42)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	nw.SetLoss("sender", "rcv", 0.2)
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       512_000,
		SummaryInterval: 80 * time.Millisecond,
		TTL:             5 * time.Second,
		Seed:            1,
		Obs:             reg,
		Trace:           ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2,
		Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		ReportInterval: 150 * time.Millisecond,
		NACKWindow:     30 * time.Millisecond,
		Seed:           2,
		Obs:            reg,
		Trace:          ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close() })
	s.Start()
	r.Start()

	keys := []string{"a/x", "a/y", "b/x", "b/y", "c/z"}
	for _, k := range keys {
		if err := s.Publish(k, []byte("v-"+k), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "convergence", func() bool { return converged(s, r) })
	waitFor(t, 5*time.Second, "a receiver report", func() bool {
		return reg.Get("sstp_reports_sent_total") > 0
	})

	if got := reg.Get("sstp_publishes_total"); got != float64(len(keys)) {
		t.Errorf("sstp_publishes_total = %v, want %d", got, len(keys))
	}
	if reg.Get("sstp_announcements_total", "queue", "hot") == 0 {
		t.Error("no hot announcements recorded")
	}
	if reg.Get("sstp_deliveries_total") != float64(len(keys)) {
		t.Errorf("sstp_deliveries_total = %v, want %d", reg.Get("sstp_deliveries_total"), len(keys))
	}
	if reg.Get("sstp_tx_bits_total") == 0 || reg.Get("sstp_records_live") != float64(len(keys)) {
		t.Errorf("tx_bits=%v records_live=%v", reg.Get("sstp_tx_bits_total"), reg.Get("sstp_records_live"))
	}
	// Sender and receiver agree on one namespace: the receiver's
	// replica gauge tracks the sender's live gauge.
	if reg.Get("sstp_replica_records") != float64(len(keys)) {
		t.Errorf("sstp_replica_records = %v", reg.Get("sstp_replica_records"))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		`sstp_announcements_total{queue="hot"}`,
		`sstp_announcements_total{queue="cold"}`,
		"# TYPE sstp_t_rec_seconds histogram",
		"sstp_deliveries_total 5",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("Prometheus page missing %q", want)
		}
	}

	if ring.Total() == 0 {
		t.Error("trace ring recorded no events")
	}
	deliveries := ring.Filter(func(ev trace.Event) bool { return ev.Kind == trace.Deliver })
	if len(deliveries) == 0 {
		t.Error("trace ring has no DELIVER events")
	}

	est := r.Consistency()
	waitFor(t, 5*time.Second, "a digest-agreement sample", func() bool {
		return est.Snapshot().AgreementSamples > 0
	})
	srv, addr, err := obs.ServeAdmin("127.0.0.1:0", reg, ring,
		obs.Section{Name: "consistency", Get: func() any { return est.Snapshot() }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, name := range []string{
		"sstp_consistency_estimate", "sstp_tvis_seconds",
		"sstp_staleness_age_seconds", "sstp_tvis_window_seconds",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	var stats struct {
		Consistency struct {
			TrackedKeys      int     `json:"tracked_keys"`
			Estimate         float64 `json:"consistency_estimate"`
			AgreementSamples uint64  `json:"agreement_samples"`
		} `json:"consistency"`
	}
	if err := json.Unmarshal([]byte(get("/stats.json")), &stats); err != nil {
		t.Fatalf("/stats.json: %v", err)
	}
	if c := stats.Consistency; c.TrackedKeys != len(keys) || c.AgreementSamples == 0 ||
		c.Estimate <= 0 || c.Estimate > 1 {
		t.Errorf("/stats.json consistency section = %+v, want %d tracked keys, agreement samples, an estimate in (0,1]",
			c, len(keys))
	}
	events := get("/trace?key=a/x")
	for _, kind := range []string{"ARRIVE", "TX", "DELIVER"} {
		if !strings.Contains(events, `"kind":"`+kind+`"`) {
			t.Errorf("/trace has no %s event for a/x", kind)
		}
	}
	if !strings.Contains(events, `"node":`) {
		t.Error("/trace events carry no node stamps")
	}
}
