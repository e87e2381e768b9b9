package relay

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/obs"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// TestRelayLinkMetrics runs a lossy publisher→relay→leaf chain with an
// observed relay and checks the per-downstream-link series populate:
// the AIMD rate gauge mirrors the link sender, repair requests are
// counted when the lossy leaf NACKs, and tombstone/goodbye counters
// tick when the publisher deletes a record and leaves the session.
func TestRelayLinkMetrics(t *testing.T) {
	nw := transport.NewMemNetwork(1021)
	reg := obs.New("relaylink")

	pc := nw.Endpoint("pub")
	nw.Join("grp/root", "pub")
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 11, SenderID: 1, Conn: pc, Dest: transport.MemAddr("grp/root"),
		TotalRate: 128_000, SummaryInterval: 50 * time.Millisecond,
		TTL: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	up := nw.Endpoint("up/0")
	nw.Join("grp/root", "up/0")
	dn := nw.Endpoint("dn/0")
	nw.Join("grp/0", "dn/0")
	r, err := New(Config{
		Session: 11, RelayID: 100,
		UpstreamConn: up, UpstreamFeedback: transport.MemAddr("grp/root"),
		Downstreams: []Downstream{{
			Conn: dn, Dest: transport.MemAddr("grp/0"), Rate: 128_000,
		}},
		TTL: 60 * time.Second, SummaryInterval: 50 * time.Millisecond,
		NACKWindow: 30 * time.Millisecond,
		Obs:        reg,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}

	lc := nw.Endpoint("leaf/0")
	nw.Join("grp/0", "leaf/0")
	leaf, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 11, ReceiverID: 10_000, Conn: lc,
		FeedbackDest: transport.MemAddr("grp/0"),
		NACKWindow:   30 * time.Millisecond,
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Loss confined to the leaf's last hop makes the leaf repair
	// through the relay's downstream sender, driving the link's repair
	// counters.
	nw.SetLoss("dn/0", "leaf/0", 0.30)

	pub.Start()
	r.Start()
	leaf.Start()
	defer func() {
		leaf.Close()
		r.Close()
		pub.Close()
	}()

	const n = 30
	for i := 0; i < n; i++ {
		if err := pub.Publish(fmt.Sprintf("topic/%d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "leaf to converge through the relay", func() bool {
		return leaf.Len() == n && leaf.RootDigest() == pub.RootDigest()
	})

	pub.Delete("topic/0")
	pub.Goodbye()
	waitFor(t, 10*time.Second, "per-link tombstone and goodbye counters", func() bool {
		return reg.Get("relay_link_tombstones_total", "link", "0") >= 1 &&
			reg.Get("relay_link_goodbyes_total", "link", "0") >= 1
	})
	// The 1 s obsLoop must have synced the link gauges from the link
	// sender at least once by now. Under last-hop loss the leaf repairs
	// through digest mismatch → Query, so repairs-served is the counter
	// that must tick (NACKs only fire on observed sequence gaps).
	waitFor(t, 10*time.Second, "link rate gauge and repair counter sync", func() bool {
		return reg.Get("relay_link_rate_bps", "link", "0") > 0 &&
			reg.Get("relay_link_repairs_served_total", "link", "0") >= 1
	})
}
