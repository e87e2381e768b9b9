package sstp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"softstate/internal/staleness"
	"softstate/internal/transport"
)

// TestConsistencyLossRegimeChange is the online-estimator acceptance
// test: a publisher churns values through a memconn link while the
// receiver's digest-agreement estimator runs over a short decay
// window. Mid-run the link switches from lossless to heavily lossy —
// the windowed E[c(t)] must fall — and then heals, after which the
// estimate must re-converge toward 1. Run under -race: the churn
// goroutine, the receiver's loops, and the test's snapshot polling all
// touch the shared estimator concurrently.
func TestConsistencyLossRegimeChange(t *testing.T) {
	const records = 32

	nw := transport.NewMemNetwork(7)
	pc := nw.Endpoint("pub")
	nw.Join("grp", "pub")
	rc := nw.Endpoint("rcv")
	nw.Join("grp", "rcv")

	pub, err := NewSender(SenderConfig{
		Session: 3, SenderID: 1, Conn: pc, Dest: transport.MemAddr("grp"),
		TotalRate: 2_000_000, SummaryInterval: 50 * time.Millisecond,
		TTL: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := staleness.NewEstimator(2 * time.Second)
	rcv, err := NewReceiver(ReceiverConfig{
		Session: 3, ReceiverID: 100, Conn: rc,
		FeedbackDest: transport.MemAddr("grp"),
		NACKWindow:   30 * time.Millisecond,
		Consistency:  est,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub.Start()
	rcv.Start()
	defer func() {
		rcv.Close()
		pub.Close()
	}()

	for i := 0; i < records; i++ {
		if err := pub.Publish(fmt.Sprintf("c/%d", i), []byte("v0"), 0); err != nil {
			t.Fatal(err)
		}
	}

	// Churn one value every 20 ms until the test ends, so a lossy link
	// keeps the replica genuinely behind the live set.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = pub.Publish(fmt.Sprintf("c/%d", i%records), []byte(fmt.Sprintf("v%d", i)), 0)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	waitEstimate := func(phase string, d time.Duration, ok func(staleness.Snapshot) bool) staleness.Snapshot {
		t.Helper()
		deadline := time.Now().Add(d)
		var s staleness.Snapshot
		for time.Now().Before(deadline) {
			s = est.Snapshot()
			if ok(s) {
				return s
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("%s: estimator stuck at E[c(t)]=%.3f (%d samples, %d keys)",
			phase, s.Consistency, s.AgreementSamples, s.TrackedKeys)
		return s
	}

	// Phase 1 — lossless: the windowed estimate must reach ~1 with a
	// meaningful sample base (churn makes transient disagreement
	// possible, so demand 0.9, not exactly 1).
	waitEstimate("lossless warm-up", 15*time.Second, func(s staleness.Snapshot) bool {
		return s.AgreementSamples >= 10 && s.Consistency >= 0.9
	})

	// Phase 2 — regime change: drop 60% of datagrams in both
	// directions. Lost Data keeps the replica stale, so the publisher
	// summaries that do get through mostly disagree; the 2 s window
	// must let the estimate fall well below the warm-up level.
	nw.SetDefaultLoss(0.6)
	waitEstimate("lossy regime", 20*time.Second, func(s staleness.Snapshot) bool {
		return s.Consistency <= 0.6
	})

	// Phase 3 — heal: estimate must climb back as old disagreement
	// samples decay out of the window and repair catches the replica
	// up with the ongoing churn.
	nw.SetDefaultLoss(0)
	waitEstimate("re-convergence", 20*time.Second, func(s staleness.Snapshot) bool {
		return s.Consistency >= 0.9
	})
}
