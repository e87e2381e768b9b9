package fabric

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// isolationPhase is what one run of the isolation scenario measured.
type isolationPhase struct {
	converged int     // tenants whose replica matched their sender at the end
	othersP99 float64 // pooled exact p99 publish→delivery lag of tenants 1..n-1, seconds
}

const (
	isoTenants = 16
	isoRecords = 8       // per tenant
	isoRate    = 128_000 // per-tenant bits/s; the link fits isoTenants of these
	isoUpdates = 50      // value updates a second, dealt round-robin: ~3/s a tenant
	isoLoad    = 700 * time.Millisecond
)

// runIsolationPhase drives isoTenants sessions over one fabric on a
// 2%-lossy seeded network for isoLoad: round-robin value updates
// across every tenant, and — with burst > 1 — tenant 0 provisioned and
// publishing like burst tenants rolled into one, in a spike every
// 250 ms. The link fits the nominal aggregate, not the burst, so a
// burst phase contends for it. It then waits up to settle for every
// replica to match its sender.
func runIsolationPhase(t *testing.T, fifo bool, burst float64, settle time.Duration) isolationPhase {
	t.Helper()
	nw := transport.NewMemNetwork(1)
	nw.SetDefaultLoss(0.02)
	f, err := New(Config{
		Conn:     nw.Endpoint("fab"),
		LinkRate: isoTenants * isoRate,
		FIFO:     fifo,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var othersLag []float64
	senders := make([]*sstp.Sender, isoTenants)
	receivers := make([]*sstp.Receiver, isoTenants)
	key := func(tenant, k int) string { return fmt.Sprintf("t%d/key/%03d", tenant, k%isoRecords) }
	value := []byte("sixteen byte val")
	for i := range senders {
		session := uint64(1000 + i)
		rname := transport.MemAddr(fmt.Sprintf("r%d", i))
		rate := float64(isoRate)
		if i == 0 {
			rate *= burst
		}
		senders[i], err = f.AddSender(sstp.SenderConfig{
			Session: session, SenderID: 1, Dest: rname,
			TotalRate:       rate,
			SummaryInterval: 200 * time.Millisecond,
			TTL:             time.Minute,
			Seed:            int64(1 + i),
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sstp.ReceiverConfig{
			Session: session, ReceiverID: 2,
			Conn: nw.Endpoint(rname), FeedbackDest: transport.MemAddr("fab"),
			NACKWindow: 50 * time.Millisecond,
			Seed:       int64(10_001 + i),
		}
		if i > 0 {
			cfg.OnUpdate = func(_ string, _ []byte, _ uint64, born float64) {
				lag := float64(time.Now().UnixNano())/1e9 - born
				mu.Lock()
				othersLag = append(othersLag, lag)
				mu.Unlock()
			}
		}
		receivers[i], err = sstp.NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < isoRecords; k++ {
			if err := senders[i].Publish(key(i, k), value, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Start()
	for _, r := range receivers {
		r.Start()
	}
	defer func() {
		f.Close()
		var wg sync.WaitGroup
		for _, r := range receivers {
			wg.Add(1)
			go func(r *sstp.Receiver) {
				defer wg.Done()
				r.Close()
			}(r)
		}
		wg.Wait()
	}()

	// Each spike adds a quarter second of the updates the (burst-1)
	// extra tenants that tenant 0 stands in for would have made.
	tick := time.NewTicker(time.Second / isoUpdates)
	defer tick.Stop()
	spike := time.NewTicker(250 * time.Millisecond)
	defer spike.Stop()
	spikeBatch := int(0.25 * isoUpdates / isoTenants * (burst - 1))
	start := time.Now()
	for upd := 0; time.Since(start) < isoLoad; {
		select {
		case <-tick.C:
			i := upd % isoTenants
			if err := senders[i].Publish(key(i, upd), value, 0); err != nil {
				t.Fatal(err)
			}
			upd++
		case <-spike.C:
			for b := 0; b < spikeBatch; b++ {
				if err := senders[0].Publish(key(0, b), value, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var ph isolationPhase
	for deadline := time.Now().Add(settle); ; time.Sleep(10 * time.Millisecond) {
		ph.converged = 0
		for i := range senders {
			if senders[i].RootDigest() == receivers[i].RootDigest() {
				ph.converged++
			}
		}
		if ph.converged == isoTenants || time.Now().After(deadline) {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(othersLag) == 0 {
		t.Fatal("no deliveries at the non-bursty tenants")
	}
	sort.Float64s(othersLag)
	ph.othersP99 = othersLag[len(othersLag)*99/100]
	return ph
}

// TestBurstyTenantIsolation is the fabric's isolation gate (Rahman et
// al.'s per-key t-visibility, pooled over the well-behaved tenants):
// under fair queueing a 10x-bursty tenant must not move its
// neighbours' p99 beyond 2x the equal-load baseline, and every tenant
// must converge. The same burst under the FIFO baseline is the
// reference that shows the gate can fail: there the neighbours are
// starved.
func TestBurstyTenantIsolation(t *testing.T) {
	const (
		burst = 10
		floor = 0.25 // seconds; keeps a millisecond-scale baseline from flapping
	)
	equal := runIsolationPhase(t, false, 1, 10*time.Second)
	fq := runIsolationPhase(t, false, burst, 10*time.Second)
	// FIFO is expected to starve tenants past any deadline; wait only
	// as long as the comparison needs.
	fifo := runIsolationPhase(t, true, burst, 500*time.Millisecond)
	t.Logf("others' p99 t_vis: equal %.3fs, burst fq %.3fs, burst fifo %.3fs (%d/%d converged)",
		equal.othersP99, fq.othersP99, fifo.othersP99, fifo.converged, isoTenants)

	if equal.converged != isoTenants || fq.converged != isoTenants {
		t.Fatalf("fair queueing left tenants unconverged: %d/%d at equal load, %d/%d under burst",
			equal.converged, isoTenants, fq.converged, isoTenants)
	}
	if fq.othersP99 > 2*equal.othersP99+floor {
		t.Errorf("burst moved the neighbours' p99 to %.3fs from %.3fs (> 2x + %.2fs floor)",
			fq.othersP99, equal.othersP99, floor)
	}
	if fifo.converged == isoTenants && fifo.othersP99 <= 2*fq.othersP99 {
		t.Errorf("FIFO reference shows no starvation (all converged, p99 %.3fs vs %.3fs under FQ): the scenario no longer contends for the link",
			fifo.othersP99, fq.othersP99)
	}
}
