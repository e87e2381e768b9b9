package sstp

import (
	"testing"
	"time"

	"softstate/internal/transport"
)

func TestMemNetworkLeave(t *testing.T) {
	nw := transport.NewMemNetwork(81)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	nw.Join("g", "a")
	nw.Join("g", "b")
	nw.Leave("g", "b")
	a.WriteTo([]byte("x"), transport.MemAddr("g"))
	buf := make([]byte, 8)
	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Fatal("left member still received group traffic")
	}
	// Leaving a group you never joined is a no-op.
	nw.Leave("nonexistent", "a")
}

func TestMemNetworkDelay(t *testing.T) {
	nw := transport.NewMemNetwork(82)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	nw.SetDelay("a", "b", 120*time.Millisecond)
	start := time.Now()
	a.WriteTo([]byte("x"), transport.MemAddr("b"))
	buf := make([]byte, 8)
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ 120ms", elapsed)
	}
}

// TestMemNetworkPerLinkLatencyOrdering models two links with distinct
// propagation delays and checks that one multicast write reaches the
// near member before the far member — the property relay-tree tests
// lean on to assert per-hop latency ordering.
func TestMemNetworkPerLinkLatencyOrdering(t *testing.T) {
	nw := transport.NewMemNetwork(87)
	src := nw.Endpoint("src")
	near := nw.Endpoint("near")
	far := nw.Endpoint("far")
	nw.Join("g", "near")
	nw.Join("g", "far")
	nw.SetDelay("src", "near", 5*time.Millisecond)
	nw.SetDelay("src", "far", 60*time.Millisecond)

	start := time.Now()
	src.WriteTo([]byte("x"), transport.MemAddr("g"))
	buf := make([]byte, 8)
	_ = near.SetReadDeadline(start.Add(time.Second))
	if _, _, err := near.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	nearAt := time.Since(start)
	_ = far.SetReadDeadline(start.Add(time.Second))
	if _, _, err := far.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	farAt := time.Since(start)
	if nearAt >= farAt {
		t.Errorf("near arrived at %v, far at %v: per-hop ordering violated", nearAt, farAt)
	}
	if farAt < 50*time.Millisecond {
		t.Errorf("far arrived after %v, want ≥ 60ms propagation", farAt)
	}
}

// TestMemNetworkJitterDeterministic pins the jitter contract: the
// extra delay is bounded by the configured jitter, and two networks
// built from the same seed delay the same packet sequence identically
// (jitter draws come from the shared seeded RNG).
func TestMemNetworkJitterDeterministic(t *testing.T) {
	deliverTimes := func(seed int64) []time.Duration {
		nw := transport.NewMemNetwork(seed)
		a := nw.Endpoint("a")
		b := nw.Endpoint("b")
		nw.SetDelay("a", "b", 10*time.Millisecond)
		nw.SetJitter("a", "b", 40*time.Millisecond)
		var out []time.Duration
		buf := make([]byte, 8)
		for i := 0; i < 5; i++ {
			start := time.Now()
			a.WriteTo([]byte{byte(i)}, transport.MemAddr("b"))
			_ = b.SetReadDeadline(start.Add(time.Second))
			if _, _, err := b.ReadFrom(buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, time.Since(start))
		}
		return out
	}
	got := deliverTimes(91)
	again := deliverTimes(91)
	for i, d := range got {
		if d < 10*time.Millisecond {
			t.Errorf("packet %d delivered after %v, below the 10ms base delay", i, d)
		}
		if d > 120*time.Millisecond {
			t.Errorf("packet %d delivered after %v, far beyond base+jitter", i, d)
		}
		// Scheduling noise makes exact equality impossible; same-seed
		// runs must agree to well under the jitter bound.
		if diff := (d - again[i]); diff < -25*time.Millisecond || diff > 25*time.Millisecond {
			t.Errorf("packet %d: seed-91 runs delivered at %v vs %v", i, d, again[i])
		}
	}
}

func TestMemNetworkDefaultLoss(t *testing.T) {
	nw := transport.NewMemNetwork(83)
	nw.SetDefaultLoss(1)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	a.WriteTo([]byte("x"), transport.MemAddr("b"))
	buf := make([]byte, 8)
	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Fatal("default loss 1 still delivered")
	}
	// A per-path override beats the default.
	nw.SetLoss("a", "b", 0)
	a.WriteTo([]byte("y"), transport.MemAddr("b"))
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Fatalf("override did not apply: %v", err)
	}
}

func TestMemNetworkLossValidation(t *testing.T) {
	nw := transport.NewMemNetwork(84)
	defer func() {
		if recover() == nil {
			t.Fatal("loss > 1 accepted")
		}
	}()
	nw.SetLoss("a", "b", 1.5)
}
