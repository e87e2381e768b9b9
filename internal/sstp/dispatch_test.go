package sstp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/transport"
)

// TestCallbackDispatcherOrdering hammers the receiver with rapid
// version updates, short-lived records, and deletions, and checks the
// dispatcher contract: per key, OnUpdate versions arrive strictly
// increasing, an OnExpire is never followed by a stale update for a
// version the expiry superseded, and no callback of any kind starts
// after Close returns. Run under -race this also exercises the
// queue-swap path against the dispatch/sweep/timer goroutines.
func TestCallbackDispatcherOrdering(t *testing.T) {
	nw := transport.NewMemNetwork(61)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")

	type event struct {
		expire  bool
		key     string
		version uint64
	}
	var (
		mu     sync.Mutex
		events []event
		closed atomic.Bool
	)
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       2_000_000,
		SummaryInterval: 40 * time.Millisecond,
		TTL:             250 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2,
		Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		ReportInterval: 100 * time.Millisecond,
		NACKWindow:     20 * time.Millisecond,
		Seed:           2,
		OnUpdate: func(key string, value []byte, version uint64, _ float64) {
			if closed.Load() {
				t.Error("OnUpdate after Close returned")
			}
			mu.Lock()
			events = append(events, event{key: key, version: version})
			mu.Unlock()
		},
		OnExpire: func(key string) {
			if closed.Load() {
				t.Error("OnExpire after Close returned")
			}
			mu.Lock()
			events = append(events, event{expire: true, key: key})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	r.Start()

	// Churn: updates racing refreshes, deletions racing expirations.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		key := fmt.Sprintf("k%d", i%8)
		s.Publish(key, []byte(fmt.Sprintf("v%d", i)), 0)
		if i%5 == 4 {
			s.Delete(key)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, 3*time.Second, "some callbacks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 50
	})

	s.Close()
	r.Close()
	closed.Store(true)
	// The dispatcher is part of Close's waitgroup: anything still
	// running would have fired before Close returned. Give a grace
	// period so a stray goroutine (the bug this replaces) would trip
	// the closed check above.
	time.Sleep(100 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	last := make(map[string]uint64)
	for i, ev := range events {
		if ev.expire {
			delete(last, ev.key)
			continue
		}
		if prev, ok := last[ev.key]; ok && ev.version <= prev {
			t.Fatalf("event %d: key %s version %d not after %d (out-of-order dispatch)",
				i, ev.key, ev.version, prev)
		}
		last[ev.key] = ev.version
	}
	if len(events) == 0 {
		t.Fatal("no callbacks observed")
	}
}

// TestCallbackAfterCloseExpiry arms many near-simultaneous expirations
// and closes the receiver mid-storm: expirations queued but not yet
// dispatched must be dropped, not delivered after Close.
func TestCallbackAfterCloseExpiry(t *testing.T) {
	nw := transport.NewMemNetwork(62)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	var closed atomic.Bool
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2,
		Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		Seed: 2,
		OnExpire: func(key string) {
			if closed.Load() {
				t.Error("OnExpire after Close returned")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       2_000_000,
		SummaryInterval: 40 * time.Millisecond,
		TTL:             300 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	r.Start()
	for i := 0; i < 64; i++ {
		s.Publish(fmt.Sprintf("e%d", i), []byte("x"), 0)
	}
	waitFor(t, 3*time.Second, "replica populated", func() bool { return r.Len() > 16 })
	s.Close() // stop refreshes; everything expires at once ~TTL later
	time.Sleep(350 * time.Millisecond)
	r.Close()
	closed.Store(true)
	time.Sleep(100 * time.Millisecond)
}
