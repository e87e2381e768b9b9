package sstp

import (
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/transport"
)

// TestGoodbyeFlushOptIn pins the two Goodbye behaviours side by side:
// a FlushOnGoodbye receiver drops its whole replica the moment the
// publisher leaves (firing OnExpire per key and OnGoodbye after), while
// a default receiver keeps its soft state and lets it age out by TTL.
func TestGoodbyeFlushOptIn(t *testing.T) {
	nw := transport.NewMemNetwork(71)
	sc := nw.Endpoint("sender")
	nw.Join("g", "sender")
	fc := nw.Endpoint("flush")
	nw.Join("g", "flush")
	kc := nw.Endpoint("keep")
	nw.Join("g", "keep")

	s, err := NewSender(SenderConfig{
		Session: 3, SenderID: 1, Conn: sc, Dest: transport.MemAddr("g"),
		TotalRate: 512_000, SummaryInterval: 50 * time.Millisecond,
		TTL: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var expired, saidGoodbye atomic.Int32
	flush, err := NewReceiver(ReceiverConfig{
		Session: 3, ReceiverID: 2, Conn: fc, FeedbackDest: transport.MemAddr("g"),
		NACKWindow: 30 * time.Millisecond, Seed: 2,
		FlushOnGoodbye: true,
		OnExpire:       func(string) { expired.Add(1) },
		OnGoodbye:      func() { saidGoodbye.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flush.Close()
	keep, err := NewReceiver(ReceiverConfig{
		Session: 3, ReceiverID: 4, Conn: kc, FeedbackDest: transport.MemAddr("g"),
		NACKWindow: 30 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer keep.Close()

	s.Start()
	flush.Start()
	keep.Start()
	for _, k := range []string{"a/1", "a/2", "b/1"} {
		if err := s.Publish(k, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "both replicas populated", func() bool {
		return flush.Len() == 3 && keep.Len() == 3
	})

	s.Close() // sends the Goodbye
	waitFor(t, 5*time.Second, "flush receiver emptied", func() bool {
		return flush.Len() == 0
	})
	waitFor(t, 5*time.Second, "flush callbacks delivered", func() bool {
		return expired.Load() == 3 && saidGoodbye.Load() == 1
	})
	if st := flush.Stats(); st.GoodbyesHeard != 1 || st.Expired != 3 {
		t.Errorf("flush stats = %+v, want 1 goodbye / 3 expired", st)
	}
	// The default receiver heard the same Goodbye but keeps its state:
	// soft-state decay, not an explicit teardown, empties it.
	if keep.Len() != 3 {
		t.Errorf("default receiver flushed on Goodbye: len = %d", keep.Len())
	}
	if st := keep.Stats(); st.GoodbyesHeard != 1 {
		t.Errorf("default receiver GoodbyesHeard = %d, want 1", st.GoodbyesHeard)
	}
}

// TestSenderGoodbyeKeepsRunning pins Sender.Goodbye as non-terminal:
// it flushes the table and announces the departure, but the sender can
// publish again afterwards and receivers re-learn it.
func TestSenderGoodbyeKeepsRunning(t *testing.T) {
	nw := transport.NewMemNetwork(72)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	s, err := NewSender(SenderConfig{
		Session: 3, SenderID: 1, Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate: 512_000, SummaryInterval: 50 * time.Millisecond,
		TTL: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := NewReceiver(ReceiverConfig{
		Session: 3, ReceiverID: 2, Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		NACKWindow: 30 * time.Millisecond, Seed: 2,
		FlushOnGoodbye: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s.Start()
	r.Start()

	if err := s.Publish("gen/1", []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "first generation delivered", func() bool {
		_, ok := r.Get("gen/1")
		return ok
	})
	s.Goodbye()
	if s.Len() != 0 {
		t.Fatalf("sender table not flushed: %d records", s.Len())
	}
	waitFor(t, 5*time.Second, "replica flushed", func() bool { return r.Len() == 0 })

	// Second generation after the Goodbye: the same sender publishes
	// fresh state and the receiver converges on it again.
	if err := s.Publish("gen/2", []byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "second generation delivered", func() bool {
		v, ok := r.Get("gen/2")
		return ok && string(v) == "new"
	})
	if _, ok := r.Get("gen/1"); ok {
		t.Error("flushed key survived into the next generation")
	}
}
