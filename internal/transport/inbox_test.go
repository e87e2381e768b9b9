package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestInboxOverflowsAtSlotCount fills an unread inbox: the datagram
// after the last slot is the first one dropped, and it is counted on
// the inbox and on the shared total.
func TestInboxOverflowsAtSlotCount(t *testing.T) {
	const slots = 8
	var total atomic.Uint64
	q := NewInbox(slots, &total)
	for i := 0; i < slots; i++ {
		if q.Deliver([]byte{byte(i)}, MemAddr("a")) {
			t.Fatalf("datagram %d of %d overflowed", i+1, slots)
		}
	}
	if !q.Deliver([]byte("x"), MemAddr("a")) {
		t.Fatal("datagram past the slot count was queued")
	}
	if q.Overflows() != 1 || total.Load() != 1 {
		t.Fatalf("overflows = %d, total = %d, want 1/1", q.Overflows(), total.Load())
	}
	buf := make([]byte, 4)
	for i := 0; i < slots; i++ {
		n, from, err := q.ReadFrom(buf)
		if err != nil || n != 1 || buf[0] != byte(i) || from != MemAddr("a") {
			t.Fatalf("read %d = (%d, %v, %v), want datagram %d from a", i, n, from, err, i)
		}
	}
}

// TestInboxTruncatesSilently reads a datagram into a short buffer: it
// fills the buffer and reports no error, as a datagram socket does.
func TestInboxTruncatesSilently(t *testing.T) {
	q := NewInbox(4, nil)
	q.Deliver([]byte("0123456789"), MemAddr("a"))
	small := make([]byte, 4)
	n, _, err := q.ReadFrom(small)
	if err != nil || n != 4 || string(small) != "0123" {
		t.Fatalf("truncating read = (%d, %q, %v)", n, small, err)
	}
}

// TestInboxCloseWakesBlockedReader parks a reader with no deadline on
// an empty inbox; Close must wake it with net.ErrClosed, and later
// deliveries are dropped uncounted.
func TestInboxCloseWakesBlockedReader(t *testing.T) {
	q := NewInbox(4, nil)
	errc := make(chan error, 1)
	go func() {
		_, _, err := q.ReadFrom(make([]byte, 8))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("blocked reader woke with %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the blocked reader")
	}
	if q.Deliver([]byte("x"), MemAddr("a")) || q.Overflows() != 0 {
		t.Fatal("delivery to a closed inbox counted as overflow")
	}
	if err := q.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

// TestInboxPastDeadlineWakesReaders parks two readers on an empty
// inbox, one with no deadline and one under a 1 h deadline, then sets
// a deadline of now: both return a timeout within 10 ms, as socket
// readers do, and a later read under a future deadline still gets the
// next datagram.
func TestInboxPastDeadlineWakesReaders(t *testing.T) {
	q := NewInbox(4, nil)
	type result struct {
		err error
		at  time.Time
	}
	res := make(chan result, 2)
	read := func() {
		_, _, err := q.ReadFrom(make([]byte, 8))
		res <- result{err, time.Now()}
	}
	go read() // blocked with no deadline
	time.Sleep(20 * time.Millisecond)
	_ = q.SetReadDeadline(time.Now().Add(time.Hour))
	go read() // blocked under the 1 h deadline
	time.Sleep(20 * time.Millisecond)
	woke := time.Now()
	_ = q.SetReadDeadline(woke)
	for i := 0; i < 2; i++ {
		select {
		case r := <-res:
			var ne net.Error
			if !errors.As(r.err, &ne) || !ne.Timeout() {
				t.Fatalf("woken reader returned %v, want a timeout", r.err)
			}
			if lag := r.at.Sub(woke); lag > 10*time.Millisecond {
				t.Errorf("reader woke %v after the past deadline, want < 10ms", lag)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a past deadline did not wake a blocked reader")
		}
	}
	_ = q.SetReadDeadline(time.Now().Add(time.Second))
	q.Deliver([]byte("x"), MemAddr("a"))
	buf := make([]byte, 8)
	if n, _, err := q.ReadFrom(buf); err != nil || n != 1 || buf[0] != 'x' {
		t.Fatalf("read after the wake = (%d, %v), want the queued datagram", n, err)
	}
}

// TestInboxConcurrentDeadlineReaders runs four readers with short
// deadlines against one writer: every datagram is read exactly once,
// and the readers' pooled timers never cross.
func TestInboxConcurrentDeadlineReaders(t *testing.T) {
	const n = 2000
	q := NewInbox(n, nil)
	seen := make([]atomic.Int32, n)
	var got atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4)
			for got.Load() < n {
				_ = q.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
				k, _, err := q.ReadFrom(buf)
				if err != nil {
					var ne net.Error
					if !errors.As(err, &ne) || !ne.Timeout() {
						t.Errorf("read: %v", err)
						return
					}
					continue
				}
				if k != 2 {
					t.Errorf("read %d B, want 2", k)
					return
				}
				seen[int(buf[0])<<8|int(buf[1])].Add(1)
				got.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		q.Deliver([]byte{byte(i >> 8), byte(i)}, MemAddr("w"))
		if i%100 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("datagram %d read %d times", i, c)
		}
	}
}

// BenchmarkMemConnRoundTrip is one 1,300 B datagram through a
// MemNetwork: WriteTo routes and queues it, ReadFrom (with a read
// deadline set, as the sstp read loops run) takes it back out.
func BenchmarkMemConnRoundTrip(b *testing.B) {
	nw := NewMemNetwork(1)
	a := nw.Endpoint("a")
	c := nw.Endpoint("b")
	msg := make([]byte, 1300)
	buf := make([]byte, 64<<10)
	var to net.Addr = MemAddr("b") // boxed once, as callers hold it
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.WriteTo(msg, to); err != nil {
			b.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := c.ReadFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}
