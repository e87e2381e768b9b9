//go:build !race

package transport

import (
	"net"
	"testing"
	"time"
)

// TestInboxSteadyStateAllocFree delivers and reads one datagram at a
// time with a read deadline set: pooled packets make the round trip
// allocation-free once the pool is warm. (The race runtime drops pool
// entries at random, so this runs only without it.)
func TestInboxSteadyStateAllocFree(t *testing.T) {
	q := NewInbox(16, nil)
	msg := make([]byte, 1300)
	buf := make([]byte, 2048)
	var from net.Addr = MemAddr("a") // boxed once, as MemNetwork does
	allocs := testing.AllocsPerRun(1000, func() {
		_ = q.SetReadDeadline(time.Now().Add(time.Second))
		q.Deliver(msg, from)
		if _, _, err := q.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per deliver+read, want 0", allocs)
	}
}
