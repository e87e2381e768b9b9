package transport

import (
	"testing"
	"time"
)

// TestMemConnCountsInboxOverflow fills an endpoint nobody reads past
// its inbox depth: every datagram beyond the depth must be counted, on
// the endpoint and on the network, and the queued ones stay readable.
func TestMemConnCountsInboxOverflow(t *testing.T) {
	const extra = 37
	nw := NewMemNetwork(1)
	src := nw.Endpoint("src")
	full := nw.Endpoint("full")
	other := nw.Endpoint("other")
	for i := 0; i < memInboxSlots+extra; i++ {
		if _, err := src.WriteTo([]byte("x"), MemAddr("full")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.WriteTo([]byte("y"), MemAddr("other")); err != nil {
		t.Fatal(err)
	}
	if got := full.Overflows(); got != extra {
		t.Errorf("full.Overflows() = %d, want %d", got, extra)
	}
	if got := other.Overflows(); got != 0 {
		t.Errorf("other.Overflows() = %d, want 0", got)
	}
	if got := nw.Overflows(); got != extra {
		t.Errorf("network Overflows() = %d, want %d", got, extra)
	}
	// The inbox itself still holds exactly its depth.
	buf := make([]byte, 8)
	for i := 0; i < memInboxSlots; i++ {
		_ = full.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := full.ReadFrom(buf); err != nil {
			t.Fatalf("read %d of %d queued datagrams: %v", i, memInboxSlots, err)
		}
	}
	_ = full.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if _, _, err := full.ReadFrom(buf); err == nil {
		t.Error("inbox held more than its depth")
	}
}
