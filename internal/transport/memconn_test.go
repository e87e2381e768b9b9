package transport_test

import (
	"net"
	"testing"
	"time"

	"softstate/internal/transport"
)

func TestMemNetworkBasics(t *testing.T) {
	nw := transport.NewMemNetwork(3)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	if _, err := a.WriteTo([]byte("hello"), transport.MemAddr("b")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	n, from, err := b.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "hello" || from.String() != "a" {
		t.Fatalf("ReadFrom = (%q, %v, %v)", buf[:n], from, err)
	}
	// Deadline expiry produces a timeout error.
	_ = b.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Fatal("expected timeout")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("err %v is not a timeout", err)
	}
}

func TestMemConnClosed(t *testing.T) {
	nw := transport.NewMemNetwork(6)
	a := nw.Endpoint("a")
	a.Close()
	if _, err := a.WriteTo([]byte("x"), transport.MemAddr("b")); err == nil {
		t.Fatal("write on closed conn succeeded")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

func TestMemConnReadAfterClose(t *testing.T) {
	nw := transport.NewMemNetwork(85)
	a := nw.Endpoint("a")
	a.Close()
	buf := make([]byte, 8)
	if _, _, err := a.ReadFrom(buf); err == nil {
		t.Fatal("read on closed conn succeeded")
	}
	// Endpoint() after close returns a fresh conn under the same name.
	a2 := nw.Endpoint("a")
	if a2 == a {
		t.Fatal("closed endpoint reused")
	}
	nw.Endpoint("b").WriteTo([]byte("x"), transport.MemAddr("a"))
	_ = a2.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := a2.ReadFrom(buf); err != nil {
		t.Fatalf("fresh endpoint not reachable: %v", err)
	}
}

func TestMemConnTruncatingRead(t *testing.T) {
	nw := transport.NewMemNetwork(86)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	a.WriteTo([]byte("0123456789"), transport.MemAddr("b"))
	small := make([]byte, 4)
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := b.ReadFrom(small)
	if err != nil || n != 4 || string(small) != "0123" {
		t.Fatalf("truncating read = (%d, %q, %v)", n, small, err)
	}
}

func TestMemNetworkGroups(t *testing.T) {
	nw := transport.NewMemNetwork(4)
	s := nw.Endpoint("s")
	r1 := nw.Endpoint("r1")
	r2 := nw.Endpoint("r2")
	nw.Join("g", "s")
	nw.Join("g", "r1")
	nw.Join("g", "r2")
	if _, err := s.WriteTo([]byte("x"), transport.MemAddr("g")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*transport.MemConn{r1, r2} {
		buf := make([]byte, 8)
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := c.ReadFrom(buf); err != nil {
			t.Fatalf("group member did not receive: %v", err)
		}
	}
	// The writer must not hear its own group traffic.
	buf := make([]byte, 8)
	_ = s.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := s.ReadFrom(buf); err == nil {
		t.Fatal("sender heard its own multicast")
	}
}

func TestMemNetworkLoss(t *testing.T) {
	nw := transport.NewMemNetwork(5)
	a := nw.Endpoint("a")
	b := nw.Endpoint("b")
	nw.SetLoss("a", "b", 1)
	a.WriteTo([]byte("x"), transport.MemAddr("b"))
	buf := make([]byte, 8)
	_ = b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Fatal("p=1 path delivered")
	}
	if _, err := a.WriteTo([]byte("x"), strAddr("foreign")); err == nil {
		t.Fatal("foreign addr type accepted")
	}
}

type strAddr string

func (s strAddr) Network() string { return "str" }
func (s strAddr) String() string  { return string(s) }
