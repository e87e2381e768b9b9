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
