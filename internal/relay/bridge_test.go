package relay

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
	"softstate/internal/xrand"
)

// lossyConn drops a seeded Bernoulli fraction of WriteTo datagrams
// before they reach the wire — injected loss for a loopback socket,
// which never drops on its own. The sender sees a successful send,
// exactly as when a router drops in flight.
type lossyConn struct {
	net.PacketConn
	p float64

	mu  sync.Mutex // the sender's send and receive loops both write
	rnd *xrand.Rand
}

func (l *lossyConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	l.mu.Lock()
	drop := l.rnd.Bernoulli(l.p)
	l.mu.Unlock()
	if drop {
		return len(b), nil
	}
	return l.PacketConn.WriteTo(b, addr)
}

// TestRelayBridgesUDPToTCP pins the relay as a transport bridge over
// real sockets: publisher --udp, 5% loss--> relay --framed tcp--> leaf.
// The repair machinery covers the lossy datagram leg, the stream
// framing carries the same protocol datagrams with their boundaries
// intact, and the leaf ends byte-identical to the publisher. (The
// verified-TLS half of the old transport smoke is
// transport.TestTLSStreamVerified.)
func TestRelayBridgesUDPToTCP(t *testing.T) {
	const records = 64
	listen := func(tr transport.Transport) transport.Conn {
		c, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	tcp, err := transport.New("tcp", transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pubConn, upConn := listen(transport.UDP{}), listen(transport.UDP{})
	dnConn, leafConn := listen(tcp), listen(tcp)
	leafAddr, err := tcp.Resolve(leafConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	dnAddr, err := tcp.Resolve(dnConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}

	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 9, SenderID: 1,
		Conn:      &lossyConn{PacketConn: pubConn, p: 0.05, rnd: xrand.New(7)},
		Dest:      upConn.LocalAddr(),
		TotalRate: 1_000_000, SummaryInterval: 100 * time.Millisecond,
		TTL: 30 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	r, err := New(Config{
		Session: 9, RelayID: 100,
		UpstreamConn: upConn, UpstreamFeedback: pubConn.LocalAddr(),
		Downstreams:     []Downstream{{Conn: dnConn, Dest: leafAddr, Rate: 1_000_000}},
		SummaryInterval: 100 * time.Millisecond,
		NACKWindow:      30 * time.Millisecond,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	leaf, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 9, ReceiverID: 1000, Conn: leafConn,
		FeedbackDest: dnAddr,
		NACKWindow:   30 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	pub.Start()
	r.Start()
	leaf.Start()
	for i := 0; i < records; i++ {
		if err := pub.Publish(fmt.Sprintf("bridge/%02d", i), []byte("datacenter-to-wan"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "relay and leaf to match the publisher's digest", func() bool {
		want := pub.RootDigest()
		return r.Len() == records && r.RootDigest() == want &&
			leaf.Len() == records && leaf.RootDigest() == want
	})
}
