package transport_test

// The transport-equivalence gate: the same publish sequence, run over
// the mem, udp, and tcp transports, must converge every receiver to
// the same namespace root digest — and that digest must be identical
// across transports, because the protocol bytes (and therefore the
// record set, versions, and digest tree) are transport-invariant.
// External test package: it drives the real sstp stack over the
// transports, which the transport package itself cannot import.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"softstate/internal/namespace"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

const (
	eqRecords   = 64
	eqReceivers = 2
)

// fanout emulates multicast over unicast: every WriteTo is duplicated
// to each receiver destination.
type fanout struct {
	net.PacketConn
	dests []net.Addr
}

func (f *fanout) WriteTo(b []byte, _ net.Addr) (int, error) {
	var n int
	var err error
	for _, d := range f.dests {
		n, err = f.PacketConn.WriteTo(b, d)
	}
	return n, err
}

// runQuickProfile runs a quick profile (64 records, 2 receivers, 1s
// churn) over the given conns and returns the sender's
// converged root digest after asserting every receiver reached it.
func runQuickProfile(t *testing.T, name string, senderConn transport.Conn, rcvConns []transport.Conn, dest, feedback net.Addr) namespace.Digest {
	t.Helper()
	s, err := sstp.NewSender(sstp.SenderConfig{
		Session: 42, SenderID: 1,
		Conn: senderConn, Dest: dest,
		TotalRate:       1_000_000,
		SummaryInterval: 100 * time.Millisecond,
		TTL:             10 * time.Second,
		Seed:            1,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer s.Close()
	var rcvs []*sstp.Receiver
	for i, rc := range rcvConns {
		r, err := sstp.NewReceiver(sstp.ReceiverConfig{
			Session: 42, ReceiverID: uint64(100 + i),
			Conn: rc, FeedbackDest: feedback,
			NACKWindow: 50 * time.Millisecond,
			Seed:       int64(1 + i),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer r.Close()
		rcvs = append(rcvs, r)
	}
	value := []byte("equivalence-value-0123456789")
	for i := 0; i < eqRecords; i++ {
		if err := s.Publish(fmt.Sprintf("load/%03d/%d", i%32, i), value, 0); err != nil {
			t.Fatalf("%s: publish: %v", name, err)
		}
	}
	s.Start()
	for _, r := range rcvs {
		r.Start()
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		want := s.RootDigest()
		n := 0
		for _, r := range rcvs {
			if r.Len() == eqRecords && r.RootDigest() == want {
				n++
			}
		}
		if n == len(rcvs) {
			return want
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, r := range rcvs {
		t.Logf("%s: receiver %d: %d/%d records", name, i, r.Len(), eqRecords)
	}
	t.Fatalf("%s: receivers did not converge", name)
	return namespace.Digest{}
}

func TestTransportEquivalence(t *testing.T) {
	digests := make(map[string]namespace.Digest)

	// mem: the multicast group topology every bench uses.
	{
		nw := transport.NewMemNetwork(1)
		group := transport.MemAddr("group")
		sc := nw.Endpoint("sender")
		nw.Join(group, "sender")
		var rcs []transport.Conn
		for i := 0; i < eqReceivers; i++ {
			addr := transport.MemAddr(fmt.Sprintf("rcv%d", i))
			rcs = append(rcs, nw.Endpoint(addr))
			nw.Join(group, addr)
		}
		digests["mem"] = runQuickProfile(t, "mem", sc, rcs, group, group)
	}

	// udp and tcp: loopback unicast fan-out. The sender conn fans
	// announcements to every receiver; feedback goes to the sender's
	// own listen address.
	for _, scheme := range []string{"udp", "tcp"} {
		tr, err := transport.New(scheme, transport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("no %s in this environment: %v", scheme, err)
		}
		defer sc.Close()
		var rcs []transport.Conn
		var dests []net.Addr
		for i := 0; i < eqReceivers; i++ {
			rc, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Skipf("no %s in this environment: %v", scheme, err)
			}
			defer rc.Close()
			rcs = append(rcs, rc)
			d, err := tr.Resolve(rc.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			dests = append(dests, d)
		}
		feedback, err := tr.Resolve(sc.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		fan := &fanout{PacketConn: sc, dests: dests}
		digests[scheme] = runQuickProfile(t, scheme, fan, rcs, dests[0], feedback)
	}

	if digests["mem"] != digests["udp"] || digests["udp"] != digests["tcp"] {
		t.Fatalf("converged digests differ across transports: mem=%x udp=%x tcp=%x",
			digests["mem"], digests["udp"], digests["tcp"])
	}
}
