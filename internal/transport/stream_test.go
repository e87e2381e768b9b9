package transport

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"testing"
	"time"
)

func listenStream(t *testing.T, scheme string, o Options) (Transport, Conn) {
	t.Helper()
	tr, err := New(scheme, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no %s listener in this environment: %v", scheme, err)
	}
	t.Cleanup(func() { c.Close() })
	return tr, c
}

// testStreamRoundTrip drives datagrams both directions over a stream
// scheme: a→b exercises the lazy dial, b→a the reply path over the
// accepted conn's registered peer... or a fresh dial back to a's
// listener, depending on which address b answers to. Both must
// preserve datagram boundaries and bytes.
func testStreamRoundTrip(t *testing.T, scheme string, o Options) {
	ta, a := listenStream(t, scheme, o)
	_, b := listenStream(t, scheme, o)

	dest, err := ta.Resolve(b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	for i := 0; i < 20; i++ {
		sent = append(sent, []byte(fmt.Sprintf("datagram-%02d|%s", i, bytes.Repeat([]byte{byte(i)}, i*7))))
	}
	for _, p := range sent {
		if _, err := a.WriteTo(p, dest); err != nil {
			t.Fatal(err)
		}
	}
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	var from net.Addr
	for i, want := range sent {
		n, src, err := b.ReadFrom(buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("datagram %d corrupted over %s: got %d bytes, want %d", i, scheme, n, len(want))
		}
		from = src
	}

	// Reply to the source address ReadFrom reported — the sstp
	// receiver's feedback pattern — which must reuse the accepted
	// stream rather than dialing the peer's ephemeral port.
	reply := []byte("nack nack")
	if _, err := b.WriteTo(reply, from); err != nil {
		t.Fatal(err)
	}
	a.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := a.ReadFrom(buf)
	if err != nil {
		t.Fatalf("reply read: %v", err)
	}
	if !bytes.Equal(buf[:n], reply) {
		t.Fatalf("reply corrupted: %q", buf[:n])
	}
}

func TestTCPStreamRoundTrip(t *testing.T) { testStreamRoundTrip(t, "tcp", Options{}) }

func TestTLSStreamRoundTrip(t *testing.T) {
	// Self-signed everywhere: the server generates its pair at Listen,
	// the client skips verification — the zero-config lab default.
	testStreamRoundTrip(t, "tls", Options{})
}

func TestTLSStreamVerified(t *testing.T) {
	// Verified mTLS through the daemons' flag path: one self-signed
	// identity doubles as the CA file, so both sides verify each other
	// against it.
	cert, certPEM, err := GenerateSelfSigned("softstate-test")
	if err != nil {
		t.Fatal(err)
	}
	certFile := t.TempDir() + "/cert.pem"
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	opts, err := tlsOptions("", "", certFile, "localhost")
	if err != nil {
		t.Fatal(err)
	}
	opts.TLSServer.Certificates = append(opts.TLSServer.Certificates, cert)
	opts.TLSClient.Certificates = append(opts.TLSClient.Certificates, cert)
	opts.TLSClient.ServerName = "localhost"
	testStreamRoundTrip(t, "tls", opts)
}

func TestStreamDropDontBlock(t *testing.T) {
	// A destination nobody listens on: every datagram must be shed
	// without blocking WriteTo, and the drop counter must say so.
	tr, a := listenStream(t, "tcp", Options{PeerQueue: 4, DialTimeout: 200 * time.Millisecond})
	dead, err := tr.Resolve("127.0.0.1:1") // reserved port, nothing there
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if _, err := a.WriteTo([]byte("into the void"), dead); err != nil {
				t.Errorf("WriteTo must not fail on a dead peer: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WriteTo blocked on a dead peer — drop-don't-block violated")
	}
	deadline := time.Now().Add(2 * time.Second)
	sc := a.(*StreamConn)
	for sc.Drops() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if sc.Drops() == 0 {
		t.Fatal("no drops recorded for an unreachable peer")
	}
}

func TestStreamOversizeDatagram(t *testing.T) {
	tr, a := listenStream(t, "tcp", Options{MaxFrame: 512})
	dest, err := tr.Resolve(a.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteTo(make([]byte, 513), dest); err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestStreamCloseUnblocksReader(t *testing.T) {
	_, a := listenStream(t, "tcp", Options{})
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		_, _, err := a.ReadFrom(buf)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	a.Close()
	select {
	case err := <-errc:
		if err != net.ErrClosed {
			t.Fatalf("blocked reader got %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock ReadFrom")
	}
}

// TestStreamConnCountsInboxOverflow sends a stream conn nobody reads
// more datagrams than its inbox holds: every one past the depth is
// dropped and counted, as MemConn counts its own.
func TestStreamConnCountsInboxOverflow(t *testing.T) {
	const extra = 37
	o := Options{PeerQueue: 2 * streamInboxSlots}
	ta, a := listenStream(t, "tcp", o)
	_, b := listenStream(t, "tcp", o)
	dest, err := ta.Resolve(b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streamInboxSlots+extra; i++ {
		if _, err := a.WriteTo([]byte("x"), dest); err != nil {
			t.Fatal(err)
		}
	}
	sc := b.(*StreamConn)
	deadline := time.Now().Add(5 * time.Second)
	for sc.Overflows() < extra && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // nothing more may trickle in
	if got, drops := sc.Overflows(), a.(*StreamConn).Drops(); got != extra || drops != 0 {
		t.Fatalf("Overflows() = %d (send-side drops %d), want %d (0)", got, drops, extra)
	}
}
