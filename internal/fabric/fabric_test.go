package fabric

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"softstate/internal/obs"
	"softstate/internal/protocol"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// captureDatagrams drains raw datagrams from a MemConn until n have
// arrived or the line stays quiet for the grace period.
func captureDatagrams(t *testing.T, c *transport.MemConn, n int, grace time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	buf := make([]byte, 4096)
	for len(got) < n {
		_ = c.SetReadDeadline(time.Now().Add(grace))
		sz, _, err := c.ReadFrom(buf)
		if err != nil {
			break
		}
		got = append(got, append([]byte(nil), buf[:sz]...))
	}
	return got
}

func pinSenderConfig(session uint64, dest transport.MemAddr, coalesce int) sstp.SenderConfig {
	return sstp.SenderConfig{
		Session: session, SenderID: 1,
		Dest:            dest,
		TotalRate:       10_000_000,
		SummaryInterval: time.Hour, // data datagrams only
		NoRetransmit:    true,      // each record exactly once
		TTL:             time.Hour,
		CoalesceRecords: coalesce,
		Seed:            42,
	}
}

func pinPublish(t *testing.T, s *sstp.Sender, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("pin/k%02d", i)
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := s.Republish(key, val, 1, 1000, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleTenantWireIdentical pins the fabric's core compatibility
// claim: a session sent through the fabric puts byte-identical
// datagrams on the wire, in the same order, as the same session run
// standalone. Receivers cannot tell the difference.
func TestSingleTenantWireIdentical(t *testing.T) {
	const records = 12
	for _, coalesce := range []int{1, 4} {
		run := func(viaFabric bool) [][]byte {
			nw := transport.NewMemNetwork(7)
			src := nw.Endpoint("src")
			dst := nw.Endpoint("dst")
			cfg := pinSenderConfig(9, "dst", coalesce)
			want := records
			if coalesce > 1 {
				want = (records + coalesce - 1) / coalesce
			}
			if viaFabric {
				f, err := New(Config{Conn: src})
				if err != nil {
					t.Fatal(err)
				}
				s, err := f.AddSender(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				pinPublish(t, s, records)
				f.Start()
				defer f.Close()
				return captureDatagrams(t, dst, want, 2*time.Second)
			}
			cfg.Conn = src
			s, err := sstp.NewSender(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pinPublish(t, s, records)
			s.Start()
			defer s.Close()
			return captureDatagrams(t, dst, want, 2*time.Second)
		}
		alone := run(false)
		fabric := run(true)
		if len(alone) == 0 {
			t.Fatalf("coalesce=%d: standalone run produced no datagrams", coalesce)
		}
		if len(alone) != len(fabric) {
			t.Fatalf("coalesce=%d: datagram count %d standalone vs %d via fabric",
				coalesce, len(alone), len(fabric))
		}
		for i := range alone {
			if !bytes.Equal(alone[i], fabric[i]) {
				t.Fatalf("coalesce=%d: datagram %d differs:\nstandalone: %x\nfabric:     %x",
					coalesce, i, alone[i], fabric[i])
			}
		}
	}
}

// TestDemuxRoutesBySession checks the session-id wire demux: one
// shared socket, per-session ports, drop accounting for foreign and
// unknown traffic.
func TestDemuxRoutesBySession(t *testing.T) {
	nw := transport.NewMemNetwork(3)
	shared := nw.Endpoint("shared")
	peer := nw.Endpoint("peer")
	d := NewDemux(shared, nil)
	defer d.Close()
	p1 := d.Port(1)
	p2 := d.Port(2)

	mk := func(session uint64, seq uint32) []byte {
		hdr := protocol.Header{Session: session, Sender: 77, Seq: seq, Scope: 1}
		return protocol.Encode(hdr, &protocol.Heartbeat{})
	}
	for seq := uint32(0); seq < 3; seq++ {
		if _, err := peer.WriteTo(mk(1, seq), transport.MemAddr("shared")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := peer.WriteTo(mk(2, 0), transport.MemAddr("shared")); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.WriteTo(mk(99, 0), transport.MemAddr("shared")); err != nil {
		t.Fatal(err) // no port for session 99
	}
	if _, err := peer.WriteTo([]byte("not sstp at all"), transport.MemAddr("shared")); err != nil {
		t.Fatal(err)
	}

	readOne := func(p *Port) protocol.Header {
		t.Helper()
		buf := make([]byte, 2048)
		_ = p.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, _, err := p.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		hdr, _, err := protocol.Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return hdr
	}
	for seq := uint32(0); seq < 3; seq++ {
		hdr := readOne(p1)
		if hdr.Session != 1 || hdr.Seq != seq {
			t.Fatalf("port 1 got session %d seq %d, want 1/%d", hdr.Session, hdr.Seq, seq)
		}
	}
	if hdr := readOne(p2); hdr.Session != 2 {
		t.Fatalf("port 2 got session %d", hdr.Session)
	}
	// Drop counters need the read loop to have consumed the strays.
	deadline := time.Now().Add(2 * time.Second)
	for {
		unknown, _, foreign := d.Drops()
		if unknown == 1 && foreign == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drops = unknown %d foreign %d, want 1/1", unknown, foreign)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A port read past its deadline times out rather than stealing
	// another session's traffic.
	buf := make([]byte, 16)
	_ = p1.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if _, _, err := p1.ReadFrom(buf); err == nil {
		t.Fatal("expected timeout on drained port")
	}
}

// TestDemuxDeliversLargeDatagramIntact writes a Data datagram well
// over 2 KB to the demux's shared conn: its port must hand it on
// whole, so it decodes with the value intact.
func TestDemuxDeliversLargeDatagramIntact(t *testing.T) {
	nw := transport.NewMemNetwork(4)
	shared := nw.Endpoint("shared")
	peer := nw.Endpoint("peer")
	d := NewDemux(shared, nil)
	defer d.Close()
	p := d.Port(7)

	val := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KB
	hdr := protocol.Header{Session: 7, Sender: 77, Seq: 1, Scope: 1}
	wire := protocol.Encode(hdr, &protocol.Data{Key: "big", Ver: 3, TTLms: 1000, Value: val})
	if _, err := peer.WriteTo(wire, transport.MemAddr("shared")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	_ = p.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := p.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("port read %d B, want the whole %d B datagram", n, len(wire))
	}
	_, msg, err := protocol.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := msg.(*protocol.Data); !ok || m.Key != "big" || !bytes.Equal(m.Value, val) {
		t.Fatalf("decoded %T %+v, want the 4 KB Data record", msg, msg)
	}
}

// TestFabricMultiTenantConvergence runs three tenants over one shared
// socket with loss on every path and requires each receiver to
// converge on its own session's records — announcements fan out from
// the shared send loop, feedback demuxes back per session, repair
// still works.
func TestFabricMultiTenantConvergence(t *testing.T) {
	nw := transport.NewMemNetwork(11)
	shared := nw.Endpoint("fab")
	reg := obs.New("fabric-test")
	f, err := New(Config{Conn: shared, LinkRate: 4_000_000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 3
	senders := make([]*sstp.Sender, tenants)
	receivers := make([]*sstp.Receiver, tenants)
	for i := 0; i < tenants; i++ {
		session := uint64(100 + i)
		rname := transport.MemAddr(fmt.Sprintf("r%d", i))
		rconn := nw.Endpoint(rname)
		nw.SetLoss("fab", rname, 0.05)
		s, err := f.AddSender(sstp.SenderConfig{
			Session: session, SenderID: 1,
			Dest:            rname,
			TotalRate:       512_000,
			SummaryInterval: 60 * time.Millisecond,
			TTL:             time.Hour,
			Seed:            int64(i + 1),
		}, float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
		r, err := sstp.NewReceiver(sstp.ReceiverConfig{
			Session: session, ReceiverID: 2,
			Conn: rconn, FeedbackDest: transport.MemAddr("fab"),
			ReportInterval: 100 * time.Millisecond,
			NACKWindow:     20 * time.Millisecond,
			Seed:           int64(i + 100),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		receivers[i] = r
		for k := 0; k < 30; k++ {
			if err := s.Publish(fmt.Sprintf("t%d/key%02d", i, k),
				[]byte(fmt.Sprintf("tenant %d record %d", i, k)), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Start()
	defer func() {
		f.Close()
		for _, r := range receivers {
			r.Close()
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		done := 0
		for i := range senders {
			if senders[i].RootDigest() == receivers[i].RootDigest() && receivers[i].Len() == 30 {
				done++
			}
		}
		if done == tenants {
			break
		}
		if time.Now().After(deadline) {
			for i := range receivers {
				t.Logf("tenant %d: receiver has %d/30 records", i, receivers[i].Len())
			}
			t.Fatal("tenants failed to converge through the fabric")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Per-tenant metrics must be live in the shared registry.
	for i := 0; i < tenants; i++ {
		label := fmt.Sprintf("%d", 100+i)
		if v := reg.Get("sstp_fabric_tenant_tx_bytes_total", "tenant", label); v <= 0 {
			t.Fatalf("tenant %s tx bytes metric = %v", label, v)
		}
		if v := reg.Get("sstp_fabric_tenant_weight", "tenant", label); v != float64(i+1) {
			t.Fatalf("tenant %s weight metric = %v, want %d", label, v, i+1)
		}
	}
	if v := reg.Get("sstp_fabric_tenants"); v != tenants {
		t.Fatalf("sstp_fabric_tenants = %v, want %d", v, tenants)
	}
	if v := reg.Get("sstp_fabric_datagrams_total"); v <= 0 {
		t.Fatalf("sstp_fabric_datagrams_total = %v", v)
	}
	// Runtime retune reaches both the scheduler and the gauge.
	if err := f.SetWeight(100, 8); err != nil {
		t.Fatal(err)
	}
	if v := reg.Get("sstp_fabric_tenant_weight", "tenant", "100"); v != 8 {
		t.Fatalf("retuned weight gauge = %v, want 8", v)
	}
	if err := f.SetWeight(9999, 1); err == nil {
		t.Fatal("SetWeight on unknown tenant accepted")
	}
}

// TestFabricOverTCPStream runs the fabric's shared socket over a
// framed TCP stream conn: session-id demux is transport-independent
// (the id lives in the SSTP header, not the wire), so two tenants
// multiplexed onto one stream listener must both converge, and
// feedback arriving on the shared conn must route back to the right
// tenant's sender.
func TestFabricOverTCPStream(t *testing.T) {
	tcp, err := transport.New("tcp", transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	feedback, err := tcp.Resolve(shared.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}

	f, err := New(Config{Conn: shared, LinkRate: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 2
	senders := make([]*sstp.Sender, tenants)
	receivers := make([]*sstp.Receiver, tenants)
	for i := 0; i < tenants; i++ {
		rconn, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rconn.Close()
		dest, err := tcp.Resolve(rconn.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.AddSender(sstp.SenderConfig{
			Session: uint64(300 + i), SenderID: 1,
			Dest:            dest,
			TotalRate:       512_000,
			SummaryInterval: 60 * time.Millisecond,
			TTL:             time.Hour,
			Seed:            int64(i + 1),
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
		r, err := sstp.NewReceiver(sstp.ReceiverConfig{
			Session: uint64(300 + i), ReceiverID: 2,
			Conn: rconn, FeedbackDest: feedback,
			NACKWindow: 20 * time.Millisecond,
			Seed:       int64(i + 100),
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		receivers[i] = r
		for k := 0; k < 20; k++ {
			if err := s.Publish(fmt.Sprintf("t%d/key%02d", i, k),
				[]byte(fmt.Sprintf("tenant %d record %d", i, k)), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Start()
	defer func() {
		f.Close()
		for _, r := range receivers {
			r.Close()
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	for {
		done := 0
		for i := range senders {
			if senders[i].RootDigest() == receivers[i].RootDigest() && receivers[i].Len() == 20 {
				done++
			}
		}
		if done == tenants {
			return
		}
		if time.Now().After(deadline) {
			for i := range receivers {
				t.Logf("tenant %d: receiver has %d/20 records", i, receivers[i].Len())
			}
			t.Fatal("tenants failed to converge through the fabric over tcp")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFabricAddSenderValidation covers registration edge cases.
func TestFabricAddSenderValidation(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	f, err := New(Config{Conn: nw.Endpoint("fab")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := New(Config{}); err == nil {
		t.Fatal("fabric without conn accepted")
	}
	if _, err := f.AddSender(sstp.SenderConfig{Session: 1, SenderID: 1, TotalRate: 1000}, 1); err == nil {
		t.Fatal("tenant without Dest accepted")
	}
	if _, err := f.AddSender(sstp.SenderConfig{
		Session: 1, SenderID: 1, Dest: transport.MemAddr("r"), TotalRate: 1000,
	}, 0); err == nil {
		t.Fatal("tenant with zero weight accepted")
	}
	if _, err := f.AddSender(sstp.SenderConfig{
		Session: 1, SenderID: 1, Dest: transport.MemAddr("r"), TotalRate: 1000,
	}, 1); err != nil {
		t.Fatal(err)
	}
	if f.Tenants() != 1 {
		t.Fatalf("Tenants = %d, want 1", f.Tenants())
	}
	f.Start()
	if _, err := f.AddSender(sstp.SenderConfig{
		Session: 2, SenderID: 1, Dest: transport.MemAddr("r"), TotalRate: 1000,
	}, 1); err == nil {
		t.Fatal("AddSender after Start accepted")
	}
}
