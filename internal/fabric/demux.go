package fabric

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"softstate/internal/netio"
	"softstate/internal/obs"
	"softstate/internal/protocol"
	"softstate/internal/transport"
)

// Demux fans one shared datagram socket out to per-session virtual
// conns, routing on the session id every SSTP header already carries
// (protocol.PeekSession). One UDP port serves all tenants — sender
// side it delivers each session's feedback (NACKs, queries, reports)
// to that tenant's driven sender, receiver side it delivers each
// session's announcements to that session's Receiver — with no
// wire-format change at all.
//
// The demux owns the socket's read side; writes go through it
// untouched (ports' WriteTo delegates to the shared conn). It does
// not close the underlying conn: the caller that opened the socket
// still owns its lifetime.
type Demux struct {
	conn     net.PacketConn
	stopRead func() // stops the shared read loop (netio.Serve)

	mu     sync.Mutex
	ports  map[uint64]*Port
	closed bool

	unknownDrops  atomic.Uint64 // datagrams for sessions with no port
	overflowDrops atomic.Uint64 // datagrams dropped on a full port inbox; every port's Inbox counts here
	foreignDrops  atomic.Uint64 // datagrams that are not SSTP at all

	mUnknown  *obs.Counter
	mOverflow *obs.Counter
	mForeign  *obs.Counter
}

// NewDemux wraps conn and starts the shared read loop. reg may be nil.
func NewDemux(conn net.PacketConn, reg *obs.Registry) *Demux {
	d := &Demux{
		conn:      conn,
		ports:     make(map[uint64]*Port),
		mUnknown:  reg.Counter("sstp_fabric_demux_drops_total", "reason", "unknown_session"),
		mOverflow: reg.Counter("sstp_fabric_demux_drops_total", "reason", "overflow"),
		mForeign:  reg.Counter("sstp_fabric_demux_drops_total", "reason", "not_sstp"),
	}
	d.stopRead = netio.Serve(conn, d.route)
	return d
}

// Port returns (creating if needed) the virtual conn for one session.
func (d *Demux) Port(session uint64) *Port {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.ports[session]; ok {
		return p
	}
	p := &Port{
		Inbox:   transport.NewInbox(portInboxSlots, &d.overflowDrops),
		d:       d,
		session: session,
	}
	d.ports[session] = p
	return p
}

// Drops returns the cumulative drop counters (unknown-session,
// port-overflow, non-SSTP).
func (d *Demux) Drops() (unknown, overflow, foreign uint64) {
	return d.unknownDrops.Load(), d.overflowDrops.Load(), d.foreignDrops.Load()
}

// Close stops the read loop and closes every port. The underlying
// conn is left open — its opener owns it.
func (d *Demux) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	ports := make([]*Port, 0, len(d.ports))
	for _, p := range d.ports {
		ports = append(ports, p)
	}
	d.mu.Unlock()
	d.stopRead()
	for _, p := range ports {
		_ = p.Close()
	}
	return nil
}

// route hands one datagram off the shared socket to its session's
// port.
func (d *Demux) route(b []byte, from net.Addr) {
	session, ok := protocol.PeekSession(b)
	if !ok {
		d.foreignDrops.Add(1)
		d.mForeign.Inc()
		return
	}
	d.mu.Lock()
	p := d.ports[session]
	d.mu.Unlock()
	if p == nil {
		d.unknownDrops.Add(1)
		d.mUnknown.Inc()
		return
	}
	if p.Deliver(b, from) {
		d.mOverflow.Inc()
	}
}

// portInboxSlots is a port's receive queue depth in datagrams; the
// port's inbox counts its overflow drops into the demux's total.
const portInboxSlots = 512

// Port is one session's view of the shared socket: reads see only
// that session's datagrams, writes pass straight through to the
// shared conn. It implements net.PacketConn, so an sstp.Sender or
// sstp.Receiver runs over it unmodified.
type Port struct {
	*transport.Inbox
	d       *Demux
	session uint64
}

// WriteTo implements net.PacketConn, passing through to the shared
// socket (datagram writes are concurrency-safe across ports).
func (p *Port) WriteTo(b []byte, addr net.Addr) (int, error) {
	if p.Closed() {
		return 0, net.ErrClosed
	}
	return p.d.conn.WriteTo(b, addr)
}

// Close implements net.PacketConn. It detaches this session from the
// demux; the shared socket stays open.
func (p *Port) Close() error {
	p.Inbox.Close()
	p.d.mu.Lock()
	if p.d.ports[p.session] == p {
		delete(p.d.ports, p.session)
	}
	p.d.mu.Unlock()
	return nil
}

// LocalAddr implements net.PacketConn.
func (p *Port) LocalAddr() net.Addr { return p.d.conn.LocalAddr() }

var _ net.PacketConn = (*Port)(nil)

// String aids debugging.
func (p *Port) String() string {
	return fmt.Sprintf("fabric-port(session=%d, %v)", p.session, p.d.conn.LocalAddr())
}
