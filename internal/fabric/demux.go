package fabric

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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
	conn  net.PacketConn
	bconn *netio.BatchConn

	mu     sync.Mutex
	ports  map[uint64]*Port
	closed bool

	unknownDrops  atomic.Uint64 // datagrams for sessions with no port
	overflowDrops atomic.Uint64 // datagrams dropped on a full port inbox; every port's Inbox counts here
	foreignDrops  atomic.Uint64 // datagrams that are not SSTP at all

	mUnknown  *obs.Counter
	mOverflow *obs.Counter
	mForeign  *obs.Counter

	done chan struct{}
	wg   sync.WaitGroup
}

// NewDemux wraps conn and starts the shared read loop. reg may be nil.
func NewDemux(conn net.PacketConn, reg *obs.Registry) *Demux {
	d := &Demux{
		conn:      conn,
		bconn:     netio.Wrap(conn),
		ports:     make(map[uint64]*Port),
		done:      make(chan struct{}),
		mUnknown:  reg.Counter("sstp_fabric_demux_drops_total", "reason", "unknown_session"),
		mOverflow: reg.Counter("sstp_fabric_demux_drops_total", "reason", "overflow"),
		mForeign:  reg.Counter("sstp_fabric_demux_drops_total", "reason", "not_sstp"),
	}
	d.wg.Add(1)
	go d.readLoop()
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
	close(d.done)
	_ = d.conn.SetReadDeadline(time.Now()) // unblock the read loop
	d.wg.Wait()
	for _, p := range ports {
		_ = p.Close()
	}
	return nil
}

// readLoop drains the shared socket in batches and routes each
// datagram to its session's port. Only the kernel batch path fills
// more than one buffer per call, so any other conn gets one.
func (d *Demux) readLoop() {
	defer d.wg.Done()
	batch := 1
	if d.bconn.Batched() {
		batch = 16
	}
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, netio.MaxDatagram)
	}
	sizes := make([]int, batch)
	addrs := make([]net.Addr, batch)
	for {
		select {
		case <-d.done:
			return
		default:
		}
		_ = d.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, err := d.bconn.ReadBatch(bufs, sizes, addrs)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		for i := 0; i < n; i++ {
			d.route(bufs[i][:sizes[i]], addrs[i])
		}
	}
}

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

// Session returns the session id this port filters for.
func (p *Port) Session() uint64 { return p.session }

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
