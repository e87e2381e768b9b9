package transport

import (
	"bufio"
	"crypto/tls"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The stream transports (tcp, tls) present the same datagram contract
// as a UDP socket: StreamConn implements net.PacketConn over a set of
// per-peer stream connections, one frame per datagram. The crucial
// semantic carried over from the datagram world is drop-don't-block:
// a datagram protocol's send path must never stall on a slow peer, so
// each peer gets a bounded outbound queue and a writer goroutine, and
// a full queue (or an unreachable peer) drops the datagram exactly as
// a congested router would. The soft-state protocol above repairs the
// gap by digest comparison, which is the paper's whole argument for
// announce/listen over hard-state channels.

type streamTransport struct {
	scheme string
	o      Options
}

func newStreamTransport(scheme string, o Options) (Transport, error) {
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.PeerQueue <= 0 {
		o.PeerQueue = 256
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	return &streamTransport{scheme: scheme, o: o}, nil
}

// Scheme implements Transport.
func (t *streamTransport) Scheme() string { return t.scheme }

// Resolve implements Transport. Stream peers are addressed by TCP
// address; resolving through net keeps "localhost:9000" and
// "127.0.0.1:9000" from looking like two different peers.
func (t *streamTransport) Resolve(address string) (net.Addr, error) {
	return net.ResolveTCPAddr("tcp", address)
}

// Listen implements Transport.
func (t *streamTransport) Listen(address string) (Conn, error) {
	o := t.o
	var ln net.Listener
	var err error
	if t.scheme == "tls" {
		cfg := serverTLSConfig(o.TLSServer)
		if cfg == nil {
			cfg = &tls.Config{}
		}
		if len(cfg.Certificates) == 0 && cfg.GetCertificate == nil {
			cert, _, err := GenerateSelfSigned("softstate")
			if err != nil {
				return nil, err
			}
			cfg.Certificates = []tls.Certificate{cert}
		}
		ln, err = tls.Listen("tcp", address, cfg)
	} else {
		ln, err = net.Listen("tcp", address)
	}
	if err != nil {
		return nil, err
	}
	sc := &StreamConn{
		scheme: t.scheme,
		o:      o,
		ln:     ln,
		peers:  make(map[string]*streamPeer),
		Inbox:  NewInbox(streamInboxSlots, nil),
		done:   make(chan struct{}),
	}
	go sc.acceptLoop()
	return sc, nil
}

func (t *streamTransport) dial(address string) (net.Conn, error) {
	d := &net.Dialer{Timeout: t.o.DialTimeout}
	if t.scheme == "tls" {
		cfg := clientTLSConfig(t.o.TLSClient)
		return tls.DialWithDialer(d, "tcp", address, cfg)
	}
	return d.Dial("tcp", address)
}

// streamInboxSlots is a stream conn's receive queue depth in
// datagrams, shared by all its peers.
const streamInboxSlots = 4096

// StreamConn is a net.PacketConn over length-prefixed stream framing.
// WriteTo dials (and caches) a stream to the destination lazily;
// inbound connections register their peer under the remote address so
// replies to a ReadFrom source reuse the accepted stream. Reads go
// through the same Inbox as MemConn (bounded, overflow drops counted,
// the same deadline semantics), so the sstp polling loops run
// unmodified.
type StreamConn struct {
	*Inbox
	scheme string
	o      Options
	ln     net.Listener

	mu     sync.Mutex
	peers  map[string]*streamPeer
	closed bool

	done chan struct{}

	// Drops counts datagrams shed by the bounded peer queues, failed
	// dials, and dead peers — the stream analogue of router drops.
	drops atomic.Uint64
}

// streamPeer is one cached stream link: a bounded outbound frame queue
// drained by a writer goroutine, plus a reader goroutine feeding the
// shared inbox.
type streamPeer struct {
	sc   *StreamConn
	key  string
	out  chan *packet // pooled length-prefixed frames
	done chan struct{}
	once sync.Once

	connMu sync.Mutex
	conn   net.Conn // nil until dialed/accepted
}

// Drops reports datagrams dropped on the send side (full peer queue,
// dial failure, dead peer).
func (c *StreamConn) Drops() uint64 { return c.drops.Load() }

func (c *StreamConn) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done:
			default:
				// Transient accept errors (EMFILE etc.): back off and
				// keep serving; a closed listener lands in c.done above.
				select {
				case <-c.done:
				case <-time.After(50 * time.Millisecond):
					continue
				}
			}
			return
		}
		c.adoptConn(conn)
	}
}

// adoptConn registers an accepted stream under its remote address and
// starts its reader/writer. A duplicate peer (simultaneous dial in
// both directions can't produce one — the dialer's local port is
// ephemeral — but a reconnecting peer can) replaces the old link.
func (c *StreamConn) adoptConn(conn net.Conn) {
	key := conn.RemoteAddr().String()
	p := &streamPeer{
		sc:   c,
		key:  key,
		out:  make(chan *packet, c.o.PeerQueue),
		done: make(chan struct{}),
		conn: conn,
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	old := c.peers[key]
	c.peers[key] = p
	c.mu.Unlock()
	if old != nil {
		old.teardown()
	}
	go p.readLoop(conn)
	go p.writeLoop(conn)
}

// WriteTo implements net.PacketConn: one datagram becomes one frame on
// the destination peer's stream. It never blocks on the network — the
// frame is copied into a pooled buffer and queued, and a full queue or
// missing peer drops it.
func (c *StreamConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	if len(b) > c.o.MaxFrame {
		c.mu.Unlock()
		return 0, ErrFrameTooBig
	}
	key := addr.String()
	p := c.peers[key]
	if p == nil {
		p = &streamPeer{
			sc:   c,
			key:  key,
			out:  make(chan *packet, c.o.PeerQueue),
			done: make(chan struct{}),
		}
		c.peers[key] = p
		go p.runDial(key)
	}
	c.mu.Unlock()

	fp := packetPool.Get().(*packet)
	frame, err := AppendFrame(fp.data[:0], b, c.o.MaxFrame)
	if err != nil {
		fp.recycle()
		return 0, err
	}
	fp.data = frame
	select {
	case <-p.done:
		fp.recycle()
		c.drops.Add(1)
	default:
		select {
		case p.out <- fp:
		default: // bounded queue full: drop, as a router would
			fp.recycle()
			c.drops.Add(1)
		}
	}
	return len(b), nil
}

// runDial connects an outbound peer and runs its reader/writer. On
// dial failure the peer is torn down after a short hold-off, so the
// next WriteTo re-dials rather than hammering a dead address.
func (p *streamPeer) runDial(address string) {
	t := &streamTransport{scheme: p.sc.scheme, o: p.sc.o}
	conn, err := t.dial(address)
	if err != nil {
		p.sc.drops.Add(uint64(len(p.out)))
		select {
		case <-time.After(250 * time.Millisecond):
		case <-p.sc.done:
		}
		p.teardown()
		return
	}
	p.connMu.Lock()
	p.conn = conn
	p.connMu.Unlock()
	select {
	case <-p.done: // torn down while dialing
		conn.Close()
		return
	default:
	}
	go p.readLoop(conn)
	p.writeLoop(conn)
}

// writeLoop drains the bounded queue onto the stream. A write error or
// timeout kills the link; queued and future datagrams for this peer
// are dropped until a later WriteTo re-dials.
func (p *streamPeer) writeLoop(conn net.Conn) {
	for {
		select {
		case fp := <-p.out:
			conn.SetWriteDeadline(time.Now().Add(p.sc.o.WriteTimeout))
			_, err := conn.Write(fp.data)
			fp.recycle()
			if err != nil {
				p.teardown()
				return
			}
		case <-p.done:
			return
		case <-p.sc.done:
			p.teardown()
			return
		}
	}
}

// readLoop decodes frames off the stream into the shared inbox,
// presenting each payload as one datagram from this peer.
func (p *streamPeer) readLoop(conn net.Conn) {
	defer p.teardown()
	from := conn.RemoteAddr()
	br := bufio.NewReaderSize(conn, 32<<10)
	var scratch []byte
	for {
		payload, buf, err := ReadFrame(br, scratch, p.sc.o.MaxFrame)
		scratch = buf
		if err != nil {
			return
		}
		p.sc.Deliver(payload, from)
	}
}

// teardown closes the peer's stream, detaches it from the conn, and
// recycles whatever was still queued.
func (p *streamPeer) teardown() {
	p.once.Do(func() {
		close(p.done)
		p.connMu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.connMu.Unlock()
		p.sc.mu.Lock()
		if p.sc.peers[p.key] == p {
			delete(p.sc.peers, p.key)
		}
		p.sc.mu.Unlock()
		for {
			select {
			case fp := <-p.out:
				fp.recycle()
			default:
				return
			}
		}
	})
}

// Close implements net.PacketConn: the listener and every peer stream
// shut down, and blocked readers return net.ErrClosed.
func (c *StreamConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*streamPeer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	close(c.done)
	c.Inbox.Close()
	err := c.ln.Close()
	for _, p := range peers {
		p.teardown()
	}
	return err
}

// LocalAddr implements net.PacketConn.
func (c *StreamConn) LocalAddr() net.Addr { return c.ln.Addr() }

var _ net.PacketConn = (*StreamConn)(nil)
