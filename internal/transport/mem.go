package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/xrand"
)

// MemAddr is the address of an in-memory endpoint or group.
type MemAddr string

// Network implements net.Addr.
func (a MemAddr) Network() string { return "mem" }

// String implements net.Addr.
func (a MemAddr) String() string { return string(a) }

// MemNetwork is an in-process datagram network with per-path Bernoulli
// loss, propagation delay, and uniform delay jitter — the loss-prone
// channel of the model, usable wherever a net.PacketConn is expected.
// It supports multicast-style groups: writing to a group address fans
// the datagram out to every member except the writer (receivers
// therefore hear each other's NACKs, which exercises
// slotting-and-damping suppression). Loss draws and jitter draws both
// come from the single seeded RNG, so a topology replayed with the
// same seed sees the same drop/delay sequence.
type MemNetwork struct {
	mu        sync.Mutex
	rnd       *xrand.Rand
	endpoints map[MemAddr]*MemConn
	groups    map[MemAddr]map[MemAddr]bool
	loss      map[[2]MemAddr]float64
	delay     map[[2]MemAddr]time.Duration
	jitter    map[[2]MemAddr]time.Duration
	down      map[[2]MemAddr]bool
	addrbox   map[MemAddr]net.Addr // cached interface boxings of sources
	defLoss   float64
	defDelay  time.Duration
	defJitter time.Duration

	overflows atomic.Uint64 // datagrams dropped on a full inbox, all endpoints
}

// NewMemNetwork returns an empty network with the given RNG seed.
func NewMemNetwork(seed int64) *MemNetwork {
	return &MemNetwork{
		rnd:       xrand.New(seed),
		endpoints: make(map[MemAddr]*MemConn),
		groups:    make(map[MemAddr]map[MemAddr]bool),
		loss:      make(map[[2]MemAddr]float64),
		delay:     make(map[[2]MemAddr]time.Duration),
		jitter:    make(map[[2]MemAddr]time.Duration),
		down:      make(map[[2]MemAddr]bool),
		addrbox:   make(map[MemAddr]net.Addr),
	}
}

// Overflows returns how many datagrams the network dropped because the
// destination's inbox was full, across every endpoint it ever had —
// the drops injected loss does not account for.
func (n *MemNetwork) Overflows() uint64 { return n.overflows.Load() }

// Transport returns the network as a Transport with scheme "mem", so
// in-process topologies plug into the same Listen/Resolve path as real
// sockets.
func (n *MemNetwork) Transport() Transport { return memTransport{n} }

type memTransport struct{ n *MemNetwork }

// Scheme implements Transport.
func (memTransport) Scheme() string { return "mem" }

// Listen implements Transport.
func (t memTransport) Listen(address string) (Conn, error) {
	return t.n.Endpoint(MemAddr(address)), nil
}

// Resolve implements Transport.
func (t memTransport) Resolve(address string) (net.Addr, error) {
	return MemAddr(address), nil
}

// SetDefaultLoss sets the loss probability for paths without a
// specific override.
func (n *MemNetwork) SetDefaultLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defLoss = p
}

// SetLoss sets the loss probability on the directed path from → to.
func (n *MemNetwork) SetLoss(from, to MemAddr, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("transport: loss %v out of [0,1]", p))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss[[2]MemAddr{from, to}] = p
}

// SetDelay sets the propagation delay on the directed path from → to.
func (n *MemNetwork) SetDelay(from, to MemAddr, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay[[2]MemAddr{from, to}] = d
}

// SetDefaultDelay sets the propagation delay for paths without a
// specific override.
func (n *MemNetwork) SetDefaultDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defDelay = d
}

// SetJitter sets the maximum extra delay on the directed path from →
// to: each datagram is delayed by its path delay plus a uniform draw
// in [0, j) from the network's seeded RNG.
func (n *MemNetwork) SetJitter(from, to MemAddr, j time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.jitter[[2]MemAddr{from, to}] = j
}

// SetDefaultJitter sets the jitter bound for paths without a specific
// override.
func (n *MemNetwork) SetDefaultJitter(j time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defJitter = j
}

// SetLinkDown severs the path between a and b in both directions:
// every datagram on the link is dropped, as if the cable were cut.
// Unlike a loss probability of 1 it consumes no RNG draws, so cutting
// a link mid-test leaves the rest of the seeded drop/delay sequence
// untouched — partition and churn tests stay deterministic. Either
// address may also be a group address, which severs the pair for the
// group fan-out as a whole (per-member paths can still be cut
// individually).
func (n *MemNetwork) SetLinkDown(a, b MemAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[[2]MemAddr{a, b}] = true
	n.down[[2]MemAddr{b, a}] = true
}

// SetLinkUp heals a link severed by SetLinkDown (both directions).
func (n *MemNetwork) SetLinkUp(a, b MemAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, [2]MemAddr{a, b})
	delete(n.down, [2]MemAddr{b, a})
}

// Partition severs every link between the two sides, in both
// directions — the one-call way to split a mesh for a partition-heal
// test. Heal with HealAll (or SetLinkUp per pair).
func (n *MemNetwork) Partition(sideA, sideB []MemAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range sideA {
		for _, b := range sideB {
			n.down[[2]MemAddr{a, b}] = true
			n.down[[2]MemAddr{b, a}] = true
		}
	}
}

// HealAll restores every severed link.
func (n *MemNetwork) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.down)
}

// Endpoint creates (or returns) the endpoint with the given address.
func (n *MemNetwork) Endpoint(addr MemAddr) *MemConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.endpoints[addr]; ok && !c.closed.Load() {
		return c
	}
	c := &MemConn{
		net:   n,
		addr:  addr,
		inbox: make(chan memPacket, memInboxSlots),
	}
	n.endpoints[addr] = c
	return c
}

// Join adds an endpoint to a multicast group address.
func (n *MemNetwork) Join(group MemAddr, member MemAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.groups[group]
	if g == nil {
		g = make(map[MemAddr]bool)
		n.groups[group] = g
	}
	g[member] = true
}

// Leave removes an endpoint from a group.
func (n *MemNetwork) Leave(group MemAddr, member MemAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if g := n.groups[group]; g != nil {
		delete(g, member)
	}
}

func (n *MemNetwork) route(from MemAddr, to MemAddr, b []byte) {
	n.mu.Lock()
	// Stack-backed scratch: fan-outs wider than the arrays fall back to
	// the heap, but the common unicast/small-group case stays
	// allocation-free.
	var tbuf [16]MemAddr
	targets := tbuf[:0]
	if members, isGroup := n.groups[to]; isGroup {
		for m := range members {
			if m != from {
				targets = append(targets, m)
			}
		}
	} else {
		targets = append(targets, to)
	}
	// Box the source address once per datagram, cached across calls, so
	// ReadFrom can hand it back without a per-read allocation.
	src, ok := n.addrbox[from]
	if !ok {
		src = from
		n.addrbox[from] = src
	}
	type hop struct {
		c *MemConn
		d time.Duration
	}
	var hbuf [16]hop
	hops := hbuf[:0]
	cut := n.down[[2]MemAddr{from, to}] // group-level cut when to is a group
	for _, tgt := range targets {
		c, ok := n.endpoints[tgt]
		if !ok || c.closed.Load() {
			continue
		}
		if cut || n.down[[2]MemAddr{from, tgt}] {
			continue
		}
		p, ok := n.loss[[2]MemAddr{from, tgt}]
		if !ok {
			p = n.defLoss
		}
		if n.rnd.Bernoulli(p) {
			continue
		}
		d, ok := n.delay[[2]MemAddr{from, tgt}]
		if !ok {
			d = n.defDelay
		}
		j, ok := n.jitter[[2]MemAddr{from, tgt}]
		if !ok {
			j = n.defJitter
		}
		if j > 0 {
			d += time.Duration(n.rnd.Float64() * float64(j))
		}
		hops = append(hops, hop{c, d})
	}
	n.mu.Unlock()
	for _, h := range hops {
		bp := memPktPool.Get().(*[]byte)
		*bp = append((*bp)[:0], b...)
		pkt := memPacket{from: src, data: *bp, buf: bp}
		if h.d > 0 {
			go func(c *MemConn, pkt memPacket, d time.Duration) {
				time.Sleep(d)
				c.deliver(pkt)
			}(h.c, pkt, h.d)
		} else {
			h.c.deliver(pkt)
		}
	}
}

// memPktPool recycles per-hop datagram copies: a load test pushing
// hundreds of thousands of datagrams through a MemNetwork would
// otherwise allocate one buffer per hop. Buffers return to the pool
// when the packet is read or dropped.
var memPktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

type memPacket struct {
	from net.Addr // pre-boxed MemAddr so reads don't allocate
	data []byte
	buf  *[]byte // pooled backing store; recycled after read or drop
}

// recycle returns the packet's backing buffer to the pool.
func (p *memPacket) recycle() {
	if p.buf != nil {
		memPktPool.Put(p.buf)
		p.buf = nil
	}
}

// memInboxSlots is an endpoint's receive queue depth in datagrams;
// arrivals beyond it are dropped and counted (Overflows).
const memInboxSlots = 4096

// MemConn is one endpoint of a MemNetwork; it implements
// net.PacketConn.
type MemConn struct {
	net   *MemNetwork
	addr  MemAddr
	inbox chan memPacket
	mu    sync.Mutex

	// overflows counts datagrams dropped on a full inbox: a reader too
	// slow for its senders, the in-process router drop.
	overflows atomic.Uint64

	// closed is atomic so the network's routing fast path (which holds
	// only the network lock) can test liveness without racing Close;
	// mu still orders the closed-check against the inbox send/close.
	closed atomic.Bool

	deadlineMu sync.Mutex
	deadline   time.Time
}

// memTimerPool recycles read-deadline timers across ReadFrom calls.
// Pooling (rather than a per-conn timer field) keeps deadline reads
// allocation-free while staying correct when several goroutines read
// one conn concurrently — tests share endpoints to model multicast
// sockets, and a shared timer would let one reader's Reset clobber
// another's pending wait.
var memTimerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

func (c *MemConn) deliver(p memPacket) {
	// Hold the lock across the (non-blocking) send so Close cannot
	// close the inbox between the check and the send.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return
	}
	select {
	case c.inbox <- p:
	default: // queue overflow models router drop
		c.overflows.Add(1)
		c.net.overflows.Add(1)
		p.recycle()
	}
}

// Overflows returns how many datagrams bound for this endpoint were
// dropped because its inbox was full.
func (c *MemConn) Overflows() uint64 { return c.overflows.Load() }

// ReadFrom implements net.PacketConn.
func (c *MemConn) ReadFrom(b []byte) (int, net.Addr, error) {
	c.deadlineMu.Lock()
	dl := c.deadline
	c.deadlineMu.Unlock()
	var timeout <-chan time.Time
	var tm *time.Timer
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return 0, nil, timeoutError{}
		}
		tm = memTimerPool.Get().(*time.Timer)
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		tm.Reset(d)
		timeout = tm.C
	}
	defer func() {
		if tm == nil {
			return
		}
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		memTimerPool.Put(tm)
	}()
	select {
	case p, ok := <-c.inbox:
		if !ok {
			return 0, nil, net.ErrClosed
		}
		n := copy(b, p.data)
		p.recycle()
		return n, p.from, nil
	case <-timeout:
		return 0, nil, timeoutError{}
	}
}

// WriteTo implements net.PacketConn.
func (c *MemConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	to, ok := addr.(MemAddr)
	if !ok {
		return 0, fmt.Errorf("transport: MemConn cannot write to %T", addr)
	}
	c.net.route(c.addr, to, b)
	return len(b), nil
}

// Close implements net.PacketConn.
func (c *MemConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil
	}
	c.closed.Store(true)
	close(c.inbox)
	return nil
}

// LocalAddr implements net.PacketConn.
func (c *MemConn) LocalAddr() net.Addr { return c.addr }

// SetDeadline implements net.PacketConn.
func (c *MemConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (c *MemConn) SetReadDeadline(t time.Time) error {
	c.deadlineMu.Lock()
	c.deadline = t
	c.deadlineMu.Unlock()
	return nil
}

// SetWriteDeadline implements net.PacketConn (writes never block).
func (c *MemConn) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "transport: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
