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
	if c, ok := n.endpoints[addr]; ok && !c.Closed() {
		return c
	}
	c := &MemConn{
		Inbox: NewInbox(memInboxSlots, &n.overflows),
		net:   n,
		addr:  addr,
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
		if !ok || c.Closed() {
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
		if h.d <= 0 {
			h.c.Deliver(b, src)
			continue
		}
		pkt := newPacket(b, src)
		go func(c *MemConn, pkt *packet, d time.Duration) {
			time.Sleep(d)
			c.put(pkt)
		}(h.c, pkt, h.d)
	}
}

// memInboxSlots is an endpoint's receive queue depth in datagrams;
// arrivals beyond it are dropped and counted (Overflows).
const memInboxSlots = 4096

// MemConn is one endpoint of a MemNetwork; it implements
// net.PacketConn. Its Inbox counts the datagrams dropped on a full
// queue: a reader too slow for its senders, the in-process router
// drop.
type MemConn struct {
	*Inbox
	net  *MemNetwork
	addr MemAddr
}

// WriteTo implements net.PacketConn.
func (c *MemConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if c.Closed() {
		return 0, net.ErrClosed
	}
	to, ok := addr.(MemAddr)
	if !ok {
		return 0, fmt.Errorf("transport: MemConn cannot write to %T", addr)
	}
	c.net.route(c.addr, to, b)
	return len(b), nil
}

// LocalAddr implements net.PacketConn.
func (c *MemConn) LocalAddr() net.Addr { return c.addr }
