package main

import (
	"net"
	"sync"
	"sync/atomic"

	"softstate/internal/protocol"
	"softstate/internal/transport"
)

// wire is the harness's view of the network: every mem conn it hands
// to the stack is wrapped, so bytes and datagrams are counted where
// they cross the stack's boundary — including the control traffic of
// receivers, which no Stats() reports. Untraced, a wrapped conn costs
// two atomic adds per datagram. Traced, it also decodes each datagram
// to classify it and to record wire.tx / wire.rx events.
type wire struct {
	tr *tracer // nil when untraced

	// groups mirrors MemNetwork.Join so a write's fan-out is known:
	// expected − received is every datagram that vanished, whether to
	// injected loss or to a full inbox (which nothing else counts).
	// Filled during set-up, read-only once the stack runs.
	groups map[string]map[string]bool

	txBytes      atomic.Int64
	txDatagrams  atomic.Int64
	expected     atomic.Int64 // deliveries the writes should have produced
	rxDatagrams  atomic.Int64
	dataBytes    atomic.Int64 // traced only: Data / DataBatch datagrams
	controlBytes atomic.Int64 // traced only: everything else
}

func newWire(tr *tracer) *wire {
	return &wire{tr: tr, groups: make(map[string]map[string]bool)}
}

// join mirrors nw.Join(group, member).
func (w *wire) join(group, member string) {
	g := w.groups[group]
	if g == nil {
		g = make(map[string]bool)
		w.groups[group] = g
	}
	g[member] = true
}

func (w *wire) fanout(from, to string) int64 {
	g, ok := w.groups[to]
	if !ok {
		return 1
	}
	n := int64(len(g))
	if g[from] {
		n--
	}
	return n
}

// layer adds this wire's counters to the transport.* rows (adds: a
// flood builds a fresh wire per round).
func (w *wire) layer(m map[string]float64) {
	m["transport.lost_datagrams"] += float64(w.expected.Load() - w.rxDatagrams.Load())
	m["transport.data_bytes"] += float64(w.dataBytes.Load())
	m["transport.control_bytes"] += float64(w.controlBytes.Load())
}

// wrap returns conn with counting (and, traced, span recording) on
// both directions. node names the stack instance that owns the conn;
// a relay's two conns share one node so a record's arrival upstream
// and departure downstream pair up.
func (w *wire) wrap(conn transport.Conn, node string) transport.Conn {
	c := &wconn{Conn: conn, w: w, local: conn.LocalAddr().String()}
	if w.tr != nil {
		c.node = w.tr.node(node)
		w.tr.bind(c.local, c.node)
		c.txDec, c.rxDec = protocol.NewDecoder(), protocol.NewDecoder()
	}
	return c
}

type wconn struct {
	transport.Conn
	w     *wire
	local string
	node  int32

	// The stack writes a conn from several goroutines (send loop,
	// control replies, timers) and a Decoder is single-owner.
	txMu  sync.Mutex
	txDec *protocol.Decoder
	rxMu  sync.Mutex
	rxDec *protocol.Decoder
}

func (c *wconn) WriteTo(b []byte, addr net.Addr) (int, error) {
	w := c.w
	var t0 int64
	if w.tr != nil {
		t0 = w.tr.now()
	}
	n, err := c.Conn.WriteTo(b, addr)
	if err != nil {
		return n, err
	}
	w.txBytes.Add(int64(len(b)))
	w.txDatagrams.Add(1)
	w.expected.Add(w.fanout(c.local, addr.String()))
	if w.tr != nil {
		t1 := w.tr.now()
		c.txMu.Lock()
		c.classify(c.txDec, b, evTx, -1, t0, t1)
		c.txMu.Unlock()
	}
	return n, nil
}

func (c *wconn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := c.Conn.ReadFrom(b)
	if err != nil {
		return n, from, err
	}
	w := c.w
	w.rxDatagrams.Add(1)
	if w.tr != nil {
		t1 := w.tr.now()
		c.rxMu.Lock()
		c.classify(c.rxDec, b[:n], evRx, w.tr.peer(from.String()), t1, t1)
		c.rxMu.Unlock()
	}
	return n, from, nil
}

// classify decodes one datagram, books its bytes as data or control
// (transmit side only, so nothing is counted twice) and records an
// event per sampled record it carries.
func (c *wconn) classify(dec *protocol.Decoder, b []byte, kind evKind, peer int32, t0, t1 int64) {
	_, msg, err := dec.Decode(b)
	if err != nil {
		return
	}
	isData := true
	switch m := msg.(type) {
	case *protocol.Data:
		c.emit(kind, peer, t0, t1, m)
	case *protocol.DataBatch:
		for i := range m.Records {
			c.emit(kind, peer, t0, t1, &m.Records[i])
		}
	default:
		isData = false
	}
	if kind == evTx {
		if isData {
			c.w.dataBytes.Add(int64(len(b)))
		} else {
			c.w.controlBytes.Add(int64(len(b)))
		}
	}
}

func (c *wconn) emit(kind evKind, peer int32, t0, t1 int64, r *protocol.Data) {
	if r.Deleted {
		return
	}
	if seq, _, ok := decodeValue(r.Value); ok {
		c.w.tr.record(kind, c.node, peer, t0, t1, r.Key, seq)
	}
}
