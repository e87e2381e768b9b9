package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// packet is one queued datagram: a pooled header that owns a pooled
// buffer, so a queue slot is one pointer and a steady stream of
// datagrams allocates nothing.
type packet struct {
	from net.Addr
	data []byte
}

var packetPool = sync.Pool{New: func() any {
	return &packet{data: make([]byte, 0, 2048)}
}}

// newPacket copies b into a pooled packet from the given source.
func newPacket(b []byte, from net.Addr) *packet {
	p := packetPool.Get().(*packet)
	p.data = append(p.data[:0], b...)
	p.from = from
	return p
}

// recycle returns the packet (header and buffer) to the pool.
func (p *packet) recycle() {
	p.from = nil
	packetPool.Put(p)
}

// Inbox is the read side of every in-process conn — MemConn,
// StreamConn and the session fabric's demux ports: a bounded queue of
// pooled datagrams with a socket's read semantics. Deliver never
// blocks; a full queue drops the datagram and counts it, as a
// congested router would. ReadFrom honors a read deadline, is safe
// for concurrent readers, and truncates silently into a short buffer,
// as a datagram socket does. Writes on the conns that embed an Inbox
// queue and never block, so their write deadline is a no-op.
type Inbox struct {
	ch chan *packet

	// mu orders put's closed check against Close, so nothing is sent
	// on a closed channel; closed is atomic so routers can test
	// liveness without the lock.
	mu     sync.Mutex
	closed atomic.Bool

	// wake is closed and replaced whenever a deadline that has already
	// passed is set, so readers blocked under an older deadline (or
	// none) return a timeout at once. A future deadline leaves it be,
	// so the deadline set before each read allocates nothing.
	deadlineMu sync.Mutex
	deadline   time.Time
	wake       chan struct{}

	overflows atomic.Uint64
	total     *atomic.Uint64 // optional aggregate across inboxes
}

// NewInbox returns an inbox holding at most slots datagrams. Overflow
// drops are counted on the inbox and, when total is non-nil, on total
// too — a network- or demux-wide count.
func NewInbox(slots int, total *atomic.Uint64) *Inbox {
	return &Inbox{ch: make(chan *packet, slots), wake: make(chan struct{}), total: total}
}

// Deliver copies b into the queue as a datagram from from. It reports
// whether the datagram was dropped because the queue was full;
// delivery to a closed inbox is a silent no-op.
func (q *Inbox) Deliver(b []byte, from net.Addr) (overflow bool) {
	if q.closed.Load() {
		return false
	}
	return q.put(newPacket(b, from))
}

// put queues an already-copied packet, taking ownership of it.
func (q *Inbox) put(p *packet) (overflow bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed.Load() {
		p.recycle()
		return false
	}
	select {
	case q.ch <- p:
		return false
	default:
		p.recycle()
		q.overflows.Add(1)
		if q.total != nil {
			q.total.Add(1)
		}
		return true
	}
}

// Overflows returns how many datagrams were dropped on a full queue.
func (q *Inbox) Overflows() uint64 { return q.overflows.Load() }

// Closed reports whether Close has been called.
func (q *Inbox) Closed() bool { return q.closed.Load() }

// timerPool recycles read-deadline timers across ReadFrom calls.
// Pooling (rather than a per-inbox timer) keeps deadline reads
// allocation-free while staying correct when several goroutines read
// one conn concurrently — tests share endpoints to model multicast
// sockets, and a shared timer would let one reader's Reset clobber
// another's pending wait.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// ReadFrom implements net.PacketConn's read: the next queued datagram,
// a timeout error once the read deadline passes or a past deadline is
// set, or net.ErrClosed after Close. A datagram already queued is
// returned without arming a timer.
func (q *Inbox) ReadFrom(b []byte) (int, net.Addr, error) {
	q.deadlineMu.Lock()
	dl, wake := q.deadline, q.wake
	q.deadlineMu.Unlock()
	var wait time.Duration
	if !dl.IsZero() {
		if wait = time.Until(dl); wait <= 0 {
			return 0, nil, timeoutError{}
		}
	}
	select {
	case p, ok := <-q.ch:
		return q.take(b, p, ok)
	default:
	}
	if dl.IsZero() {
		select {
		case p, ok := <-q.ch:
			return q.take(b, p, ok)
		case <-wake:
			return 0, nil, timeoutError{}
		}
	}
	// The module's go version keeps buffered timer channels, so a
	// timer that fired unread must be drained before it is reused.
	tm := timerPool.Get().(*time.Timer)
	tm.Reset(wait)
	defer func() {
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		timerPool.Put(tm)
	}()
	select {
	case p, ok := <-q.ch:
		return q.take(b, p, ok)
	case <-tm.C:
		return 0, nil, timeoutError{}
	case <-wake:
		return 0, nil, timeoutError{}
	}
}

func (q *Inbox) take(b []byte, p *packet, ok bool) (int, net.Addr, error) {
	if !ok {
		return 0, nil, net.ErrClosed
	}
	n := copy(b, p.data)
	from := p.from
	p.recycle()
	return n, from, nil
}

// Close wakes blocked readers with net.ErrClosed and recycles whatever
// was still queued. It is idempotent.
func (q *Inbox) Close() error {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return nil
	}
	q.closed.Store(true)
	close(q.ch)
	q.mu.Unlock()
	for p := range q.ch {
		p.recycle()
	}
	return nil
}

// SetDeadline implements net.PacketConn: only reads can time out.
func (q *Inbox) SetDeadline(t time.Time) error { return q.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn. A time not after now
// wakes every blocked reader with a timeout.
func (q *Inbox) SetReadDeadline(t time.Time) error {
	q.deadlineMu.Lock()
	q.deadline = t
	if !t.IsZero() && !t.After(time.Now()) {
		close(q.wake)
		q.wake = make(chan struct{})
	}
	q.deadlineMu.Unlock()
	return nil
}

// SetWriteDeadline implements net.PacketConn: writes never block.
func (q *Inbox) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "transport: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
