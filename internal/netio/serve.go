package netio

import (
	"net"
	"sync"
	"time"
)

// readBatch is how many datagrams one read can surface on the kernel
// batch path (one recvmmsg on Linux). Every other conn is read one
// datagram at a time, so its loop holds a single buffer.
const readBatch = 8

// pollInterval is how far ahead the read loop sets the read deadline
// before every read. Endpoints may share one conn (tests model a
// multicast socket that way), so the past deadline one endpoint's stop
// sets also wakes the others' reads; they time out, re-arm and read
// on. The deadline also bounds how long a stop can wait when another
// endpoint re-arms between the stop's wake and the read it meant to
// wake.
const pollInterval = 200 * time.Millisecond

// bufPool recycles the read loops' MaxDatagram buffers, so short-lived
// endpoints (per-session receivers, test harnesses) do not each
// allocate fresh 64 KiB buffers.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, MaxDatagram)
	return &b
}}

// Serve starts pc's read loop on one goroutine and returns the
// function that stops it. The loop calls fn once per datagram, in
// arrival order; b and from are valid only until fn returns, since
// the loop reuses its buffers and, on the kernel batch path, its
// address structs. A read timeout re-arms the deadline and reads
// again; any other read error (the conn was closed) ends the loop.
//
// stop sets a read deadline of now, which wakes a blocked read, and
// waits for the loop to exit. It may be called more than once. It
// does not close pc: the caller owns the conn.
func Serve(pc net.PacketConn, fn func(b []byte, from net.Addr)) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		serve(pc, fn, done)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			_ = pc.SetReadDeadline(time.Now())
		})
		<-exited
	}
}

func serve(pc net.PacketConn, fn func([]byte, net.Addr), done <-chan struct{}) {
	bc := Wrap(pc)
	batch := 1
	if bc.Batched() {
		batch = readBatch
	}
	bps := make([]*[]byte, batch)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bps[i] = bufPool.Get().(*[]byte)
		bufs[i] = *bps[i]
	}
	defer func() {
		for _, bp := range bps {
			bufPool.Put(bp)
		}
	}()
	sizes := make([]int, batch)
	addrs := make([]net.Addr, batch)
	for {
		// Arm the deadline before looking at done: a stop that lands
		// after the look sets its past deadline after this one, so the
		// read below cannot sleep through it.
		_ = pc.SetReadDeadline(time.Now().Add(pollInterval))
		select {
		case <-done:
			return
		default:
		}
		n, err := bc.ReadBatch(bufs, sizes, addrs)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		for i := 0; i < n; i++ {
			fn(bufs[i][:sizes[i]], addrs[i])
		}
	}
}
