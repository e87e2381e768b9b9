// Package netio batches datagram I/O: many packets per syscall via
// sendmmsg/recvmmsg on Linux (amd64/arm64), with a portable
// one-at-a-time fallback everywhere else — including non-UDP
// net.PacketConn implementations such as the in-memory test network.
//
// The kernel fast path is reached through net.UDPConn.SyscallConn
// with raw syscalls (the module has no dependencies, so x/net/ipv4's
// ReadBatch/WriteBatch is reimplemented here in miniature). Deadlines
// set on the wrapped conn are honored on both paths: the raw path
// waits for readiness in the runtime poller, which is what enforces
// SetReadDeadline.
package netio

import (
	"fmt"
	"net"
)

// MaxBatch is the most packets moved per syscall; larger batches are
// split transparently.
const MaxBatch = 64

// MaxDatagram is the size of every read loop's buffers: the largest
// datagram UDP can carry, so no read ever truncates one.
const MaxDatagram = 64 << 10

// BatchConn wraps a net.PacketConn with batch send/receive.
// Not safe for concurrent use of the same direction; one reader and
// one writer goroutine may operate concurrently (matching UDP socket
// semantics).
type BatchConn struct {
	pc net.PacketConn
	mm *mmsgConn // nil when the platform or conn can't batch
}

// Wrap returns a BatchConn over pc, enabling the mmsg fast path when
// pc is a *net.UDPConn on a supported platform.
func Wrap(pc net.PacketConn) *BatchConn {
	return &BatchConn{pc: pc, mm: newMMsgConn(pc)}
}

// WrapPortable returns a BatchConn that always uses the portable
// one-packet-per-syscall path — the code every non-Linux build runs.
// Constructible on any platform so the fallback gets direct unit
// coverage in Linux CI instead of only ever executing on machines the
// tests never see.
func WrapPortable(pc net.PacketConn) *BatchConn {
	return &BatchConn{pc: pc}
}

// Batched reports whether the kernel batch path is active.
func (c *BatchConn) Batched() bool { return c.mm != nil }

// Conn returns the wrapped PacketConn (for deadlines and Close).
func (c *BatchConn) Conn() net.PacketConn { return c.pc }

// WriteBatch sends every packet to dest, batching syscalls when it
// can, and returns the number of packets sent. A short count with a
// nil error cannot happen: on error, sent counts the packets that
// made it out first.
func (c *BatchConn) WriteBatch(dest net.Addr, packets [][]byte) (sent int, err error) {
	if c.mm != nil {
		if n, handled, err := c.mm.writeBatch(dest, packets); handled {
			return n, err
		}
	}
	for i, p := range packets {
		if _, err := c.pc.WriteTo(p, dest); err != nil {
			return i, err
		}
	}
	return len(packets), nil
}

// WriteBatchAddrs sends packets[i] to dests[i] — the session fabric's
// shared link, where one batch carries many tenants' datagrams bound
// for different receivers. The kernel path stamps a per-message
// sockaddr on one sendmmsg; it applies only when every destination is
// UDP/IPv4, otherwise the whole batch falls back to one WriteTo per
// packet. On error, sent counts the packets that made it out first.
func (c *BatchConn) WriteBatchAddrs(packets [][]byte, dests []net.Addr) (sent int, err error) {
	if len(packets) != len(dests) {
		return 0, fmt.Errorf("netio: %d packets but %d destinations", len(packets), len(dests))
	}
	if c.mm != nil {
		if n, handled, err := c.mm.writeBatchAddrs(packets, dests); handled {
			return n, err
		}
	}
	for i, p := range packets {
		if _, err := c.pc.WriteTo(p, dests[i]); err != nil {
			return i, err
		}
	}
	return len(packets), nil
}

// ReadBatch fills up to len(bufs) packets, returning how many arrived
// in one batch. sizes[i] receives packet i's length and addrs[i] its
// source. On the fallback path exactly one packet is read per call.
// Returned addrs are only valid until the next ReadBatch.
func (c *BatchConn) ReadBatch(bufs [][]byte, sizes []int, addrs []net.Addr) (int, error) {
	if c.mm != nil {
		if n, handled, err := c.mm.readBatch(bufs, sizes, addrs); handled {
			return n, err
		}
	}
	n, addr, err := c.pc.ReadFrom(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	addrs[0] = addr
	return 1, nil
}
