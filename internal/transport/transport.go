// Package transport abstracts the wire under SSTP. The protocol layer
// is datagram-shaped — announcements, digests, NACKs, and queries are
// self-contained ALF frames — so the only contract a transport must
// honor is datagram boundaries and best-effort delivery. Everything
// else (loss, reordering, even in-order stream delivery) is policy the
// soft-state machinery above already tolerates.
//
// A Transport binds local endpoints and resolves peer addresses for
// one wire scheme:
//
//	udp   real datagrams; the netio sendmmsg/recvmmsg batch path
//	      applies unchanged (Listen returns a *net.UDPConn).
//	tcp   length-prefixed framing over TCP streams: each WriteTo
//	      carries one exact protocol datagram as one frame, with
//	      drop-don't-block semantics via a bounded per-peer queue.
//	tls   the tcp framing over crypto/tls, with optional mTLS.
//	mem   the in-process lossy MemNetwork (tests and benches).
//
// Every Listen returns a Conn — an ordinary net.PacketConn — so the
// sstp sender/receiver, the relay, and the session fabric run over any
// scheme without knowing which one they got. Single-record UDP wire
// bytes are untouched by this layer: the udp transport hands back the
// raw socket, and the stream transports carry the identical datagram
// bytes as frame payloads.
package transport

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// Conn is the framed datagram connection every transport yields.
// It is exactly net.PacketConn: WriteTo sends one protocol datagram,
// ReadFrom receives one, and boundaries are preserved whatever the
// wire underneath looks like.
type Conn = net.PacketConn

// Transport binds local conns and resolves destination addresses for
// one wire scheme.
type Transport interface {
	// Scheme returns the URL scheme this transport serves (udp, tcp,
	// tls, mem).
	Scheme() string

	// Listen binds a local endpoint. The returned Conn's WriteTo may
	// dial peers lazily (stream transports), so a "listener" is also
	// the dialing side.
	Listen(address string) (Conn, error)

	// Resolve turns an address string into the net.Addr WriteTo
	// expects for this scheme.
	Resolve(address string) (net.Addr, error)
}

// Options tunes transport construction. The zero value is ready to
// use.
type Options struct {
	// TLSServer / TLSClient configure the tls scheme's two sides. A
	// tls listener with a nil TLSServer generates an ephemeral
	// self-signed pair; a nil TLSClient skips certificate verification
	// (the lab default — pass a config with RootCAs to verify).
	TLSServer *TLSConfig
	TLSClient *TLSConfig

	// MaxFrame caps a stream frame's payload length both directions
	// (default DefaultMaxFrame, sized to admit any legal protocol
	// datagram).
	MaxFrame int

	// PeerQueue bounds each peer's pending outbound frames on stream
	// transports; a full queue drops the datagram instead of blocking
	// the send loop (default 256).
	PeerQueue int

	// DialTimeout bounds stream dials (default 5s); WriteTimeout
	// bounds one frame write to a stuck peer before the link is torn
	// down (default 10s).
	DialTimeout  time.Duration
	WriteTimeout time.Duration

	// Mem is the backing network for the mem scheme (required for it,
	// ignored elsewhere).
	Mem *MemNetwork
}

// New returns the Transport for scheme under o. Known schemes are
// udp, tcp, tls, and mem.
func New(scheme string, o Options) (Transport, error) {
	switch scheme {
	case "udp":
		return UDP{}, nil
	case "tcp":
		return newStreamTransport("tcp", o)
	case "tls":
		return newStreamTransport("tls", o)
	case "mem":
		if o.Mem == nil {
			return nil, fmt.Errorf("transport: mem scheme needs Options.Mem")
		}
		return o.Mem.Transport(), nil
	default:
		return nil, fmt.Errorf("transport: unknown scheme %q (want udp, tcp, tls, or mem)", scheme)
	}
}

// Endpoint is a parsed link spec: a scheme plus a scheme-specific
// address.
type Endpoint struct {
	Scheme  string
	Address string
}

// String renders the endpoint back to scheme://address form.
func (e Endpoint) String() string { return e.Scheme + "://" + e.Address }

// ParseEndpoint parses a URL-style link spec ("tcp://host:port").
// Bare "host:port" specs — every address the daemons accepted before
// schemes existed — default to udp.
func ParseEndpoint(spec string) (Endpoint, error) {
	return ParseEndpointDefault(spec, "udp")
}

// ParseEndpointDefault parses spec like ParseEndpoint but applies
// defScheme to bare specs, so a daemon's -transport flag can retarget
// plain host:port addresses without rewriting them.
func ParseEndpointDefault(spec, defScheme string) (Endpoint, error) {
	e := Endpoint{Scheme: defScheme, Address: spec}
	if s, rest, ok := strings.Cut(spec, "://"); ok {
		e.Scheme, e.Address = s, rest
	}
	switch e.Scheme {
	case "udp", "tcp", "tls", "mem":
	default:
		return Endpoint{}, fmt.Errorf("transport: unknown scheme %q in %q (want udp, tcp, tls, or mem)", e.Scheme, spec)
	}
	if e.Address == "" {
		return Endpoint{}, fmt.Errorf("transport: empty address in %q", spec)
	}
	if e.Scheme != "mem" {
		if _, _, err := net.SplitHostPort(e.Address); err != nil {
			return Endpoint{}, fmt.Errorf("transport: %q: %v", spec, err)
		}
	}
	return e, nil
}

// bind parses spec (bare addresses defaulting to defScheme),
// constructs its transport under o, and listens — the setup path
// behind Flags.Bind.
func bind(spec, defScheme string, o Options) (Transport, Conn, error) {
	e, err := ParseEndpointDefault(spec, defScheme)
	if err != nil {
		return nil, nil, err
	}
	t, err := New(e.Scheme, o)
	if err != nil {
		return nil, nil, err
	}
	c, err := t.Listen(e.Address)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: listen %s: %w", e, err)
	}
	return t, c, nil
}

// Resolve parses spec against t's scheme — bare addresses inherit it,
// and an explicit mismatching scheme is an error, because a conn can
// only reach peers on its own wire.
func Resolve(t Transport, spec string) (net.Addr, error) {
	e, err := ParseEndpointDefault(spec, t.Scheme())
	if err != nil {
		return nil, err
	}
	if e.Scheme != t.Scheme() {
		return nil, fmt.Errorf("transport: destination %s does not match transport scheme %s", e, t.Scheme())
	}
	return t.Resolve(e.Address)
}

// UDP is the real-datagram transport: Listen returns the raw
// *net.UDPConn, so netio's sendmmsg/recvmmsg batching and the exact
// pre-abstraction wire bytes apply unchanged.
type UDP struct{}

// Scheme implements Transport.
func (UDP) Scheme() string { return "udp" }

// Listen implements Transport.
func (UDP) Listen(address string) (Conn, error) {
	return net.ListenPacket("udp", address)
}

// Resolve implements Transport.
func (UDP) Resolve(address string) (net.Addr, error) {
	return net.ResolveUDPAddr("udp", address)
}
