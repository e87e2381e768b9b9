// Package protocol defines SSTP's wire formats: data announcements,
// namespace summary announcements, NACKs, namespace queries and
// responses, and RTCP-style receiver reports. Messages are encoded in
// a compact binary form (network byte order, length-prefixed strings)
// with strict bounds checking on decode — a malformed datagram must
// never panic or over-allocate.
//
// Framing is per-datagram (one message per UDP packet), following the
// ALF principle that each transmission is an independent application
// data unit. A DataBatch datagram coalesces several small records into
// one packet up to the path MTU; each record inside it is still a
// complete, independently-framed ADU (see batch.go).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Protocol constants.
const (
	Magic   = 0x53535450 // "SSTP"
	Version = 1

	// MaxKeyLen bounds key and namespace path lengths on the wire.
	MaxKeyLen = 1024
	// MaxValueLen bounds announcement payloads (one ADU per datagram).
	MaxValueLen = 60000
	// MaxBatch bounds the number of items in NACKs, summaries, and
	// digest lists.
	MaxBatch = 256
	// DigestLen is the length of namespace digests on the wire
	// (SHA-256 truncated to 16 bytes; see internal/namespace).
	DigestLen = 16

	// DefaultScope is the hop budget stamped on datagrams when the
	// sender does not choose one. Each relay hop re-publishes with the
	// budget decremented, so a forwarding loop dies out after at most
	// DefaultScope hops instead of circulating forever.
	DefaultScope = 32
)

// MsgType discriminates the message kinds.
type MsgType uint8

// Message kinds.
const (
	TypeData      MsgType = 1 // announcement of one {key, value} record
	TypeSummary   MsgType = 2 // digest of a namespace subtree
	TypeNACK      MsgType = 3 // receiver repair request
	TypeQuery     MsgType = 4 // namespace descent query
	TypeDigests   MsgType = 5 // response: child digests of a node
	TypeReport    MsgType = 6 // RTCP-style receiver report
	TypeGoodbye   MsgType = 7 // publisher is leaving; flush state
	TypeHeartbit  MsgType = 8 // keepalive when the table is empty
	TypeDataBatch MsgType = 9 // several coalesced record announcements
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeSummary:
		return "SUMMARY"
	case TypeNACK:
		return "NACK"
	case TypeQuery:
		return "QUERY"
	case TypeDigests:
		return "DIGESTS"
	case TypeReport:
		return "REPORT"
	case TypeGoodbye:
		return "GOODBYE"
	case TypeHeartbit:
		return "HEARTBEAT"
	case TypeDataBatch:
		return "DATABATCH"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Decode errors.
var (
	ErrShort      = errors.New("protocol: datagram too short")
	ErrMagic      = errors.New("protocol: bad magic")
	ErrVersion    = errors.New("protocol: unsupported version")
	ErrType       = errors.New("protocol: unknown message type")
	ErrOversize   = errors.New("protocol: field exceeds limit")
	ErrTrailing   = errors.New("protocol: trailing bytes")
	ErrBadPayload = errors.New("protocol: malformed payload")
)

// Message is any SSTP wire message.
type Message interface {
	Type() MsgType
	// encodeBody appends the body (everything after the common
	// header) to dst.
	encodeBody(dst []byte) []byte
}

// Header is the common prefix of every message.
type Header struct {
	Session uint64 // session identifier
	Sender  uint64 // sender identifier (SSRC-like)
	Seq     uint32 // per-sender sequence number (gap detection)

	// Scope is the remaining relay hop budget (an IP-TTL analogue for
	// the application-level overlay): a relay only re-publishes what it
	// hears when Scope > 1, stamping Scope-1 downstream. Receivers set
	// Scope 1 on repair traffic (NACKs, queries, reports) so recovery
	// never travels past the nearest replica. 0 means unscoped and is
	// treated as DefaultScope by relays.
	Scope uint8
}

const headerLen = 4 + 1 + 1 + 1 + 8 + 8 + 4 // magic, version, type, scope, session, sender, seq

// HeaderLen is the wire size of the common datagram header; senders
// budgeting coalesced datagrams against an MTU start from it.
const HeaderLen = headerLen

// encScratch recycles Encode's working buffers so the convenience
// entry point costs exactly one allocation (the returned datagram)
// instead of paying AppendEncode's growth reallocations each call.
var encScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Encode serializes hdr+msg into a fresh buffer. It routes through
// AppendEncode with a pooled scratch buffer, so the output bytes are
// identical to AppendEncode's (pinned by unit test and fuzz target)
// and the only allocation is the returned slice.
func Encode(hdr Header, msg Message) []byte {
	bp := encScratch.Get().(*[]byte)
	b := AppendEncode((*bp)[:0], hdr, msg)
	out := make([]byte, len(b))
	copy(out, b)
	*bp = b[:0]
	encScratch.Put(bp)
	return out
}

// appendHeader writes the common datagram prefix for a message of
// type t.
func appendHeader(dst []byte, hdr Header, t MsgType) []byte {
	dst = binary.BigEndian.AppendUint32(dst, Magic)
	dst = append(dst, Version, byte(t), hdr.Scope)
	dst = binary.BigEndian.AppendUint64(dst, hdr.Session)
	dst = binary.BigEndian.AppendUint64(dst, hdr.Sender)
	return binary.BigEndian.AppendUint32(dst, hdr.Seq)
}

// AppendEncode serializes hdr+msg, appending the datagram to dst and
// returning the extended slice. The appended bytes are byte-identical
// to Encode's output (pinned by unit test and fuzz target); callers on
// hot paths pass a reused buffer and allocate nothing.
func AppendEncode(dst []byte, hdr Header, msg Message) []byte {
	return msg.encodeBody(appendHeader(dst, hdr, msg.Type()))
}

// PeekSession extracts the session id from an encoded datagram
// without decoding the rest — the hot path of a session-fabric demux
// routing one shared port's traffic to per-session endpoints. It
// reports false when b is too short to hold a header or does not
// carry SSTP magic and version; routing decisions need no more
// validation than that, because the per-session endpoint fully
// decodes (and rejects) the datagram anyway.
func PeekSession(b []byte) (uint64, bool) {
	if len(b) < headerLen || binary.BigEndian.Uint32(b) != Magic || b[4] != Version {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[7:]), true
}

// Decode parses a datagram into its header and message. It runs the
// one decoder, Decoder, through a throwaway instance, so the result is
// the caller's to keep.
func Decode(b []byte) (Header, Message, error) {
	d := Decoder{names: make(map[string]string)}
	return d.Decode(b)
}

// --- primitive helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBytes32(dst []byte, p []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

// --- Data ---

// Data announces one {key, value} record: the current version, its
// remaining lifetime (the receiver-side expiry timer is set to TTL),
// the origin publish time, and the opaque value.
type Data struct {
	Key     string
	Ver     uint64
	TTLms   uint32 // receiver-side soft-state timer in milliseconds
	BornMs  uint64 // origin publish time of this version, Unix ms (0 = unknown)
	Value   []byte
	Deleted bool // tombstone: receiver should drop the key
}

// Type implements Message.
func (*Data) Type() MsgType { return TypeData }

func (d *Data) encodeBody(dst []byte) []byte {
	flag := byte(0)
	if d.Deleted {
		flag = 1
	}
	dst = append(dst, flag)
	dst = appendString(dst, d.Key)
	dst = binary.BigEndian.AppendUint64(dst, d.Ver)
	dst = binary.BigEndian.AppendUint32(dst, d.TTLms)
	dst = binary.BigEndian.AppendUint64(dst, d.BornMs)
	return appendBytes32(dst, d.Value)
}

// --- Summary ---

// Summary is a "cold" announcement carrying the digest of a namespace
// subtree (usually the root). Receivers compare it against their local
// digest; a mismatch triggers a Query for that path.
type Summary struct {
	Path   string // namespace path ("" = root)
	Digest [DigestLen]byte
	Count  uint32 // number of leaves under the node (descent hint)
}

// Type implements Message.
func (*Summary) Type() MsgType { return TypeSummary }

func (s *Summary) encodeBody(dst []byte) []byte {
	dst = appendString(dst, s.Path)
	dst = append(dst, s.Digest[:]...)
	return binary.BigEndian.AppendUint32(dst, s.Count)
}

// --- NACK ---

// NACK requests retransmission of specific keys.
type NACK struct {
	Keys []string
}

// Type implements Message.
func (*NACK) Type() MsgType { return TypeNACK }

func (n *NACK) encodeBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(n.Keys)))
	for _, k := range n.Keys {
		dst = appendString(dst, k)
	}
	return dst
}

// --- Query ---

// Query asks the sender (or any session participant) for the child
// digests of a namespace node, driving the recursive-descent repair.
type Query struct {
	Path string
}

// Type implements Message.
func (*Query) Type() MsgType { return TypeQuery }

func (q *Query) encodeBody(dst []byte) []byte { return appendString(dst, q.Path) }

// --- Digests ---

// ChildDigest is one entry of a Digests response.
type ChildDigest struct {
	Name   string // path component relative to the queried node
	Leaf   bool   // true if the child is a leaf ADU
	Digest [DigestLen]byte
}

// Digests answers a Query with the queried node's children and their
// digests, letting the receiver recurse into mismatching branches.
type Digests struct {
	Path     string
	Children []ChildDigest
}

// Type implements Message.
func (*Digests) Type() MsgType { return TypeDigests }

func (d *Digests) encodeBody(dst []byte) []byte {
	dst = appendString(dst, d.Path)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Children)))
	for _, c := range d.Children {
		flag := byte(0)
		if c.Leaf {
			flag = 1
		}
		dst = append(dst, flag)
		dst = appendString(dst, c.Name)
		dst = append(dst, c.Digest[:]...)
	}
	return dst
}

// --- Report ---

// Report is an RTCP-style receiver report: the sender uses the loss
// estimate to drive the profile-based bandwidth allocator.
type Report struct {
	Received  uint32
	Expected  uint32
	LossQ16   uint16 // loss fraction in Q0.16 fixed point
	DelayMs   uint32 // smoothed one-way delay estimate, milliseconds
	Timestamp uint64 // sender-echoed timestamp (units are app-defined)
}

// Type implements Message.
func (*Report) Type() MsgType { return TypeReport }

// Loss returns the loss fraction as a float in [0, 1].
func (r *Report) Loss() float64 { return float64(r.LossQ16) / 65535 }

// SetLoss stores a loss fraction, clamping to [0, 1].
func (r *Report) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	r.LossQ16 = uint16(math.Round(p * 65535))
}

func (r *Report) encodeBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.Received)
	dst = binary.BigEndian.AppendUint32(dst, r.Expected)
	dst = binary.BigEndian.AppendUint16(dst, r.LossQ16)
	dst = binary.BigEndian.AppendUint32(dst, r.DelayMs)
	return binary.BigEndian.AppendUint64(dst, r.Timestamp)
}

func (r *Report) decodeBody(b []byte) error {
	if len(b) < 22 {
		return ErrShort
	}
	if len(b) > 22 {
		return ErrTrailing
	}
	r.Received = binary.BigEndian.Uint32(b)
	r.Expected = binary.BigEndian.Uint32(b[4:])
	r.LossQ16 = binary.BigEndian.Uint16(b[8:])
	r.DelayMs = binary.BigEndian.Uint32(b[10:])
	r.Timestamp = binary.BigEndian.Uint64(b[14:])
	return nil
}

// --- Goodbye / Heartbeat ---

// Goodbye announces that the publisher is leaving the session.
type Goodbye struct{}

// Type implements Message.
func (*Goodbye) Type() MsgType { return TypeGoodbye }

func (*Goodbye) encodeBody(dst []byte) []byte { return dst }

func (*Goodbye) decodeBody(b []byte) error {
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}

// Heartbeat keeps the session's sequence space warm when there is no
// data to announce, so receivers can still estimate loss.
type Heartbeat struct{}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbit }

func (*Heartbeat) encodeBody(dst []byte) []byte { return dst }

func (*Heartbeat) decodeBody(b []byte) error {
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}
