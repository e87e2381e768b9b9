// Package descent is the one copy of the paper's §6.2 repair exchange
// that every replica runs. A summary mismatch opens a Query for a
// path; the answer lists that node's children with their digests
// (Answer); comparing the listing with the local children (Step)
// yields the interior nodes to Query next and the leaves to NACK. A
// replica that answers a NACK from what it holds sends the record
// Repair encodes.
//
// The package holds no state, sockets, goroutines, locks or clock. The
// sstp sender and receiver and the gossip node call it and keep their
// own policy: whom they ask, when and how often, and whether they
// answer a NACK at all.
package descent

import (
	"math"

	"softstate/internal/namespace"
	"softstate/internal/protocol"
)

// Repair returns the wire record that answers a NACK for a held
// record: version, value (not copied), origin time born (0 = unknown)
// and the lifetime left at now, rounded up to whole milliseconds so a
// live record never reads as immortal: TTLms is 0 only when expires is
// +Inf. ok is false once the record has lapsed. Times are in seconds.
func Repair(key string, ver uint64, value []byte, born, expires, now float64) (rec protocol.Data, ok bool) {
	var ttl uint32
	if !math.IsInf(expires, 1) {
		rem := expires - now
		if rem <= 0 {
			return protocol.Data{}, false
		}
		ttl = uint32(min(math.Ceil(rem*1000), math.MaxUint32))
	}
	// Rounding, not truncation: a born read off the wire as BornMs/1000
	// encodes back to the same BornMs.
	return protocol.Data{Key: key, Ver: ver, TTLms: ttl, BornMs: uint64(math.Round(born * 1000)), Value: value}, true
}

// Answer appends to dst the Digests replies to a Query for path, whose
// node has the sorted children kids. Each message lists at most
// protocol.MaxBatch children, so a wide node is split across several
// messages and never truncated; a node without children is answered
// with one empty listing. Elements in dst's spare capacity lend their
// Children storage, so a caller that passes back its previous result
// re-sliced to zero answers without allocating.
func Answer(dst []protocol.Digests, path string, kids []namespace.Child) []protocol.Digests {
	for at := 0; ; at += protocol.MaxBatch {
		end := min(at+protocol.MaxBatch, len(kids))
		var m protocol.Digests
		if n := len(dst); n < cap(dst) {
			m = dst[:n+1][n]
		}
		m.Path, m.Children = path, m.Children[:0]
		for _, k := range kids[at:end] {
			m.Children = append(m.Children, protocol.ChildDigest{Name: k.Name, Leaf: k.Leaf, Digest: k.Digest})
		}
		dst = append(dst, m)
		if end == len(kids) {
			return dst
		}
	}
}

// Step advances the descent one level against a peer's listing m.
// local is this replica's sorted children of m.Path, nil when it has
// no node there, in which case every listed child is new. Each listed
// child that local lacks or holds with another digest is appended, as
// a full path, to nacks when the peer lists it as a leaf and to
// queries otherwise. Both results keep the listing's order.
func Step(m *protocol.Digests, local []namespace.Child, nacks, queries []string) ([]string, []string) {
	for _, c := range m.Children {
		if _, differs := namespace.CompareChild(local, c.Name, c.Digest); !differs {
			continue
		}
		path := c.Name
		if m.Path != "" {
			path = m.Path + "/" + c.Name
		}
		if c.Leaf {
			nacks = append(nacks, path)
		} else {
			queries = append(queries, path)
		}
	}
	return nacks, queries
}
