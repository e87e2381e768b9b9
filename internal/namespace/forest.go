// Forest: the namespace tree sharded by top-level component.
//
// When the table layer stripes keys by their first '/'-component
// (table.StripeIndex), every top-level namespace subtree lives wholly
// inside one stripe. Each stripe then maintains an ordinary Tree, and
// the root digest of the unsharded namespace is recoverable exactly:
// the root preimage is tagInterior ‖ (name ‖ childDigest)* over the
// sorted top-level children, and that fold can be replayed from the
// per-stripe children merged by name. CombineRoot does exactly that,
// so a striped publisher's summary announcements are byte-identical
// to an unsharded one's (pinned by golden test).
//
// A Forest carries no locking: callers guard each Tree with the same
// per-stripe lock that guards the corresponding table stripe, keeping
// table mutation and digest update atomic per key.
package namespace

import (
	"crypto/sha256"
	"sort"
)

// Forest is a fixed set of per-stripe namespace trees.
type Forest struct {
	kind  HashKind
	trees []*Tree
}

// NewForest returns a forest of n independent trees (n >= 1) sharing
// one hash kind.
func NewForest(n int, kind HashKind) *Forest {
	if n < 1 {
		n = 1
	}
	f := &Forest{kind: kind, trees: make([]*Tree, n)}
	for i := range f.trees {
		f.trees[i] = New(kind)
	}
	return f
}

// Size returns the number of stripes.
func (f *Forest) Size() int { return len(f.trees) }

// Tree returns stripe i's tree. The caller owns synchronization.
func (f *Forest) Tree(i int) *Tree { return f.trees[i] }

// RootDigest combines the stripes' top-level children into the digest
// the unsharded tree would report for the same contents. It refreshes
// every stripe; the caller must hold all stripe locks (or otherwise
// have exclusive access).
func (f *Forest) RootDigest() Digest {
	if len(f.trees) == 1 {
		return f.trees[0].RootDigest()
	}
	groups := make([][]Child, len(f.trees))
	for i, t := range f.trees {
		groups[i], _ = t.Children("")
	}
	return CombineRoot(f.kind, CombineChildren(groups...))
}

// LeafCount sums the stripes' leaf counts. Caller owns synchronization.
func (f *Forest) LeafCount() int {
	n := 0
	for _, t := range f.trees {
		n += t.Len()
	}
	return n
}

// CombineChildren merges per-stripe child lists into one list sorted
// by name — the root's child set as the unsharded tree would report
// it. Stripes hold disjoint top-level names by construction, so this
// is a merge, never a join.
func CombineChildren(groups ...[]Child) []Child {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]Child, 0, total)
	for _, g := range groups {
		out = append(out, g...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CombineRoot folds sorted top-level children into a root digest with
// exactly the interior-node preimage Tree.refresh uses: tagInterior ‖
// (name ‖ childDigest)*. Feeding it CombineChildren of the stripes'
// root children yields a digest byte-identical to the unsharded
// tree's RootDigest for the same contents (pinned by golden test).
func CombineRoot(kind HashKind, children []Child) Digest {
	h := newHash(kind)
	h.Write(tagInterior)
	var scratch [64]byte
	for _, c := range children {
		buf := append(scratch[:0], c.Name...)
		h.Write(buf)
		h.Write(c.Digest[:])
	}
	var sum [sha256.Size]byte
	var out Digest
	copy(out[:], h.Sum(sum[:0]))
	return out
}
