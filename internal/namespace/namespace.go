// Package namespace implements SSTP's hierarchical data namespace
// (paper section 6.2): an index tree over the application's data
// units, where every node carries a fixed-length digest of the subtree
// rooted at it, computed recursively with a one-way hash:
//
//	S(n) = H(value(n))                      if n is a leaf ADU
//	S(n) = H(S(c1), S(c2), …, S(ck))        otherwise
//
// A sender periodically announces the root digest ("cold" summary
// transmissions); a receiver that detects a mismatch queries for the
// next level of digests, and loss recovery proceeds recursively down
// only the mismatching branches. Receivers may also prune branches
// they have no application-level interest in.
//
// The paper uses MD5; we default to SHA-256 truncated to 16 bytes
// (any one-way hash preserves the behaviour — see DESIGN.md), with
// MD5 available for fidelity.
package namespace

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"strings"
)

// DigestLen is the digest size carried on the wire.
const DigestLen = 16

// Digest is a fixed-length subtree summary.
type Digest [DigestLen]byte

// HashKind selects the one-way hash.
type HashKind int

// Supported hashes.
const (
	HashSHA256 HashKind = iota // default
	HashMD5                    // the paper's choice [RFC 1321]
)

// Tree is a hierarchical namespace over '/'-separated paths. The zero
// value is not usable; construct with New.
type Tree struct {
	root *node
	kind HashKind

	// Reusable hashing state: refresh runs on every digest query along
	// the dirty path, so the hasher, its Sum output, and the scratch
	// buffer for string keys are kept on the Tree instead of being
	// allocated per node visit. The Tree is single-goroutine, like the
	// simulators that drive it.
	h      hash.Hash
	sum    [sha256.Size]byte
	strBuf []byte
}

type node struct {
	children map[string]*node
	names    []string // sorted child names; nil after the child set changes
	leaf     bool
	value    []byte
	version  uint64

	digest    Digest
	leafCount int
	dirty     bool
}

// sortedNames returns the node's child names in sorted order, cached
// until the child set changes.
func (n *node) sortedNames() []string {
	if n.names == nil {
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		n.names = names
	}
	return n.names
}

// New returns an empty namespace tree using the given hash.
func New(kind HashKind) *Tree {
	return &Tree{root: newNode(), kind: kind}
}

func newNode() *node {
	return &node{children: make(map[string]*node), dirty: true}
}

// SplitPath validates and splits a '/'-separated path. The empty
// string denotes the root.
func SplitPath(path string) ([]string, error) {
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("namespace: empty component in path %q", path)
		}
	}
	return parts, nil
}

// JoinPath concatenates path components.
func JoinPath(parts ...string) string { return strings.Join(parts, "/") }

// Put stores a leaf ADU at path, creating interior nodes as needed.
// Interior nodes cannot be overwritten by leaves or vice versa.
func (t *Tree) Put(path string, value []byte, version uint64) error {
	parts, err := SplitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("namespace: cannot Put at the root")
	}
	n := t.root
	var trail []*node
	for i, p := range parts {
		trail = append(trail, n)
		child, ok := n.children[p]
		if !ok {
			child = newNode()
			n.children[p] = child
			n.names = nil // child set changed
		}
		if i < len(parts)-1 && child.leaf {
			return fmt.Errorf("namespace: %q is a leaf, cannot descend", JoinPath(parts[:i+1]...))
		}
		n = child
	}
	if len(n.children) > 0 {
		return fmt.Errorf("namespace: %q is an interior node, cannot store a leaf", path)
	}
	n.leaf = true
	n.value = append(n.value[:0], value...)
	n.version = version
	n.dirty = true
	for _, a := range trail {
		a.dirty = true
	}
	return nil
}

// Delete removes the leaf at path and prunes empty interior nodes. It
// reports whether the leaf existed.
func (t *Tree) Delete(path string) bool {
	parts, err := SplitPath(path)
	if err != nil || len(parts) == 0 {
		return false
	}
	var trail []*node
	n := t.root
	for _, p := range parts {
		trail = append(trail, n)
		child, ok := n.children[p]
		if !ok {
			return false
		}
		n = child
	}
	if !n.leaf {
		return false
	}
	delete(trail[len(trail)-1].children, parts[len(parts)-1])
	trail[len(trail)-1].names = nil
	// Prune now-empty interior nodes and dirty the trail.
	for i := len(trail) - 1; i > 0; i-- {
		trail[i].dirty = true
		if len(trail[i].children) == 0 && !trail[i].leaf {
			delete(trail[i-1].children, parts[i-1])
			trail[i-1].names = nil
		}
	}
	trail[0].dirty = true
	return true
}

func (t *Tree) find(path string) (*node, error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	n := t.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return nil, fmt.Errorf("namespace: no node at %q", path)
		}
		n = child
	}
	return n, nil
}

// Get returns the value and version of the leaf at path.
func (t *Tree) Get(path string) (value []byte, version uint64, ok bool) {
	n, err := t.find(path)
	if err != nil || !n.leaf {
		return nil, 0, false
	}
	return n.value, n.version, true
}

// Has reports whether any node (leaf or interior) exists at path.
func (t *Tree) Has(path string) bool {
	_, err := t.find(path)
	return err == nil
}

// Hash domain-separation tags (leaf vs interior node preimages).
var (
	tagLeaf     = []byte{0x00}
	tagInterior = []byte{0x01}
)

// hasher returns the Tree's reusable hash, reset and ready to write.
func (t *Tree) hasher() hash.Hash {
	if t.h == nil {
		switch t.kind {
		case HashMD5:
			t.h = md5.New()
		default:
			t.h = sha256.New()
		}
		return t.h
	}
	t.h.Reset()
	return t.h
}

// finish extracts the truncated digest without allocating.
func (t *Tree) finish(h hash.Hash) Digest {
	var out Digest
	copy(out[:], h.Sum(t.sum[:0]))
	return out
}

// writeString hashes a string key through the Tree's scratch buffer,
// avoiding the per-call string→[]byte copy allocation.
func (t *Tree) writeString(h hash.Hash, s string) {
	t.strBuf = append(t.strBuf[:0], s...)
	h.Write(t.strBuf)
}

// refresh recomputes digests bottom-up where dirty. The preimages are
// the same byte streams as always — tag ‖ little-endian version ‖
// value for leaves, tag ‖ (name ‖ child digest)* for interior nodes —
// written incrementally instead of assembled into slices.
func (t *Tree) refresh(n *node) {
	if !n.dirty {
		return
	}
	if n.leaf {
		h := t.hasher()
		t.strBuf = append(t.strBuf[:0], tagLeaf...)
		t.strBuf = binary.LittleEndian.AppendUint64(t.strBuf, n.version)
		h.Write(t.strBuf)
		h.Write(n.value)
		n.digest = t.finish(h)
		n.leafCount = 1
		n.dirty = false
		return
	}
	// Children first: they share the Tree's hasher, so the parent's
	// own hashing must not be in flight while descending.
	n.leafCount = 0
	for _, name := range n.sortedNames() {
		c := n.children[name]
		t.refresh(c)
		n.leafCount += c.leafCount
	}
	h := t.hasher()
	h.Write(tagInterior)
	for _, name := range n.sortedNames() {
		t.writeString(h, name)
		h.Write(n.children[name].digest[:])
	}
	n.digest = t.finish(h)
	n.dirty = false
}

// RootDigest returns the digest of the whole namespace.
func (t *Tree) RootDigest() Digest {
	t.refresh(t.root)
	return t.root.digest
}

// Digest returns the digest of the subtree at path.
func (t *Tree) Digest(path string) (Digest, error) {
	n, err := t.find(path)
	if err != nil {
		return Digest{}, err
	}
	t.refresh(t.root)
	return n.digest, nil
}

// LeafCount returns the number of leaves under path.
func (t *Tree) LeafCount(path string) (int, error) {
	n, err := t.find(path)
	if err != nil {
		return 0, err
	}
	t.refresh(t.root)
	return n.leafCount, nil
}

// Child summarizes one child of a queried node.
type Child struct {
	Name   string
	Leaf   bool
	Digest Digest
}

// Children returns the sorted child summaries of the node at path —
// the payload of a Digests response in the descent protocol.
func (t *Tree) Children(path string) ([]Child, error) {
	n, err := t.find(path)
	if err != nil {
		return nil, err
	}
	t.refresh(t.root)
	names := n.sortedNames()
	out := make([]Child, 0, len(names))
	for _, name := range names {
		c := n.children[name]
		out = append(out, Child{Name: name, Leaf: c.leaf, Digest: c.digest})
	}
	return out, nil
}

// AppendChildren is Children appending into dst: hot paths that answer
// digest queries per received datagram can recycle one scratch slice
// instead of allocating a fresh listing per call.
func (t *Tree) AppendChildren(dst []Child, path string) ([]Child, error) {
	n, err := t.find(path)
	if err != nil {
		return dst, err
	}
	t.refresh(t.root)
	for _, name := range n.sortedNames() {
		c := n.children[name]
		dst = append(dst, Child{Name: name, Leaf: c.leaf, Digest: c.digest})
	}
	return dst, nil
}

// Leaves returns all leaf paths under path (inclusive), sorted.
func (t *Tree) Leaves(path string) ([]string, error) {
	n, err := t.find(path)
	if err != nil {
		return nil, err
	}
	var out []string
	var walk func(n *node, prefix string)
	walk = func(n *node, prefix string) {
		if n.leaf {
			out = append(out, prefix)
			return
		}
		for _, name := range n.sortedNames() {
			p := name
			if prefix != "" {
				p = prefix + "/" + name
			}
			walk(n.children[name], p)
		}
	}
	walk(n, path)
	return out, nil
}

// Len returns the total number of leaves.
func (t *Tree) Len() int {
	t.refresh(t.root)
	return t.root.leafCount
}

// DiffChildren compares the local children of path against a remote
// child list and returns the child paths that need further descent or
// repair: children whose digests differ, plus remote children missing
// locally. The `missingLocally` result lists remote names absent from
// the local tree (the receiver must fetch the whole branch); `differ`
// lists names present on both sides with mismatching digests.
func (t *Tree) DiffChildren(path string, remote []Child) (differ, missingLocally []string, err error) {
	local, _ := t.Children(path) // no node at path: everything remote is new
	for _, r := range remote {
		switch have, differs := CompareChild(local, r.Name, r.Digest); {
		case !have:
			missingLocally = append(missingLocally, r.Name)
		case differs:
			differ = append(differ, r.Name)
		}
	}
	return differ, missingLocally, nil
}

// CompareChild is the digest comparison of the descent: it looks name
// up in local, one node's children sorted by name as Children returns
// them, and reports whether the node holds that child and whether a
// remote child of that name with digest d differs from it (a child
// held nowhere locally always differs).
func CompareChild(local []Child, name string, d Digest) (have, differs bool) {
	i := sort.Search(len(local), func(i int) bool { return local[i].Name >= name })
	if i == len(local) || local[i].Name != name {
		return false, true
	}
	return true, local[i].Digest != d
}
