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
// The tree is an index over the ADU table, not a second copy of it: a
// leaf holds its version and its digest, hashed once when the value is
// Put, never the value. Interior digests are recomputed lazily, along
// the paths that Put and Delete marked dirty, when a digest is read.
//
// The paper uses MD5; we default to SHA-256 truncated to 16 bytes
// (any one-way hash preserves the behaviour — see DESIGN.md), with
// MD5 available for fidelity.
package namespace

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"errors"
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

	// Reusable hashing state: Put hashes every leaf and refresh every
	// dirty interior node, so the hasher, its Sum output, and the
	// scratch buffer for string keys are kept on the Tree instead of
	// being allocated per call. The Tree is single-goroutine, like the
	// simulators that drive it.
	h      hash.Hash
	sum    [sha256.Size]byte
	strBuf []byte
}

// node is one namespace node. A leaf is this struct alone (a nil
// pointer, its version and its digest: the 48-byte size class), so a
// record costs the tree one small allocation and the garbage collector
// one pointer. Only interior nodes carry a child map, in an interior.
type node struct {
	in      *interior // nil for a leaf
	version uint64    // a leaf's version
	digest  Digest
	dirty   bool // an interior node whose digest awaits refresh
}

type interior struct {
	children  map[string]*node
	names     []string // sorted child names; nil after the child set changes
	leafCount int
}

// sortedNames returns the child names in sorted order, cached until
// the child set changes.
func (in *interior) sortedNames() []string {
	if in.names == nil {
		names := make([]string, 0, len(in.children))
		for name := range in.children {
			names = append(names, name)
		}
		sort.Strings(names)
		in.names = names
	}
	return in.names
}

// leaves counts the leaves under n as of the last refresh.
func (n *node) leaves() int {
	if n.in == nil {
		return 1
	}
	return n.in.leafCount
}

// New returns an empty namespace tree using the given hash.
func New(kind HashKind) *Tree {
	return &Tree{root: newInterior(), h: newHash(kind)}
}

func newInterior() *node {
	return &node{in: &interior{children: make(map[string]*node)}, dirty: true}
}

// component returns the path component starting at off and the offset
// just past it: len(path) for the last component, else its '/'.
func component(path string, off int) (name string, end int) {
	i := strings.IndexByte(path[off:], '/')
	if i < 0 {
		return path[off:], len(path)
	}
	return path[off : off+i], off + i
}

// checkPath rejects the paths no leaf can have: the root (""), and any
// path with an empty component (a leading, trailing or doubled '/').
func checkPath(path string) error {
	if path == "" {
		return errors.New("namespace: cannot Put at the root")
	}
	if path[0] == '/' || path[len(path)-1] == '/' || strings.Contains(path, "//") {
		return fmt.Errorf("namespace: empty component in path %q", path)
	}
	return nil
}

// Put stores a leaf ADU at path, creating interior nodes as needed.
// The leaf keeps version and the digest H(tag ‖ version ‖ value),
// hashed here; value itself is not retained. Interior nodes cannot be
// overwritten by leaves or vice versa, and a rejected Put changes
// nothing.
func (t *Tree) Put(path string, value []byte, version uint64) error {
	if err := checkPath(path); err != nil {
		return err
	}
	return t.put(t.root, path, 0, value, version, true)
}

// Check reports the error Put(path, …) would return, without changing
// the tree.
func (t *Tree) Check(path string) error {
	if err := checkPath(path); err != nil {
		return err
	}
	return t.put(t.root, path, 0, nil, 0, false)
}

// put descends from n, the interior node at path[:off], to the leaf at
// path, creating what is missing. Every existing node on the way is
// checked before anything changes: below a missing node nothing can
// conflict (checkPath vetted the string), and ancestors are marked
// dirty only while unwinding a successful descent. Without apply, put
// only reports the conflict.
func (t *Tree) put(n *node, path string, off int, value []byte, version uint64, apply bool) error {
	name, end := component(path, off)
	c := n.in.children[name]
	if c == nil {
		if !apply {
			return nil
		}
		c = &node{}
		if end < len(path) {
			c = newInterior()
		}
		n.in.children[name] = c
		n.in.names = nil // child set changed
	}
	switch {
	case end < len(path) && c.in == nil:
		return fmt.Errorf("namespace: %q is a leaf, cannot descend", path[:end])
	case end < len(path):
		if err := t.put(c, path, end+1, value, version, apply); err != nil {
			return err
		}
	case c.in != nil:
		return fmt.Errorf("namespace: %q is an interior node, cannot store a leaf", path)
	case apply:
		c.version = version
		c.digest = t.leafDigest(value, version)
	}
	n.dirty = true
	return nil
}

// Delete removes the leaf at path and prunes empty interior nodes. It
// reports whether the leaf existed.
func (t *Tree) Delete(path string) bool {
	return checkPath(path) == nil && t.del(t.root, path, 0)
}

// del removes the leaf at path from under n, the interior node at
// path[:off], pruning the interior nodes it empties and marking the
// ones it keeps dirty.
func (t *Tree) del(n *node, path string, off int) bool {
	name, end := component(path, off)
	c := n.in.children[name]
	if c == nil || (c.in != nil) != (end < len(path)) {
		return false // missing, a leaf mid-path, or an interior node at the end
	}
	if end < len(path) && !t.del(c, path, end+1) {
		return false
	}
	if c.in == nil || len(c.in.children) == 0 {
		delete(n.in.children, name)
		n.in.names = nil
	}
	n.dirty = true
	return true
}

// find returns the node at path; "" is the root.
func (t *Tree) find(path string) (*node, error) {
	n := t.root
	for off := 0; path != "" && off <= len(path); {
		name, end := component(path, off)
		var c *node
		if n.in != nil {
			c = n.in.children[name]
		}
		if c == nil {
			return nil, fmt.Errorf("namespace: no node at %q", path)
		}
		n, off = c, end+1
	}
	return n, nil
}

// Hash domain-separation tags (leaf vs interior node preimages).
var (
	tagLeaf     = []byte{0x00}
	tagInterior = []byte{0x01}
)

// newHash returns a fresh one-way hash of the given kind.
func newHash(kind HashKind) hash.Hash {
	if kind == HashMD5 {
		return md5.New()
	}
	return sha256.New()
}

// finish extracts the truncated digest of what was written to t.h
// since its last Reset, without allocating.
func (t *Tree) finish() Digest {
	var out Digest
	copy(out[:], t.h.Sum(t.sum[:0]))
	return out
}

// leafDigest is S(leaf) = H(tag ‖ little-endian version ‖ value).
func (t *Tree) leafDigest(value []byte, version uint64) Digest {
	t.h.Reset()
	t.strBuf = append(t.strBuf[:0], tagLeaf...)
	t.strBuf = binary.LittleEndian.AppendUint64(t.strBuf, version)
	t.h.Write(t.strBuf)
	t.h.Write(value)
	return t.finish()
}

// refresh recomputes interior digests bottom-up where dirty; a leaf's
// digest is current from its Put. The interior preimage, tag ‖
// (name ‖ child digest)*, is written incrementally instead of
// assembled into a slice.
func (t *Tree) refresh(n *node) {
	if !n.dirty {
		return
	}
	// Children first: they share the Tree's hasher, so the parent's
	// own hashing must not be in flight while descending.
	in := n.in
	in.leafCount = 0
	for _, name := range in.sortedNames() {
		c := in.children[name]
		if c.in != nil {
			t.refresh(c)
		}
		in.leafCount += c.leaves()
	}
	t.h.Reset()
	t.h.Write(tagInterior)
	for _, name := range in.sortedNames() {
		t.strBuf = append(t.strBuf[:0], name...) // no string→[]byte allocation
		t.h.Write(t.strBuf)
		t.h.Write(in.children[name].digest[:])
	}
	n.digest = t.finish()
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
	return n.leaves(), nil
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
	if err != nil || n.in == nil {
		return nil, err
	}
	return t.appendChildren(make([]Child, 0, len(n.in.children)), n), nil
}

// AppendChildren is Children appending into dst: hot paths that answer
// digest queries per received datagram can recycle one scratch slice
// instead of allocating a fresh listing per call.
func (t *Tree) AppendChildren(dst []Child, path string) ([]Child, error) {
	n, err := t.find(path)
	if err != nil {
		return dst, err
	}
	return t.appendChildren(dst, n), nil
}

func (t *Tree) appendChildren(dst []Child, n *node) []Child {
	if n.in == nil {
		return dst
	}
	t.refresh(t.root)
	for _, name := range n.in.sortedNames() {
		c := n.in.children[name]
		dst = append(dst, Child{Name: name, Leaf: c.in == nil, Digest: c.digest})
	}
	return dst
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
		if n.in == nil {
			out = append(out, prefix)
			return
		}
		for _, name := range n.in.sortedNames() {
			p := name
			if prefix != "" {
				p = prefix + "/" + name
			}
			walk(n.in.children[name], p)
		}
	}
	walk(n, path)
	return out, nil
}

// Len returns the total number of leaves.
func (t *Tree) Len() int {
	t.refresh(t.root)
	return t.root.in.leafCount
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
