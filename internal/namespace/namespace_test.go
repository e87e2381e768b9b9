package namespace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"
)

func mustPut(t *testing.T, tr *Tree, path string, val string, ver uint64) {
	t.Helper()
	if err := tr.Put(path, []byte(val), ver); err != nil {
		t.Fatalf("Put(%q): %v", path, err)
	}
}

// leafDigest is S(leaf) written out from the paper's definition:
// H(0x00 ‖ little-endian version ‖ value), truncated.
func leafDigest(value string, version uint64) Digest {
	pre := binary.LittleEndian.AppendUint64([]byte{0}, version)
	sum := sha256.Sum256(append(pre, value...))
	var d Digest
	copy(d[:], sum[:])
	return d
}

func TestPutGet(t *testing.T) {
	tr := New(HashSHA256)
	mustPut(t, tr, "a/b/c", "v1", 1)
	n, err := tr.find("a/b/c")
	if err != nil || n.in != nil || n.version != 1 {
		t.Fatalf("leaf a/b/c = (%+v, %v), want version 1", n, err)
	}
	if d, err := tr.Digest("a/b/c"); err != nil || d != leafDigest("v1", 1) {
		t.Errorf("Digest(a/b/c) = (%x, %v), want H(tag‖version‖value)", d, err)
	}
	mustPut(t, tr, "a/b/c", "v2", 7)
	if n.version != 7 || n.digest != leafDigest("v2", 7) {
		t.Errorf("re-Put leaf = (%d, %x), want version 7 and the new digest", n.version, n.digest)
	}
	if n, _ := tr.find("a/b"); n == nil || n.in == nil {
		t.Error("interior node a/b stored as a leaf")
	}
	if _, err := tr.find("missing"); err == nil {
		t.Error("missing path found")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPathValidation(t *testing.T) {
	tr := New(HashSHA256)
	if err := tr.Put("", nil, 1); err == nil {
		t.Error("Put at root accepted")
	}
	if err := tr.Put("a//b", nil, 1); err == nil {
		t.Error("empty component accepted")
	}
	mustPut(t, tr, "a/b", "x", 1)
	if err := tr.Put("a/b/c", nil, 2); err == nil {
		t.Error("descending through a leaf accepted")
	}
	if err := tr.Put("a", nil, 2); err == nil {
		t.Error("leaf over interior node accepted")
	}
}

func TestDigestChangesOnUpdate(t *testing.T) {
	tr := New(HashSHA256)
	mustPut(t, tr, "a/b", "v1", 1)
	d1 := tr.RootDigest()
	mustPut(t, tr, "a/b", "v2", 2)
	d2 := tr.RootDigest()
	if d1 == d2 {
		t.Error("digest unchanged after value update")
	}
	// Same value, new version also changes the digest (version is
	// part of the leaf identity).
	mustPut(t, tr, "a/b", "v2", 3)
	if tr.RootDigest() == d2 {
		t.Error("digest unchanged after version bump")
	}
}

func TestDigestDeterministicAcrossInsertOrder(t *testing.T) {
	t1 := New(HashSHA256)
	t2 := New(HashSHA256)
	paths := []string{"x/1", "x/2", "y/1", "z"}
	for i, p := range paths {
		mustPut(t, t1, p, p, uint64(i))
	}
	for i := len(paths) - 1; i >= 0; i-- {
		mustPut(t, t2, paths[i], paths[i], uint64(i))
	}
	if t1.RootDigest() != t2.RootDigest() {
		t.Error("digest depends on insertion order")
	}
}

func TestIdenticalTreesMatchDifferentTreesDiffer(t *testing.T) {
	a, b := New(HashSHA256), New(HashSHA256)
	for _, tr := range []*Tree{a, b} {
		mustPut(t, tr, "s/audio", "pcm", 1)
		mustPut(t, tr, "s/video", "h261", 2)
	}
	if a.RootDigest() != b.RootDigest() {
		t.Fatal("identical trees have different digests")
	}
	mustPut(t, b, "s/video", "h263", 3)
	if a.RootDigest() == b.RootDigest() {
		t.Fatal("different trees share a digest")
	}
}

func TestDelete(t *testing.T) {
	tr := New(HashSHA256)
	mustPut(t, tr, "a/b/c", "v", 1)
	mustPut(t, tr, "a/b/d", "w", 2)
	d1 := tr.RootDigest()
	if !tr.Delete("a/b/c") {
		t.Fatal("Delete existing = false")
	}
	if tr.Delete("a/b/c") {
		t.Fatal("Delete missing = true")
	}
	if tr.Delete("a/b") {
		t.Fatal("Delete of interior node = true")
	}
	if tr.RootDigest() == d1 {
		t.Error("digest unchanged after delete")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Deleting the last leaf under a branch prunes the branch.
	tr.Delete("a/b/d")
	if _, err := tr.find("a"); err == nil {
		t.Error("empty interior branch not pruned")
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after full delete", tr.Len())
	}
}

func TestChildren(t *testing.T) {
	tr := New(HashSHA256)
	mustPut(t, tr, "s/b", "1", 1)
	mustPut(t, tr, "s/a/x", "2", 2)
	kids, err := tr.Children("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Leaf || !kids[1].Leaf {
		t.Errorf("leaf flags wrong: %+v", kids)
	}
	if _, err := tr.Children("nope"); err == nil {
		t.Error("Children of missing node succeeded")
	}
}

func TestLeaves(t *testing.T) {
	tr := New(HashSHA256)
	for i, p := range []string{"a/1", "a/2", "b", "c/d/e"} {
		mustPut(t, tr, p, "v", uint64(i))
	}
	all, err := tr.Leaves("")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/1", "a/2", "b", "c/d/e"}
	if len(all) != len(want) {
		t.Fatalf("Leaves = %v", all)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("Leaves = %v, want %v", all, want)
		}
	}
	sub, _ := tr.Leaves("a")
	if len(sub) != 2 || sub[0] != "a/1" {
		t.Errorf("Leaves(a) = %v", sub)
	}
}

func TestLeafCount(t *testing.T) {
	tr := New(HashSHA256)
	mustPut(t, tr, "a/1", "v", 1)
	mustPut(t, tr, "a/2", "v", 2)
	mustPut(t, tr, "b", "v", 3)
	n, err := tr.LeafCount("a")
	if err != nil || n != 2 {
		t.Errorf("LeafCount(a) = (%d, %v)", n, err)
	}
	n, _ = tr.LeafCount("")
	if n != 3 {
		t.Errorf("LeafCount(root) = %d", n)
	}
}

func TestDiffChildren(t *testing.T) {
	local, remote := New(HashSHA256), New(HashSHA256)
	for _, tr := range []*Tree{local, remote} {
		mustPut(t, tr, "s/a", "same", 1)
		mustPut(t, tr, "s/b", "same", 2)
	}
	mustPut(t, remote, "s/b", "changed", 3) // differs
	mustPut(t, remote, "s/c", "new", 4)     // missing locally

	remoteKids, _ := remote.Children("s")
	differ, missing, err := local.DiffChildren("s", remoteKids)
	if err != nil {
		t.Fatal(err)
	}
	if len(differ) != 1 || differ[0] != "b" {
		t.Errorf("differ = %v", differ)
	}
	if len(missing) != 1 || missing[0] != "c" {
		t.Errorf("missing = %v", missing)
	}
}

func TestDiffChildrenMissingNode(t *testing.T) {
	local, remote := New(HashSHA256), New(HashSHA256)
	mustPut(t, remote, "s/a", "v", 1)
	remoteKids, _ := remote.Children("s")
	differ, missing, err := local.DiffChildren("s", remoteKids)
	if err != nil {
		t.Fatal(err)
	}
	if len(differ) != 0 || len(missing) != 1 || missing[0] != "a" {
		t.Errorf("differ=%v missing=%v", differ, missing)
	}
}

func TestMD5Mode(t *testing.T) {
	a, b := New(HashMD5), New(HashMD5)
	mustPut(t, a, "x", "v", 1)
	mustPut(t, b, "x", "v", 1)
	if a.RootDigest() != b.RootDigest() {
		t.Error("MD5 digests differ for identical trees")
	}
	c := New(HashSHA256)
	mustPut(t, c, "x", "v", 1)
	if a.RootDigest() == c.RootDigest() {
		t.Error("MD5 and SHA-256 digests collide (suspicious)")
	}
}

func TestEmptyTreeDigestStable(t *testing.T) {
	a, b := New(HashSHA256), New(HashSHA256)
	if a.RootDigest() != b.RootDigest() {
		t.Error("empty trees disagree")
	}
	mustPut(t, a, "k", "v", 1)
	a.Delete("k")
	if a.RootDigest() != b.RootDigest() {
		t.Error("tree after insert+delete differs from empty tree")
	}
}

// Property: two trees built from the same random leaf set (any
// insertion order) always agree on the root digest, and any single
// mutation breaks agreement.
func TestPropertyDigestAgreement(t *testing.T) {
	f := func(sel []uint8, perm16 uint16) bool {
		paths := make(map[string]bool)
		for _, s := range sel {
			paths[fmt.Sprintf("g%d/k%d", s%4, s%16)] = true
		}
		a, b := New(HashSHA256), New(HashSHA256)
		var list []string
		for p := range paths {
			list = append(list, p)
		}
		for i, p := range list {
			if err := a.Put(p, []byte(p), uint64(i)); err != nil {
				return false
			}
		}
		for i := len(list) - 1; i >= 0; i-- {
			if err := b.Put(list[i], []byte(list[i]), uint64(i)); err != nil {
				return false
			}
		}
		if a.RootDigest() != b.RootDigest() {
			return false
		}
		if len(list) > 0 {
			victim := list[int(perm16)%len(list)]
			if err := b.Put(victim, []byte("mutated"), 999); err != nil {
				return false
			}
			if a.RootDigest() == b.RootDigest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRejectedPutChangesNothing: every path a leaf cannot have is
// refused by Check and by Put alike, and the refused Put leaves the
// digest, the leaf count and the shape of the tree as they were.
func TestRejectedPutChangesNothing(t *testing.T) {
	for _, tc := range []struct{ name, path string }{
		{"root", ""},
		{"empty component", "s//x"},
		{"leading slash", "/s/leaf"},
		{"trailing slash", "s/new/"},
		{"lone slash", "/"},
		{"leaf as parent", "s/leaf/x"},
		{"leaf as grandparent", "s/leaf/x/y"},
		{"interior as leaf", "s"},
		{"deeper interior as leaf", "s/dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(HashSHA256)
			mustPut(t, tr, "s/leaf", "v", 1)
			mustPut(t, tr, "s/dir/x", "w", 2)
			root, n := tr.RootDigest(), tr.Len()
			if err := tr.Check(tc.path); err == nil {
				t.Errorf("Check(%q) accepted", tc.path)
			}
			if err := tr.Put(tc.path, []byte("z"), 3); err == nil {
				t.Fatalf("Put(%q) accepted", tc.path)
			}
			if tr.RootDigest() != root || tr.Len() != n {
				t.Errorf("rejected Put(%q) changed the tree: root %x→%x, Len %d→%d",
					tc.path, root, tr.RootDigest(), n, tr.Len())
			}
			if got, _ := tr.Leaves(""); len(got) != 2 || got[0] != "s/dir/x" || got[1] != "s/leaf" {
				t.Errorf("leaves after rejected Put(%q) = %v", tc.path, got)
			}
		})
	}
	tr := New(HashSHA256)
	mustPut(t, tr, "s/leaf", "v", 1)
	for _, ok := range []string{"s/leaf", "s/other", "t", "s/new/deep/leaf"} {
		if err := tr.Check(ok); err != nil {
			t.Errorf("Check(%q) = %v, want nil", ok, err)
		}
	}
}
