//go:build !race

package namespace

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestPutAllocs pins the bulk path's cost in the tree: re-putting a
// leaf allocates nothing, a new leaf under an existing parent allocates
// its node and nothing else (the parent's map growth amortises below
// one), and reading a digest or a listing on an existing path
// allocates nothing. The race detector allocates on its own, hence the
// build tag.
func TestPutAllocs(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 48 {
		t.Errorf("a leaf node is %d bytes, want the 48-byte size class", size)
	}
	tr := New(HashSHA256)
	keys := make([]string, 1002)
	for i := range keys {
		keys[i] = fmt.Sprintf("g/m/k%d", i)
	}
	mustPut(t, tr, keys[0], "v", 1)
	tr.RootDigest()
	value := []byte("0123456789abcdef0123456789abcdef")

	ver := uint64(1)
	if a := testing.AllocsPerRun(100, func() {
		ver++
		if err := tr.Put(keys[0], value, ver); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("re-Put of an existing leaf: %v allocs, want 0", a)
	}

	i := 0
	if a := testing.AllocsPerRun(len(keys)-2, func() {
		i++
		if err := tr.Put(keys[i], value, 1); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Put of a new leaf under an existing parent: %v allocs, want ≤ 1", a)
	}

	tr.RootDigest()
	if a := testing.AllocsPerRun(100, func() {
		if _, err := tr.Digest(keys[1]); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Digest of an existing path: %v allocs, want 0", a)
	}
	kids, _ := tr.AppendChildren(nil, "g/m")
	if a := testing.AllocsPerRun(100, func() {
		kids, _ = tr.AppendChildren(kids[:0], "g/m")
	}); a != 0 {
		t.Errorf("AppendChildren of an existing path: %v allocs, want 0", a)
	}
}
