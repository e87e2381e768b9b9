package namespace

import (
	"sort"
	"strings"
	"testing"
)

// FuzzTreeOps drives one tree through a byte-coded sequence of Puts and
// Deletes over a small path alphabet and checks it, after every op,
// against a tree rebuilt from a reference map of the leaves it should
// hold: same verdict on every op, same RootDigest, same Len, and the
// same Children at every interior node. Each op is two bytes: the
// first picks put or delete, the depth and the version; the second
// the path's components and the value.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x01, 0x00})       // a/a, then a over it, then delete a
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x0a, 0x05, 0x01}) // a, a/a/a refused, b/b
	f.Add([]byte{0x12, 0x1b, 0x22, 0x1b, 0x03, 0x1b, 0x0e, 0x3f, 0x07, 0x3f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // 32 ops; every op rebuilds the reference tree
		}
		type leaf struct {
			value []byte
			ver   uint64
		}
		names := [4]string{"a", "b", "c", "d"}
		tr := New(HashSHA256)
		want := map[string]leaf{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			parts := make([]string, 1+int(op>>1&3)%3)
			for j := range parts {
				parts[j] = names[arg>>(2*j)&3]
			}
			path := strings.Join(parts, "/")
			if op&1 == 1 {
				_, held := want[path]
				if got := tr.Delete(path); got != held {
					t.Fatalf("op %d: Delete(%q) = %v, want %v", i/2, path, got, held)
				}
				delete(want, path)
			} else {
				conflict := false
				for p := range want {
					if strings.HasPrefix(p, path+"/") || strings.HasPrefix(path, p+"/") {
						conflict = true
					}
				}
				l := leaf{value: []byte{arg, op}, ver: uint64(op >> 3)}
				if err := tr.Put(path, l.value, l.ver); (err != nil) != conflict {
					t.Fatalf("op %d: Put(%q) = %v, conflict %v", i/2, path, err, conflict)
				}
				if !conflict {
					want[path] = l
				}
			}

			ref := New(HashSHA256)
			interiors := map[string]bool{"": true}
			for p, l := range want {
				if err := ref.Put(p, l.value, l.ver); err != nil {
					t.Fatalf("reference Put(%q): %v", p, err)
				}
				for j := range p {
					if p[j] == '/' {
						interiors[p[:j]] = true
					}
				}
			}
			if tr.RootDigest() != ref.RootDigest() || tr.Len() != ref.Len() || tr.Len() != len(want) {
				t.Fatalf("op %d: root %x/%d leaves, rebuilt %x/%d, reference holds %d",
					i/2, tr.RootDigest(), tr.Len(), ref.RootDigest(), ref.Len(), len(want))
			}
			paths := make([]string, 0, len(interiors))
			for p := range interiors {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for _, p := range paths {
				got, err := tr.Children(p)
				exp, _ := ref.Children(p)
				if err != nil || len(got) != len(exp) {
					t.Fatalf("op %d: Children(%q) = (%v, %v), rebuilt %v", i/2, p, got, err, exp)
				}
				for k := range got {
					if got[k] != exp[k] {
						t.Fatalf("op %d: Children(%q)[%d] = %+v, rebuilt %+v", i/2, p, k, got[k], exp[k])
					}
				}
			}
		}
	})
}
