package descent

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"softstate/internal/namespace"
	"softstate/internal/protocol"
)

// children returns n sorted leaf children c000, c001, ...
func children(n int) []namespace.Child {
	out := make([]namespace.Child, n)
	for i := range out {
		out[i] = namespace.Child{Name: fmt.Sprintf("c%03d", i), Leaf: true, Digest: namespace.Digest{byte(i), byte(i >> 8)}}
	}
	return out
}

func TestAnswerSplitsNeverTruncates(t *testing.T) {
	for _, tc := range []struct {
		kids  int
		sizes []int
	}{
		{0, []int{0}},
		{256, []int{256}},
		{257, []int{256, 1}},
		{600, []int{256, 256, 88}},
	} {
		kids := children(tc.kids)
		msgs := Answer(nil, "p", kids)
		var sizes []int
		var listed []namespace.Child
		for _, m := range msgs {
			if m.Path != "p" {
				t.Errorf("%d children: message path %q, want %q", tc.kids, m.Path, "p")
			}
			sizes = append(sizes, len(m.Children))
			for _, c := range m.Children {
				listed = append(listed, namespace.Child{Name: c.Name, Leaf: c.Leaf, Digest: c.Digest})
			}
		}
		if !reflect.DeepEqual(sizes, tc.sizes) {
			t.Errorf("%d children: message sizes %v, want %v", tc.kids, sizes, tc.sizes)
		}
		if len(listed) != len(kids) || (len(kids) > 0 && !reflect.DeepEqual(listed, kids)) {
			t.Errorf("%d children: listed %d of them, or out of order", tc.kids, len(listed))
		}
	}
}

// TestAnswerReusesStorage: answering again into the previous result
// allocates nothing.
func TestAnswerReusesStorage(t *testing.T) {
	kids := children(600)
	msgs := Answer(nil, "p", kids)
	allocs := testing.AllocsPerRun(50, func() {
		msgs = Answer(msgs[:0], "p", kids)
	})
	if allocs != 0 {
		t.Errorf("Answer into its previous result: %v allocs, want 0", allocs)
	}
}

func TestStep(t *testing.T) {
	d := func(b byte) [protocol.DigestLen]byte { return [protocol.DigestLen]byte{b} }
	listing := &protocol.Digests{Path: "s", Children: []protocol.ChildDigest{
		{Name: "a", Leaf: true, Digest: d(1)},
		{Name: "b", Leaf: false, Digest: d(2)},
		{Name: "c", Leaf: true, Digest: d(3)},
		{Name: "d", Leaf: false, Digest: d(4)},
	}}
	for _, tc := range []struct {
		name           string
		local          []namespace.Child
		nacks, queries []string
	}{
		{
			name:    "absent node returns every remote child",
			local:   nil,
			nacks:   []string{"s/a", "s/c"},
			queries: []string{"s/b", "s/d"},
		},
		{
			name: "equal digests return nothing",
			local: []namespace.Child{
				{Name: "a", Leaf: true, Digest: d(1)}, {Name: "b", Digest: d(2)},
				{Name: "c", Leaf: true, Digest: d(3)}, {Name: "d", Digest: d(4)},
				{Name: "e", Leaf: true, Digest: d(5)}, // only we hold it: the peer pulls it
			},
		},
		{
			// A local interior node where the peer lists a leaf, and the
			// reverse, differ in digest; the peer's flag decides NACK
			// against Query.
			name: "leaf/interior mismatch follows the peer's listing",
			local: []namespace.Child{
				{Name: "a", Digest: d(9)}, {Name: "b", Leaf: true, Digest: d(9)},
				{Name: "c", Leaf: true, Digest: d(3)}, {Name: "d", Digest: d(4)},
			},
			nacks:   []string{"s/a"},
			queries: []string{"s/b"},
		},
	} {
		nacks, queries := Step(listing, tc.local, nil, nil)
		if !reflect.DeepEqual(nacks, tc.nacks) || !reflect.DeepEqual(queries, tc.queries) {
			t.Errorf("%s: nacks %v queries %v, want %v %v", tc.name, nacks, queries, tc.nacks, tc.queries)
		}
	}
}

// TestStepRootPaths: children of the root are named without a leading
// separator.
func TestStepRootPaths(t *testing.T) {
	listing := &protocol.Digests{Children: []protocol.ChildDigest{{Name: "k", Leaf: true}, {Name: "dir"}}}
	nacks, queries := Step(listing, nil, nil, nil)
	if !reflect.DeepEqual(nacks, []string{"k"}) || !reflect.DeepEqual(queries, []string{"dir"}) {
		t.Errorf("nacks %v queries %v", nacks, queries)
	}
}

// TestStepMatchesDiffChildren: the step and Tree.DiffChildren flag the
// same children, since both run namespace.CompareChild.
func TestStepMatchesDiffChildren(t *testing.T) {
	local, remote := namespace.New(namespace.HashSHA256), namespace.New(namespace.HashSHA256)
	for i := 0; i < 40; i++ {
		if err := remote.Put(fmt.Sprintf("s/k%02d", i), []byte("v"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			ver := uint64(i + 1)
			if i%3 == 2 {
				ver++ // held, with another version
			}
			if err := local.Put(fmt.Sprintf("s/k%02d", i), []byte("v"), ver); err != nil {
				t.Fatal(err)
			}
		}
	}
	remoteKids, _ := remote.Children("s")
	differ, missing, _ := local.DiffChildren("s", remoteKids)
	localKids, _ := local.Children("s")
	nacks, _ := Step(&Answer(nil, "s", remoteKids)[0], localKids, nil, nil)
	want := map[string]bool{}
	for _, n := range append(differ, missing...) {
		want["s/"+n] = true
	}
	if len(nacks) != len(want) {
		t.Fatalf("step NACKs %d keys, DiffChildren flags %d", len(nacks), len(want))
	}
	for _, k := range nacks {
		if !want[k] {
			t.Errorf("step NACKs %s, which DiffChildren does not flag", k)
		}
	}
}

// TestRepair pins the one conversion from a held record's expiry to
// the wire's remaining lifetime, and that the origin time rides along.
func TestRepair(t *testing.T) {
	const now = 1_700_000_000.0
	inf := math.Inf(1)
	for _, tc := range []struct {
		name          string
		born, expires float64
		ok            bool
		ttl           uint32
		bornMs        uint64
	}{
		{"immortal", now - 5, inf, true, 0, 1_699_999_995_000},
		{"lapsed", now - 5, now, false, 0, 0},
		{"lapsed long ago", now - 5, now - 3, false, 0, 0},
		{"under 1 ms left", now - 5, now + 0.0004, true, 1, 1_699_999_995_000},
		{"rounds up", now - 5, now + 2.0001, true, 2001, 1_699_999_995_000},
		{"born unknown", 0, now + 30, true, 30000, 0},
		{"born from the wire", 1_699_999_999_999.0 / 1000, now + 1, true, 1000, 1_699_999_999_999},
	} {
		rec, ok := Repair("a/b", 9, []byte("v"), tc.born, tc.expires, now)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		want := protocol.Data{Key: "a/b", Ver: 9, TTLms: tc.ttl, BornMs: tc.bornMs, Value: []byte("v")}
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, rec, want)
		}
	}
}
