package sched

import (
	"fmt"
	"sync"

	"softstate/internal/obs"
)

// Hierarchy is a two-or-more-level link-sharing scheduler in the
// spirit of CBQ/H-FSC, used by SSTP's application-controlled
// bandwidth allocation (paper Figure 12): an application builds a
// tree — e.g. {data:{hot, cold}, feedback} — and capacity is shared
// proportionally at each level, work-conserving across siblings.
//
// Leaves carry the Scheduler class ids handed to the transport. The
// tree composes any Scheduler implementation at each interior node.
//
// Hierarchy is safe for concurrent use: an internal mutex serializes
// Pick/Charge against weight retuning (SetWeight/SetNodeWeight) and
// tree growth, so a controller — the session fabric retunes tenant
// weights at runtime — may adjust shares while the transport's pick
// loop runs.
type Hierarchy struct {
	mu     sync.Mutex
	root   *Node
	leaves []*Node
	mk     func() Scheduler

	picks   []*obs.Counter // per-leaf sched_picks_total
	charges []*obs.Counter // per-leaf sched_charge_bits_total

	// curReady holds the caller's readiness predicate for the duration
	// of one Pick (guarded by mu), so each interior node can use a
	// pre-built closure instead of allocating one per descent level
	// per call.
	curReady func(leafID int) bool
}

// Instrument publishes per-leaf scheduling decisions to reg:
// sched_picks_total{leaf=name} counts Pick outcomes and
// sched_charge_bits_total{leaf=name} accumulates charged units. Call
// after the tree is built; leaves added later are not instrumented.
// Safe with a nil registry.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.picks = make([]*obs.Counter, len(h.leaves))
	h.charges = make([]*obs.Counter, len(h.leaves))
	for i, leaf := range h.leaves {
		h.picks[i] = reg.Counter("sched_picks_total", "leaf", leaf.name)
		h.charges[i] = reg.Counter("sched_charge_bits_total", "leaf", leaf.name)
	}
}

// Node is one vertex of the sharing tree.
type Node struct {
	name     string
	weight   float64
	parent   *Node
	children []*Node
	sched    Scheduler // interior nodes: picks among children
	childIdx int       // this node's class id within parent.sched
	leafID   int       // leaves: dense external id

	// pickFn is the persistent readiness closure handed to this
	// interior node's scheduler (reads h.curReady at call time).
	pickFn func(ci int) bool
}

// Name returns the node's label.
func (n *Node) Name() string { return n.name }

// Weight returns the node's share weight among its siblings.
func (n *Node) Weight() float64 { return n.weight }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// LeafID returns the external class id (valid only for leaves).
func (n *Node) LeafID() int { return n.leafID }

// NewHierarchy builds a sharing tree whose interior nodes each use a
// fresh Scheduler from mk (e.g. func() Scheduler { return NewStride() }).
func NewHierarchy(mk func() Scheduler) *Hierarchy {
	if mk == nil {
		panic("sched: nil scheduler factory")
	}
	h := &Hierarchy{mk: mk}
	h.root = &Node{name: "root", weight: 1, sched: mk()}
	h.initPickFn(h.root)
	return h
}

// initPickFn builds the interior node's one persistent readiness
// closure (allocated once at tree-build time, not per Pick).
func (h *Hierarchy) initPickFn(n *Node) {
	n.pickFn = func(ci int) bool {
		return h.subtreeReady(n.children[ci], h.curReady)
	}
}

// Root returns the root node.
func (h *Hierarchy) Root() *Node { return h.root }

// AddNode attaches an interior node under parent with the given share
// weight among its siblings.
func (h *Hierarchy) AddNode(parent *Node, name string, weight float64) *Node {
	checkWeight(weight)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mustBeInterior(parent)
	n := &Node{name: name, weight: weight, parent: parent, sched: h.mk()}
	h.initPickFn(n)
	n.childIdx = parent.sched.Add(weight)
	parent.children = append(parent.children, n)
	return n
}

// AddLeaf attaches a leaf class under parent, returning the node; its
// LeafID is the id used with Pick/Charge.
func (h *Hierarchy) AddLeaf(parent *Node, name string, weight float64) *Node {
	checkWeight(weight)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addLeafLocked(parent, name, weight)
}

func (h *Hierarchy) addLeafLocked(parent *Node, name string, weight float64) *Node {
	h.mustBeInterior(parent)
	n := &Node{name: name, weight: weight, parent: parent, leafID: len(h.leaves)}
	n.childIdx = parent.sched.Add(weight)
	parent.children = append(parent.children, n)
	h.leaves = append(h.leaves, n)
	return n
}

func (h *Hierarchy) mustBeInterior(n *Node) {
	if n == nil {
		panic("sched: nil parent")
	}
	if n.sched == nil {
		panic(fmt.Sprintf("sched: node %q is a leaf and cannot have children", n.name))
	}
}

// SetNodeWeight changes a node's share among its siblings. Safe to
// call while another goroutine is inside Pick or Charge.
func (h *Hierarchy) SetNodeWeight(n *Node, weight float64) {
	checkWeight(weight)
	h.mu.Lock()
	defer h.mu.Unlock()
	n.weight = weight
	if n.parent != nil {
		n.parent.sched.SetWeight(n.childIdx, weight)
	}
}

// Pick descends the tree from the root, at each interior node choosing
// among children that have at least one ready descendant leaf, and
// returns the chosen leaf's id. Pick allocates nothing: pass a
// persistent ready closure and the whole descent is allocation-free.
func (h *Hierarchy) Pick(ready func(leafID int) bool) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.curReady = ready
	defer func() { h.curReady = nil }()
	n := h.root
	for !n.IsLeaf() {
		idx, ok := n.sched.Pick(n.pickFn)
		if !ok {
			return 0, false
		}
		n = n.children[idx]
	}
	if n.leafID < len(h.picks) {
		h.picks[n.leafID].Inc()
	}
	return n.leafID, true
}

func (h *Hierarchy) subtreeReady(n *Node, ready func(int) bool) bool {
	if n.IsLeaf() {
		return ready(n.leafID)
	}
	for _, c := range n.children {
		if h.subtreeReady(c, ready) {
			return true
		}
	}
	return false
}

// Charge accounts service to the leaf and every ancestor's scheduler,
// so sharing is enforced at each level of the tree.
func (h *Hierarchy) Charge(leafID int, units float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if leafID < 0 || leafID >= len(h.leaves) {
		panic(fmt.Sprintf("sched: leaf id %d out of range", leafID))
	}
	if leafID < len(h.charges) {
		h.charges[leafID].Add(uint64(units))
	}
	for n := h.leaves[leafID]; n.parent != nil; n = n.parent {
		n.parent.sched.Charge(n.childIdx, units)
	}
}

// Add implements Scheduler by creating a leaf directly under the
// root, so a flat Hierarchy is a drop-in Scheduler.
func (h *Hierarchy) Add(weight float64) int {
	checkWeight(weight)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addLeafLocked(h.root, fmt.Sprintf("leaf%d", len(h.leaves)), weight).leafID
}

// Weight implements Scheduler for root-level leaves.
func (h *Hierarchy) Weight(id int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.leaves[id].weight
}

// SetWeight implements Scheduler weight updates by leaf id. Safe to
// call while another goroutine is inside Pick or Charge — the fabric
// retunes tenant weights at runtime against live pick loops.
func (h *Hierarchy) SetWeight(id int, weight float64) {
	checkWeight(weight)
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.leaves[id]
	n.weight = weight
	if n.parent != nil {
		n.parent.sched.SetWeight(n.childIdx, weight)
	}
}
