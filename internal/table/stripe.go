// Striped tables: the same soft-state model sharded by key hash so
// Put/Apply/Sweep scale across cores instead of serializing on one
// lock.
//
// The stripe of a key is chosen by hashing its FIRST '/'-separated
// path component only. That keeps every top-level namespace subtree
// whole within one stripe, which is what lets a striped namespace
// forest recombine per-stripe digest trees into a root digest
// byte-identical to the unsharded tree (see namespace.Forest): the
// root preimage is a fold over top-level children, and each child
// lives entirely in exactly one stripe.
package table

import (
	"math/bits"
	"sync"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// MaxStripes bounds stripe counts; beyond this the per-stripe
	// fixed costs outweigh any contention win.
	MaxStripes = 1024
)

// StripeIndex maps a key to its stripe in [0, n) by FNV-1a over the
// key's first path component. n must be a power of two (see
// NormalizeStripes). All keys sharing a top-level component land in
// the same stripe.
func StripeIndex(key Key, n int) int {
	if n <= 1 {
		return 0
	}
	s := string(key)
	end := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			end = i
			break
		}
	}
	h := uint64(fnvOffset64)
	for i := 0; i < end; i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return int(h & uint64(n-1))
}

// NormalizeStripes clamps n to [1, MaxStripes] and rounds it up to a
// power of two, the contract StripeIndex requires.
func NormalizeStripes(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxStripes {
		n = MaxStripes
	}
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// pubStripe pairs one Publisher shard with its lock. Padding keeps
// hot neighbouring locks off one cache line.
type pubStripe struct {
	mu  sync.Mutex
	pub *Publisher
	_   [40]byte
}

// StripedPublisher shards a Publisher by key hash with one mutex and
// one expiry heap per stripe, so concurrent Put/Sweep from multiple
// goroutines contend only when they touch the same stripe.
//
// Versions are assigned per stripe, so they are monotone per key (all
// versions of a key live in one stripe) but not totally ordered across
// the table — exactly the guarantee the protocol needs.
type StripedPublisher struct {
	stripes []pubStripe

	// OnExpire, if non-nil, is invoked (under the owning stripe's
	// lock) for each record removed by Sweep or Delete. Set before
	// first use.
	OnExpire func(*Record)
}

// NewStripedPublisher returns a publisher table sharded into
// NormalizeStripes(n) stripes.
func NewStripedPublisher(n int) *StripedPublisher {
	n = NormalizeStripes(n)
	sp := &StripedPublisher{stripes: make([]pubStripe, n)}
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.pub = NewPublisher()
		st.pub.OnExpire = func(r *Record) {
			if sp.OnExpire != nil {
				sp.OnExpire(r)
			}
		}
	}
	return sp
}

// Stripes returns the stripe count (a power of two).
func (sp *StripedPublisher) Stripes() int { return len(sp.stripes) }

func (sp *StripedPublisher) stripe(key Key) *pubStripe {
	return &sp.stripes[StripeIndex(key, len(sp.stripes))]
}

// Put inserts or updates a record and returns the assigned version.
func (sp *StripedPublisher) Put(key Key, value []byte, now, lifetime float64) uint64 {
	st := sp.stripe(key)
	st.mu.Lock()
	rec := st.pub.Put(key, value, now, lifetime)
	v := rec.Version
	st.mu.Unlock()
	return v
}

// Delete removes a record immediately, reporting whether it existed.
func (sp *StripedPublisher) Delete(key Key) bool {
	st := sp.stripe(key)
	st.mu.Lock()
	ok := st.pub.Delete(key)
	st.mu.Unlock()
	return ok
}

// Get returns a copy of the record's value and its version.
func (sp *StripedPublisher) Get(key Key) (value []byte, version uint64, ok bool) {
	st := sp.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.pub.Get(key)
	if rec == nil {
		return nil, 0, false
	}
	return append([]byte(nil), rec.Value...), rec.Version, true
}

// Len returns the total record count across stripes.
func (sp *StripedPublisher) Len() int {
	n := 0
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		n += st.pub.Len()
		st.mu.Unlock()
	}
	return n
}

// Live returns |L(now)| summed across stripes.
func (sp *StripedPublisher) Live(now float64) int {
	n := 0
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		n += st.pub.Live(now)
		st.mu.Unlock()
	}
	return n
}

// Sweep expires lapsed records in every stripe and returns the total
// removed. Stripes are swept independently; each stripe's OnExpire
// callbacks keep the per-stripe key order.
func (sp *StripedPublisher) Sweep(now float64) int {
	n := 0
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		n += st.pub.Sweep(now)
		st.mu.Unlock()
	}
	return n
}

// NextExpiry returns the earliest expiry after now across all stripes.
func (sp *StripedPublisher) NextExpiry(now float64) (float64, bool) {
	best, any := 0.0, false
	for i := range sp.stripes {
		st := &sp.stripes[i]
		st.mu.Lock()
		at, ok := st.pub.NextExpiry(now)
		st.mu.Unlock()
		if ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}

// subStripe pairs one Subscriber shard with its lock.
type subStripe struct {
	mu  sync.Mutex
	sub *Subscriber
	_   [40]byte
}

// StripedSubscriber shards a Subscriber by key hash, mirroring
// StripedPublisher on the receive side: concurrent Apply/Sweep contend
// per stripe, not per table.
type StripedSubscriber struct {
	stripes []subStripe

	// OnExpire / OnUpdate, if non-nil, are invoked under the owning
	// stripe's lock. Set before first use.
	OnExpire func(*Entry)
	OnUpdate func(*Entry)
}

// NewStripedSubscriber returns a replica table sharded into
// NormalizeStripes(n) stripes.
func NewStripedSubscriber(n int) *StripedSubscriber {
	n = NormalizeStripes(n)
	ss := &StripedSubscriber{stripes: make([]subStripe, n)}
	for i := range ss.stripes {
		st := &ss.stripes[i]
		st.sub = NewSubscriber()
		st.sub.OnExpire = func(e *Entry) {
			if ss.OnExpire != nil {
				ss.OnExpire(e)
			}
		}
		st.sub.OnUpdate = func(e *Entry) {
			if ss.OnUpdate != nil {
				ss.OnUpdate(e)
			}
		}
	}
	return ss
}

func (ss *StripedSubscriber) stripe(key Key) *subStripe {
	return &ss.stripes[StripeIndex(key, len(ss.stripes))]
}

// Apply installs an announcement, reporting whether the value changed.
func (ss *StripedSubscriber) Apply(key Key, value []byte, version uint64, now, ttl float64) bool {
	return ss.ApplyBorn(key, value, version, now, ttl, 0)
}

// ApplyBorn is Apply with the version's origin publish time.
func (ss *StripedSubscriber) ApplyBorn(key Key, value []byte, version uint64, now, ttl, born float64) bool {
	st := ss.stripe(key)
	st.mu.Lock()
	changed := st.sub.ApplyBorn(key, value, version, now, ttl, born)
	st.mu.Unlock()
	return changed
}

// Get returns a copy of the entry's value and its version if the entry
// is unexpired at now.
func (ss *StripedSubscriber) Get(key Key, now float64) (value []byte, version uint64, ok bool) {
	st := ss.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.sub.Get(key, now)
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), e.Value...), e.Version, true
}

// Drop removes an entry immediately (without OnExpire).
func (ss *StripedSubscriber) Drop(key Key) bool {
	st := ss.stripe(key)
	st.mu.Lock()
	ok := st.sub.Drop(key)
	st.mu.Unlock()
	return ok
}

// Len returns the total entry count across stripes.
func (ss *StripedSubscriber) Len() int {
	n := 0
	for i := range ss.stripes {
		st := &ss.stripes[i]
		st.mu.Lock()
		n += st.sub.Len()
		st.mu.Unlock()
	}
	return n
}

// Sweep expires lapsed entries in every stripe, returning the total.
func (ss *StripedSubscriber) Sweep(now float64) int {
	n := 0
	for i := range ss.stripes {
		st := &ss.stripes[i]
		st.mu.Lock()
		n += st.sub.Sweep(now)
		st.mu.Unlock()
	}
	return n
}

// NextDeadline returns the earliest deadline after now across stripes.
func (ss *StripedSubscriber) NextDeadline(now float64) (float64, bool) {
	best, any := 0.0, false
	for i := range ss.stripes {
		st := &ss.stripes[i]
		st.mu.Lock()
		at, ok := st.sub.NextDeadline(now)
		st.mu.Unlock()
		if ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}
