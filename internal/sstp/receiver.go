package sstp

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/descent"
	"softstate/internal/feedback"
	"softstate/internal/namespace"
	"softstate/internal/netio"
	"softstate/internal/obs"
	"softstate/internal/protocol"
	"softstate/internal/staleness"
	"softstate/internal/table"
	"softstate/internal/trace"
	"softstate/internal/transport"
	"softstate/internal/xrand"
)

// ReceiverConfig parameterizes an SSTP subscriber.
type ReceiverConfig struct {
	Session    uint64
	ReceiverID uint64

	// Conn is the session's wire — any transport.Conn. FeedbackDest
	// is where NACKs, queries, and reports are sent — the sender's
	// address, or the multicast group so that other receivers overhear
	// NACKs and damp their own (slotting and damping).
	Conn         transport.Conn
	FeedbackDest net.Addr

	// DisableFeedback turns the receiver into a pure announce/listen
	// listener (the open-loop end of SSTP's reliability spectrum).
	DisableFeedback bool

	// ReportInterval is the receiver-report period (default 2 s;
	// negative disables reports).
	ReportInterval time.Duration

	// NACKWindow is the slotting window for NACK suppression (default
	// 100 ms; grows by backoff up to 16× on repeated losses).
	NACKWindow time.Duration

	// Interest, if non-nil, prunes namespace repair: branches for
	// which Interest(path) is false are never queried or NACKed (the
	// paper's receiver-interest filtering, e.g. a PDA skipping
	// high-resolution images).
	Interest func(path string) bool

	// PeerRepair lets this receiver answer other members' queries and
	// NACKs from its own replica — the paper's "the sender (or any
	// participant in a multicast session) responds", in the style of
	// SRM local recovery. Responses are slotted and damped like NACKs
	// so that one member answers, not all. Only meaningful when
	// FeedbackDest is a multicast group.
	PeerRepair bool

	// PeerSummaryInterval, with PeerRepair, makes this receiver
	// announce its own root digest periodically (SRM-style session
	// messages), so members can detect divergence — and catch up from
	// each other — even after the publisher dies. 0 disables.
	PeerSummaryInterval time.Duration

	// OnUpdate fires when a record's value changes; born is the origin
	// publish time of the delivered version (Unix seconds, 0 when the
	// announcement did not carry one). OnExpire fires when a record
	// times out or is deleted. Both run on a single dispatcher
	// goroutine in the order the events occurred, and never after
	// Close returns. Handlers may call Get/Snapshot/Stats but must not
	// call Close (Close waits for the dispatcher to drain). The value
	// slice is pooled and reused after the handler returns — a handler
	// that retains it past the call must copy it first.
	OnUpdate func(key string, value []byte, version uint64, born float64)
	OnExpire func(key string)

	// FlushOnGoodbye makes a publisher Goodbye drop the whole replica
	// immediately (firing OnExpire per key) instead of letting records
	// age out by TTL. Relays enable it on their upstream link so a root
	// Goodbye tears the tree down hop by hop; plain receivers keep the
	// paper's soft-state default — state persists and expires on its
	// own, which also lets peers catch up from each other after the
	// publisher dies.
	FlushOnGoodbye bool

	// OnGoodbye fires on the dispatcher goroutine (after the flush
	// expirations when FlushOnGoodbye is set) when the learned
	// publisher announces departure.
	OnGoodbye func()

	// Obs, if non-nil, publishes receiver metrics (deliveries, losses,
	// NACKs, repairs, the T_rec repair-latency histogram, ...) to the
	// registry. Trace, if non-nil, records per-record lifecycle events;
	// use trace.NewSafe for a ring shared with other goroutines.
	Obs   *obs.Registry
	Trace *trace.Ring

	// TraceNode names this receiver in trace events (default
	// "r<ReceiverID>"); relay trees set distinctive names per hop.
	TraceNode string

	// Consistency, if non-nil, receives this receiver's online
	// consistency samples (visibility lag, per-key confirmation age,
	// digest agreement). Like Obs it may be shared across receivers —
	// a load-test tree pools all leaves of a level into one estimator.
	// When nil, the receiver creates a private estimator; read it via
	// Consistency().
	Consistency *staleness.Estimator

	// DisableConsistency skips online consistency estimation entirely
	// (no per-key confirmation tracking). Million-record load tests
	// enable it: tracking a confirmation clock per replica key costs
	// more than the replica itself.
	DisableConsistency bool

	// Stripes shards the replica table and the namespace digest tree
	// by key hash (first '/'-path component), mirroring the sender's
	// sharding. Rounded up to a power of two; default 1. The combined
	// root digest is byte-identical to an unsharded tree's, so a
	// striped receiver converges against any sender and vice versa.
	Stripes int

	Seed int64
}

func (c ReceiverConfig) withDefaults() (ReceiverConfig, error) {
	if c.Conn == nil {
		return c, fmt.Errorf("sstp: receiver needs Conn")
	}
	if !c.DisableFeedback && c.FeedbackDest == nil {
		return c, fmt.Errorf("sstp: receiver needs FeedbackDest (or DisableFeedback)")
	}
	if c.ReportInterval == 0 {
		c.ReportInterval = 2 * time.Second
	}
	if c.NACKWindow <= 0 {
		c.NACKWindow = 100 * time.Millisecond
	}
	if c.TraceNode == "" {
		c.TraceNode = fmt.Sprintf("r%d", c.ReceiverID)
	}
	if c.Consistency == nil && !c.DisableConsistency {
		c.Consistency = staleness.NewEstimator(0)
	}
	c.Stripes = table.NormalizeStripes(c.Stripes)
	return c, nil
}

// ReceiverStats are cumulative counters.
type ReceiverStats struct {
	DataReceived    int
	Duplicates      int
	Rejected        int // records whose key would shadow a held leaf or interior node
	SummariesHeard  int
	MismatchedRoots int
	QueriesSent     int
	NACKsSent       int
	NACKsSuppressed int
	ReportsSent     int
	Expired         int
	PeerDataSent    int // repairs answered from this replica
	PeerDigestsSent int // digest responses answered from this replica
	GoodbyesHeard   int // publisher departures observed
	LossEstimate    float64
}

// recvStripe is one shard of the replica table plus its slice of the
// namespace digest tree, striped by the key's first path component
// exactly like the sender side.
//
// Lock order: a stripe lock may be held while taking r.mu (handlers
// enqueue callbacks under both, preserving per-key causal order), but
// r.mu must never be held while taking a stripe lock.
type recvStripe struct {
	nsStripe
	sub *table.Subscriber
}

// Receiver is an SSTP subscriber.
type Receiver struct {
	cfg ReceiverConfig

	stripes []*recvStripe
	ns      nsStripes // the stripes' namespace halves

	// replicaN counts live replica entries across stripes; atomic so
	// stripe-locked paths can maintain it without touching r.mu.
	replicaN atomic.Int64

	// fbDest is where repair/report traffic goes. It starts as
	// cfg.FeedbackDest and can be swapped at runtime by
	// SetFeedbackDest (relay re-parenting); atomic because sendControl
	// runs on several goroutines with varying lock state.
	fbDest atomic.Pointer[net.Addr]

	mu        sync.Mutex
	est       *feedback.LossEstimator
	sup       *feedback.Suppressor
	pubID     uint64 // learned publisher sender-id
	pubSeen   bool
	pubScope  uint8 // hop budget on the latest publisher datagram
	lastSeq   uint32
	lastHeard float64 // wall time of the last publisher datagram
	stats     ReceiverStats
	m         receiverMetrics
	repairT   map[string]float64 // key -> when its first NACK was scheduled

	// Pending repair timers: one heap + one goroutine (timerLoop)
	// instead of a runtime timer per slot. timerKick wakes the loop
	// when an earlier deadline is armed. The same loop runs the
	// receiver's periodic work (sweep, report, peer summary).
	timerByKey map[string]*timerEntry
	theap      timerHeap
	timerKick  chan struct{}

	// Application callbacks are queued here (under mu) and drained in
	// order by a single dispatcher goroutine (callbackLoop), so
	// OnUpdate/OnExpire see events in causal order and the receiver
	// never spawns an unbounded goroutine per event. cbFree is the
	// previously-drained queue, recycled so steady state reuses both
	// the slice and each slot's value buffer.
	cbs    []appCallback
	cbFree []appCallback
	cbKick chan struct{}

	// Descent-step reuse, owned by the read loop (onDigests runs there
	// and nowhere else): the local child listing and the NACK and query
	// path accumulators are recycled across datagrams.
	dLocal   []namespace.Child
	dNacks   []string
	dQueries []string

	stopRead func() // stops the read loop (netio.Serve)
	done     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

// appCallback is one queued OnUpdate/OnExpire/OnGoodbye delivery.
type appCallback struct {
	expire  bool
	goodbye bool
	key     string
	value   []byte
	version uint64
	born    float64 // origin publish time for OnUpdate (0 = unknown)
}

// NewReceiver constructs a subscriber; call Start to begin listening.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		cfg:        cfg,
		est:        feedback.NewLossEstimator(0.25),
		sup:        feedback.NewSuppressor(cfg.NACKWindow.Seconds(), 16*cfg.NACKWindow.Seconds(), xrand.New(cfg.Seed)),
		m:          newReceiverMetrics(cfg.Obs),
		repairT:    make(map[string]float64),
		timerByKey: make(map[string]*timerEntry),
		timerKick:  make(chan struct{}, 1),
		cbKick:     make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	r.fbDest.Store(&cfg.FeedbackDest)
	r.stripes = make([]*recvStripe, cfg.Stripes)
	r.ns = make(nsStripes, cfg.Stripes)
	for i := range r.stripes {
		st := &recvStripe{nsStripe: nsStripe{ns: namespace.New(namespace.HashSHA256)}, sub: table.NewSubscriber()}
		st.sub.OnExpire = func(e *table.Entry) {
			// Called with the stripe lock held (Sweep or flush); r.mu is
			// taken nested for the global bookkeeping — the allowed order.
			key := string(e.Key)
			st.ns.Delete(key)
			r.replicaN.Add(-1)
			r.cfg.Consistency.Forget(r.cfg.ReceiverID, key)
			traceRecord(cfg.Trace, cfg.TraceNode, trace.Expire, key)
			r.mu.Lock()
			r.stats.Expired++
			r.m.expired.Inc()
			if cfg.OnExpire != nil {
				r.enqueueExpire(key)
			}
			r.mu.Unlock()
		}
		r.stripes[i], r.ns[i] = st, &st.nsStripe
	}
	return r, nil
}

// stripeFor returns the stripe owning key (or any namespace path).
func (r *Receiver) stripeFor(key string) *recvStripe {
	return r.stripes[table.StripeIndex(table.Key(key), len(r.stripes))]
}

// Consistency returns the receiver's online consistency estimator;
// its Snapshot is the `consistency` section served by the admin
// endpoint. Nil when DisableConsistency was set (every Estimator
// method is nil-safe, so callers may still chain through it).
func (r *Receiver) Consistency() *staleness.Estimator { return r.cfg.Consistency }

// Start launches the receiver's three goroutines: the read loop, the
// timer loop (repair slots plus the periodic sweep, report and peer
// summary) and the callback dispatcher.
func (r *Receiver) Start() {
	r.wg.Add(2)
	go r.timerLoop()
	go r.callbackLoop()
	dec := protocol.NewDecoder()
	r.stopRead = netio.Serve(r.cfg.Conn, func(b []byte, _ net.Addr) {
		hdr, msg, err := dec.Decode(b)
		if err != nil || hdr.Session != r.cfg.Session || hdr.Sender == r.cfg.ReceiverID {
			return
		}
		r.dispatch(hdr, msg)
	})
}

// Close stops the receiver.
func (r *Receiver) Close() error {
	r.once.Do(func() {
		close(r.done)
		if r.stopRead != nil {
			r.stopRead()
		}
	})
	r.wg.Wait()
	return nil
}

// Stats returns a copy of the counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.LossEstimate = r.est.Smoothed()
	return st
}

// Get returns the current value for key, if present and unexpired.
func (r *Receiver) Get(key string) ([]byte, bool) {
	st := r.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.sub.Get(table.Key(key), nowSeconds())
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.Value...), true
}

// Snapshot returns a copy of the unexpired {key, value} replica.
func (r *Receiver) Snapshot() map[string][]byte {
	now := nowSeconds()
	out := make(map[string][]byte)
	for _, st := range r.stripes {
		st.mu.Lock()
		for _, k := range st.sub.Keys(now) {
			if e, ok := st.sub.Get(k, now); ok {
				out[string(k)] = append([]byte(nil), e.Value...)
			}
		}
		st.mu.Unlock()
	}
	return out
}

// RootDigest returns the replica's namespace digest; equality with the
// sender's digest proves convergence. With multiple stripes it is the
// combined root, byte-identical to an unsharded tree's.
func (r *Receiver) RootDigest() namespace.Digest {
	d, _ := r.ns.rootSummary()
	return d
}

// Len returns the number of replica entries.
func (r *Receiver) Len() int {
	n := 0
	for _, st := range r.stripes {
		st.mu.Lock()
		n += st.sub.Len()
		st.mu.Unlock()
	}
	return n
}

// PublisherScope returns the hop budget stamped on the most recent
// datagram heard from the learned publisher; ok is false until a
// publisher has been learned. Relays use it to derive the scope of
// their downstream links.
func (r *Receiver) PublisherScope() (scope uint8, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pubScope, r.pubSeen
}

func (r *Receiver) interested(path string) bool {
	return r.cfg.Interest == nil || r.cfg.Interest(path)
}

func (r *Receiver) dispatch(hdr protocol.Header, msg protocol.Message) {
	r.mu.Lock()
	// Learn the publisher: the first Data/Summary/Heartbeat sender
	// with a live sequence number (receivers' peer-repair messages
	// carry Seq 0, so they are never mistaken for the publisher).
	switch msg.(type) {
	case *protocol.Data, *protocol.DataBatch, *protocol.Summary, *protocol.Digests, *protocol.Heartbeat, *protocol.Goodbye:
		if !r.pubSeen && hdr.Seq > 0 {
			r.pubSeen = true
			r.pubID = hdr.Sender
			r.lastSeq = hdr.Seq
		}
		if hdr.Sender == r.pubID {
			r.pubScope = hdr.Scope
			r.lastHeard = nowSeconds()
			r.est.Observe(hdr.Seq)
			// Gap-triggered repair: a hole in the sequence space means
			// something was just lost; start the namespace descent now
			// instead of waiting for the next summary.
			if gap := int32(hdr.Seq - r.lastSeq); gap > 1 {
				r.m.losses.Add(uint64(gap - 1))
				if !r.cfg.DisableFeedback {
					r.scheduleQuery("")
				}
			}
			if int32(hdr.Seq-r.lastSeq) > 0 {
				r.lastSeq = hdr.Seq
			}
		}
	}
	fromPub := r.pubSeen && hdr.Sender == r.pubID
	r.mu.Unlock()
	switch m := msg.(type) {
	case *protocol.Data:
		r.onData(m)
	case *protocol.DataBatch:
		// Records unpack in encode order, so the delivery sequence is
		// identical to the same records in single-record datagrams
		// (pinned by test).
		for i := range m.Records {
			r.onData(&m.Records[i])
		}
	case *protocol.Summary:
		r.onSummary(hdr, m)
	case *protocol.Digests:
		r.onDigests(m)
	case *protocol.Goodbye:
		if fromPub {
			r.onGoodbye()
		}
	case *protocol.Heartbeat:
		// A heartbeat means the publisher's table is empty. A tracking
		// receiver holding state is therefore stale and flushes it —
		// this also covers a lost Goodbye datagram, and an announcement
		// that raced past one in flight.
		if r.cfg.FlushOnGoodbye && fromPub && r.Len() > 0 {
			r.flushReplica()
		}
	case *protocol.NACK:
		// Another receiver's NACK: damp ours, and — with peer repair
		// on — offer to answer it from our replica.
		r.mu.Lock()
		for _, k := range m.Keys {
			if r.sup.Heard(k) {
				r.stats.NACKsSuppressed++
				r.m.suppressed.Inc()
			}
		}
		r.mu.Unlock()
		if r.cfg.PeerRepair {
			for _, k := range m.Keys {
				r.schedulePeerData(k)
			}
		}
	case *protocol.Query:
		// Another receiver queried the same path: damp ours, and
		// offer a digest response from our replica.
		r.mu.Lock()
		if r.sup.Heard("?" + m.Path) {
			r.stats.NACKsSuppressed++
			r.m.suppressed.Inc()
		}
		r.mu.Unlock()
		if r.cfg.PeerRepair {
			r.schedulePeerDigests(m.Path)
		}
	}
}

// schedulePeerData slots a repair response for key from this replica.
// Caller must hold no locks.
func (r *Receiver) schedulePeerData(key string) {
	st := r.stripeFor(key)
	st.mu.Lock()
	_, held := st.sub.Get(table.Key(key), nowSeconds())
	st.mu.Unlock()
	if !held {
		return // we do not hold it either
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slot("!d:"+key, key, nil, (*Receiver).sendPeerData)
}

// sendPeerData answers a NACK for key with the record this replica
// holds, unless it has expired since. Caller must hold no locks.
func (r *Receiver) sendPeerData(key string) {
	st := r.stripeFor(key)
	st.mu.Lock()
	now := nowSeconds()
	cur, ok := st.sub.Get(table.Key(key), now)
	if !ok {
		st.mu.Unlock()
		return
	}
	// Get has refused a lapsed entry, so Repair cannot.
	msg, _ := descent.Repair(key, cur.Version, bytes.Clone(cur.Value), cur.Born, cur.Deadline, now)
	st.mu.Unlock()
	r.mu.Lock()
	r.stats.PeerDataSent++
	r.m.peerData.Inc()
	r.mu.Unlock()
	traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.Repair, key)
	r.sendControl(&msg)
}

// schedulePeerDigests slots a digest response for path from this
// replica. Caller must hold no locks.
func (r *Receiver) schedulePeerDigests(path string) {
	if kids, ok := r.ns.childrenAt(nil, path); !ok || len(kids) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slot("!q:"+path, path, nil, (*Receiver).sendPeerDigests)
}

// sendPeerDigests answers a Query for path with this replica's child
// digests. Caller must hold no locks.
func (r *Receiver) sendPeerDigests(path string) {
	kids, ok := r.ns.childrenAt(nil, path)
	if !ok {
		return
	}
	resp := descent.Answer(nil, path, kids)
	r.mu.Lock()
	r.stats.PeerDigestsSent += len(resp)
	r.m.peerDigests.Add(uint64(len(resp)))
	r.mu.Unlock()
	for i := range resp {
		r.sendControl(&resp[i])
	}
}

func (r *Receiver) onData(m *protocol.Data) {
	now := nowSeconds()
	st := r.stripeFor(m.Key)
	if m.Deleted {
		st.mu.Lock()
		dropped := st.sub.Drop(table.Key(m.Key))
		if dropped {
			st.ns.Delete(m.Key)
			r.replicaN.Add(-1)
			traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.Tombstone, m.Key)
		}
		r.cfg.Consistency.Forget(r.cfg.ReceiverID, m.Key)
		r.mu.Lock()
		if dropped && r.cfg.OnExpire != nil {
			r.enqueueExpire(m.Key)
		}
		r.sup.Repaired(m.Key)
		r.mu.Unlock()
		st.mu.Unlock()
		return
	}
	ttl := float64(m.TTLms) / 1000
	if ttl <= 0 {
		ttl = 30
	}
	born := float64(m.BornMs) / 1000
	// The stripe lock covers the table+namespace mutation and, nested,
	// the r.mu bookkeeping — so a sweep on the same stripe cannot
	// interleave an expiry callback between a delivery and its
	// OnUpdate enqueue.
	st.mu.Lock()
	prev, had := st.sub.Get(table.Key(m.Key), now)
	isDup := had && prev.Version >= m.Ver
	sameVer := had && prev.Version == m.Ver
	if !had && st.ns.Check(m.Key) != nil {
		// A held key has its leaf in the tree, so only a new one can
		// shadow a leaf or interior node still held here (a lost
		// delete, say). Refused whole, it is delivered once that record
		// expires; admitted to the table alone, it never would be.
		r.mu.Lock()
		r.stats.Rejected++
		r.m.rejected.Inc()
		r.mu.Unlock()
		st.mu.Unlock()
		return
	}
	changed := st.sub.ApplyBorn(table.Key(m.Key), m.Value, m.Ver, now, ttl, born)
	if changed {
		if !had {
			r.replicaN.Add(1)
		}
		st.ns.Put(m.Key, m.Value, m.Ver) // cannot fail: see the check above
	}
	r.mu.Lock()
	if changed {
		r.stats.DataReceived++
		r.m.deliveries.Inc()
		traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.Deliver, m.Key)
		// T_rec here is repair latency: first-NACK-scheduled to
		// delivery. t_vis is the end-to-end quantity: origin publish
		// (stamped on the wire, preserved across relay hops) to
		// local delivery.
		if t0, ok := r.repairT[m.Key]; ok {
			r.m.tRec.Observe(now - t0)
			delete(r.repairT, m.Key)
		}
		if m.BornMs > 0 {
			lag := now - born
			if lag < 0 {
				lag = 0 // clock skew between origin and replica
			}
			r.m.tvis.Observe(lag)
			r.cfg.Consistency.ObserveTVisAt(now, lag)
		}
		r.m.replica.Set(float64(r.replicaN.Load()))
		if r.cfg.OnUpdate != nil {
			r.enqueueUpdate(m.Key, m.Value, m.Ver, born)
		}
	} else if isDup {
		r.stats.Duplicates++
		r.m.duplicates.Inc()
	}
	r.sup.Repaired(m.Key)
	if r.cfg.PeerRepair {
		// A repair answered by anyone damps our pending peer response.
		// (Without peer repair no "!d:" slot can exist — skipping the
		// lookup also skips the per-record string concatenation.)
		r.sup.Heard("!d:" + m.Key)
	}
	r.mu.Unlock()
	if changed || sameVer {
		// Delivering a new version, or hearing a refresh for exactly
		// the version we hold, confirms the record is current — the
		// per-key staleness clock resets. An announcement older than
		// the replica proves nothing and is excluded.
		r.cfg.Consistency.ConfirmAt(r.cfg.ReceiverID, m.Key, now)
	}
	st.mu.Unlock()
}

// onGoodbye handles a publisher departure: count it, forget the
// learned publisher (a successor may take over the session), and —
// with FlushOnGoodbye — drop the whole replica at once, firing the
// usual expiry callbacks. Caller must hold no locks.
func (r *Receiver) onGoodbye() {
	r.mu.Lock()
	r.stats.GoodbyesHeard++
	r.m.goodbyes.Inc()
	r.pubSeen = false
	r.lastSeq = 0
	r.mu.Unlock()
	if r.cfg.FlushOnGoodbye {
		r.flushReplica()
	}
	if r.cfg.OnGoodbye != nil {
		r.mu.Lock()
		r.enqueueGoodbye()
		r.mu.Unlock()
	}
}

// flushReplica drops every replica entry through the normal expiry
// path, stripe by stripe. Caller must hold no locks.
func (r *Receiver) flushReplica() {
	now := nowSeconds()
	for _, st := range r.stripes {
		st.mu.Lock()
		st.sub.Sweep(now) // fire regular expiry for already-lapsed keys
		for _, k := range st.sub.Keys(now) {
			key := string(k)
			st.sub.Drop(k)
			st.ns.Delete(key)
			r.replicaN.Add(-1)
			r.cfg.Consistency.Forget(r.cfg.ReceiverID, key)
			traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.Expire, key)
			r.mu.Lock()
			r.stats.Expired++
			r.m.expired.Inc()
			if r.cfg.OnExpire != nil {
				r.enqueueExpire(key)
			}
			r.mu.Unlock()
		}
		st.mu.Unlock()
	}
	r.m.replica.Set(float64(r.replicaN.Load()))
}

// onSummary compares the announced root digest against the replica's
// and, on mismatch, schedules a namespace query (suppression-slotted).
// Caller must hold no locks.
func (r *Receiver) onSummary(hdr protocol.Header, m *protocol.Summary) {
	var local namespace.Digest
	var err error
	if m.Path == "" {
		local, _ = r.ns.rootSummary()
	} else {
		st := r.ns.forPath(m.Path)
		st.mu.Lock()
		local, err = st.ns.Digest(m.Path)
		st.mu.Unlock()
	}
	agree := err == nil && local == namespace.Digest(m.Digest)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.SummariesHeard++
	// Every publisher root summary is one Bernoulli observation of the
	// paper's c(t): digest equality proves the replica identical to
	// the live set at this instant. Peer summaries (Seq 0) are not
	// sampled — they compare replicas, not replica-vs-publisher.
	if m.Path == "" && r.pubSeen && hdr.Sender == r.pubID && hdr.Seq > 0 {
		r.cfg.Consistency.SampleAgreementAt(nowSeconds(), agree)
		if agree {
			traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.Confirm, "")
		}
	}
	if agree {
		r.sup.Repaired("?" + m.Path)
		return
	}
	r.stats.MismatchedRoots++
	r.m.mismatches.Inc()
	if r.cfg.DisableFeedback || !r.interested(m.Path) {
		return
	}
	r.scheduleQuery(m.Path)
}

// onDigests runs one descent step against a listing from the sender
// or a peer: differing interior children get queries, differing or
// missing leaves get NACKs, both pruned by the interest filter. Caller
// must hold no locks.
func (r *Receiver) onDigests(m *protocol.Digests) {
	r.mu.Lock()
	r.sup.Repaired("?" + m.Path)
	// Someone else answered this path: damp our pending response.
	r.sup.Heard("!q:" + m.Path)
	r.mu.Unlock()
	if r.cfg.DisableFeedback {
		return
	}
	local, _ := r.ns.childrenAt(r.dLocal[:0], m.Path)
	nacks, queries := descent.Step(m, local, r.dNacks[:0], r.dQueries[:0])
	r.dLocal, r.dNacks, r.dQueries = local[:0], nacks[:0], queries[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, path := range queries {
		if r.interested(path) {
			r.scheduleQuery(path)
		}
	}
	for _, key := range nacks {
		if r.interested(key) {
			r.scheduleNACK(key)
		}
	}
}

// scheduleQuery slots a namespace query through the suppressor.
// Caller holds r.mu.
func (r *Receiver) scheduleQuery(path string) {
	r.slot("?"+path, path, &r.stats.QueriesSent, (*Receiver).sendQuery)
}

func (r *Receiver) sendQuery(path string) {
	r.m.queriesSent.Inc()
	r.sendControl(&protocol.Query{Path: path})
}

// scheduleNACK slots a repair request through the suppressor. Caller
// holds r.mu.
func (r *Receiver) scheduleNACK(key string) {
	if !r.slot(key, key, &r.stats.NACKsSent, (*Receiver).sendNACK) {
		return
	}
	if _, ok := r.repairT[key]; !ok {
		r.repairT[key] = nowSeconds() // T_rec clock starts at first repair intent
	}
}

func (r *Receiver) sendNACK(key string) {
	r.m.nacksSent.Inc()
	traceRecord(r.cfg.Trace, r.cfg.TraceNode, trace.NACK, key)
	r.sendControl(&protocol.NACK{Keys: []string{key}})
}

// slot runs send(r, arg) once a random suppression slot for skey
// elapses without the slot being heard from another member or
// repaired. A slot that is already pending is left alone and slot
// returns false. An ask (asked non-nil) is counted in *asked each time
// it fires, and stays pending and fires again with backoff until it is
// repaired, so a lost answer cannot stall the descent; an answer fires
// once. send runs with no locks held, and is a method expression, not
// a closure, so a call for a slot already pending allocates nothing.
// Caller holds r.mu.
func (r *Receiver) slot(skey, arg string, asked *int, send func(r *Receiver, arg string)) bool {
	fireAt, fresh := r.sup.Schedule(skey, nowSeconds())
	if !fresh {
		return false
	}
	var fire func()
	fire = func() {
		r.mu.Lock()
		now := nowSeconds()
		if !r.sup.Fire(skey, now) {
			r.mu.Unlock()
			return // heard from another member, or repaired
		}
		if asked != nil {
			*asked++
			r.armTimerLocked(skey, r.sup.Reschedule(skey, now), fire)
		} else {
			r.sup.Repaired(skey)
		}
		r.mu.Unlock()
		send(r, arg)
	}
	r.armTimerLocked(skey, fireAt, fire)
	return true
}

// armTimerLocked schedules (or re-schedules) the slot's timer in the
// shared heap and wakes timerLoop; caller holds r.mu.
func (r *Receiver) armTimerLocked(key string, fireAt float64, fn func()) {
	if e, ok := r.timerByKey[key]; ok {
		e.fireAt = fireAt
		e.fn = fn
		r.theap.fix(e)
	} else {
		e = &timerEntry{key: key, fireAt: fireAt, fn: fn}
		r.timerByKey[key] = e
		r.theap.push(e)
	}
	select {
	case r.timerKick <- struct{}{}:
	default:
	}
}

// sweepInterval is the cadence of the replica expiry sweep.
const sweepInterval = 250 * time.Millisecond

// chore is one periodic job of the timer loop: it runs once next has
// passed, then every every.
type chore struct {
	next  time.Time
	every time.Duration
	run   func()
}

// chores returns the receiver's periodic jobs, first due one period
// after now: the expiry sweep always, the receiver report unless
// feedback or reports are off, and the peer summary with peer repair.
func (r *Receiver) chores(now time.Time) []chore {
	sweeps := 0
	cs := []chore{{every: sweepInterval, run: func() {
		sweeps++
		r.sweep(sweeps%8 == 0)
	}}}
	if !r.cfg.DisableFeedback && r.cfg.ReportInterval > 0 {
		cs = append(cs, chore{every: r.cfg.ReportInterval, run: r.report})
	}
	if r.cfg.PeerRepair && r.cfg.PeerSummaryInterval > 0 {
		cs = append(cs, chore{every: r.cfg.PeerSummaryInterval, run: r.peerSummary})
	}
	for i := range cs {
		cs[i].next = now.Add(cs[i].every)
	}
	return cs
}

// timerLoop is the receiver's one clock. It runs every armed repair
// timer: sleep until the earliest heap deadline (or a kick arms an
// earlier one), pop everything due, and run the callbacks outside
// r.mu — the callbacks take the lock themselves, exactly as the
// per-key time.AfterFunc bodies used to. Beside the heap it runs the
// chores, also with no lock held, and never sleeps past the next one.
func (r *Receiver) timerLoop() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var due []*timerEntry // scratch, reused across rounds
	chores := r.chores(time.Now())
	for {
		r.mu.Lock()
		now := nowSeconds()
		due = due[:0]
		for r.theap.len() > 0 && r.theap.peek().fireAt <= now {
			e := r.theap.pop()
			delete(r.timerByKey, e.key)
			due = append(due, e)
		}
		wait := time.Duration(-1)
		if r.theap.len() > 0 {
			wait = time.Duration((r.theap.peek().fireAt - now) * float64(time.Second))
			if wait < 0 {
				wait = 0
			}
		}
		r.mu.Unlock()
		for i, e := range due {
			select {
			case <-r.done:
				return
			default:
			}
			e.fn()
			due[i] = nil
		}
		busy := len(due) > 0
		at := time.Now()
		for i := range chores {
			c := &chores[i]
			if !at.Before(c.next) {
				c.run()
				busy = true
				// Missed periods are dropped, as a time.Ticker drops them.
				if c.next = c.next.Add(c.every); !c.next.After(at) {
					c.next = at.Add(c.every)
				}
			}
			if w := c.next.Sub(at); wait < 0 || w < wait {
				wait = w
			}
		}
		if busy {
			continue // work ran and callbacks may have re-armed; recompute the deadline
		}
		timer.Reset(wait)
		select {
		case <-r.done:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-r.timerKick:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
	}
}

// enqueueSlot appends one queue slot for the dispatcher, reusing the
// slot's storage (including its value buffer) from a previous drain.
// Caller holds r.mu.
func (r *Receiver) enqueueSlot() *appCallback {
	n := len(r.cbs)
	if n < cap(r.cbs) {
		r.cbs = r.cbs[:n+1]
	} else {
		r.cbs = append(r.cbs, appCallback{})
	}
	cb := &r.cbs[n]
	cb.expire, cb.goodbye = false, false
	cb.key = ""
	cb.value = cb.value[:0]
	cb.version, cb.born = 0, 0
	select {
	case r.cbKick <- struct{}{}:
	default:
	}
	return cb
}

// enqueueUpdate queues an OnUpdate delivery; caller holds r.mu. The
// value is copied into the slot's reusable buffer.
func (r *Receiver) enqueueUpdate(key string, value []byte, version uint64, born float64) {
	cb := r.enqueueSlot()
	cb.key = key
	cb.value = append(cb.value, value...)
	cb.version = version
	cb.born = born
}

// enqueueExpire queues an OnExpire delivery; caller holds r.mu.
func (r *Receiver) enqueueExpire(key string) {
	cb := r.enqueueSlot()
	cb.expire = true
	cb.key = key
}

// enqueueGoodbye queues an OnGoodbye delivery; caller holds r.mu.
func (r *Receiver) enqueueGoodbye() {
	cb := r.enqueueSlot()
	cb.goodbye = true
}

// callbackLoop delivers OnUpdate/OnExpire from one goroutine in queue
// order. The queue is swapped out under r.mu and drained lock-free, so
// handlers may call Get/Snapshot/Stats without deadlock; the drained
// queue is recycled, so steady state allocates nothing per event. No
// callback starts after Close is observed.
func (r *Receiver) callbackLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.cbKick:
		}
		for {
			r.mu.Lock()
			batch := r.cbs
			r.cbs = r.cbFree[:0]
			r.cbFree = nil
			r.mu.Unlock()
			if len(batch) == 0 {
				r.mu.Lock()
				r.cbFree = batch[:0]
				r.mu.Unlock()
				break
			}
			for i := range batch {
				select {
				case <-r.done:
					return
				default:
				}
				cb := &batch[i]
				if cb.goodbye {
					if r.cfg.OnGoodbye != nil {
						r.cfg.OnGoodbye()
					}
				} else if cb.expire {
					if r.cfg.OnExpire != nil {
						r.cfg.OnExpire(cb.key)
					}
				} else if r.cfg.OnUpdate != nil {
					r.cfg.OnUpdate(cb.key, cb.value, cb.version, cb.born)
				}
				if cap(cb.value) > 4096 {
					cb.value = nil // do not pin oversized values in the pool
				}
			}
			r.mu.Lock()
			r.cbFree = batch[:0]
			r.mu.Unlock()
		}
	}
}

func (r *Receiver) sendControl(msg protocol.Message) {
	if r.cfg.DisableFeedback {
		return
	}
	dest := *r.fbDest.Load()
	if dest == nil {
		return
	}
	// Scope 1: repair and report traffic is for the nearest replica
	// only and must never be forwarded past it.
	hdr := protocol.Header{Session: r.cfg.Session, Sender: r.cfg.ReceiverID, Scope: 1}
	bp := pktPool.Get().(*[]byte)
	*bp = protocol.AppendEncode((*bp)[:0], hdr, msg)
	// Both MemConn and UDP copy the datagram before WriteTo returns,
	// so the buffer can be pooled immediately.
	_, _ = r.cfg.Conn.WriteTo(*bp, dest)
	pktPool.Put(bp)
}

// SetFeedbackDest re-targets repair and report traffic to dest and
// forgets the learned publisher, so the next live sender heard on the
// conn is adopted fresh — the re-parenting primitive an orphaned relay
// uses to redial a fallback parent. Safe while the receiver runs; the
// replica itself is untouched (the new parent republishes with origin
// versions, so held records refresh rather than conflict).
func (r *Receiver) SetFeedbackDest(dest net.Addr) {
	r.fbDest.Store(&dest)
	r.mu.Lock()
	r.pubSeen = false
	r.pubID = 0
	r.lastSeq = 0
	r.lastHeard = 0
	// A fresh loss estimator: the new parent's sequence space is
	// unrelated to the old one's.
	r.est = feedback.NewLossEstimator(0.25)
	r.mu.Unlock()
}

// LastHeard returns the wall-clock time (seconds, the table time base)
// of the most recent datagram from the learned publisher, and whether
// a publisher has been heard at all since Start (or since the last
// SetFeedbackDest). Watchdogs use it to detect a dead upstream.
func (r *Receiver) LastHeard() (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastHeard, r.pubSeen
}

// sweep expires timed-out records, forgets abandoned repairs and, when
// gauges is set, refreshes the windowed consistency gauges: the
// staleness-age quantiles sort all tracked keys, which is too dear to
// redo on every sweep.
func (r *Receiver) sweep(gauges bool) {
	now := nowSeconds()
	for _, st := range r.stripes {
		st.mu.Lock()
		st.sub.Sweep(now) // OnExpire fires under the stripe lock
		st.mu.Unlock()
	}
	r.m.replica.Set(float64(r.replicaN.Load()))
	r.mu.Lock()
	for key, t0 := range r.repairT {
		if now-t0 > 120 {
			delete(r.repairT, key) // repair abandoned
		}
	}
	r.mu.Unlock()
	if gauges && r.cfg.Consistency != nil {
		r.m.setConsistency(r.cfg.Consistency.SnapshotAt(now))
	}
}

// report sends one RTCP-style receiver report.
func (r *Receiver) report() {
	r.mu.Lock()
	r.est.IntervalLoss()
	rep := &protocol.Report{}
	recv, exp := r.est.Counts()
	rep.Received = uint32(recv)
	rep.Expected = uint32(exp)
	rep.SetLoss(r.est.Smoothed())
	rep.Timestamp = uint64(time.Now().UnixMilli())
	r.stats.ReportsSent++
	r.m.reportsSent.Inc()
	r.m.loss.Set(r.est.Smoothed())
	r.mu.Unlock()
	r.sendControl(rep)
}

// peerSummary announces this replica's root digest as a session
// message so that divergence is detectable peer-to-peer.
func (r *Receiver) peerSummary() {
	digest, count := r.ns.rootSummary()
	if count == 0 {
		return // nothing to advertise yet
	}
	sum := &protocol.Summary{Count: uint32(count)}
	copy(sum.Digest[:], digest[:])
	r.sendControl(sum)
}
