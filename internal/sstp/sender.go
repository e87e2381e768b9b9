// Package sstp implements the Soft State Transport Protocol sketched
// in section 6 of the paper: an ALF-framed, announce/listen transport
// in which a sender transmits original data plus periodic namespace
// summaries, receivers detect divergence by digest comparison and
// repair it with recursive namespace queries and NACKs, and RTCP-style
// receiver reports drive a profile-based bandwidth allocator. SSTP
// provides "a parameterized spectrum of reliability semantics" — from
// pure open-loop announce/listen (no feedback) to NACK-based reliable
// transport — over any internal/transport wire: real UDP sockets,
// framed TCP/TLS streams, or the in-memory lossy network.
package sstp

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/congestion"
	"softstate/internal/descent"
	"softstate/internal/namespace"
	"softstate/internal/netio"
	"softstate/internal/obs"
	"softstate/internal/profile"
	"softstate/internal/protocol"
	"softstate/internal/sched"
	"softstate/internal/table"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

// coalesceMTU is the datagram size announcements are coalesced up to;
// conservatively under the common 1500-byte path MTU. Records whose
// single frame exceeds it are still sent whole in their own datagram
// (IP fragments them, as before coalescing existed).
const coalesceMTU = 1400

// tombstoneRepeats is how many times a deletion is announced.
const tombstoneRepeats = 3

// nowSeconds converts wall time to the float seconds used by the
// time-agnostic substrates.
func nowSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// SenderConfig parameterizes an SSTP publisher.
type SenderConfig struct {
	Session  uint64
	SenderID uint64

	// Conn is the session's wire — any transport.Conn: a UDP socket,
	// a framed TCP/TLS stream conn, or a MemConn. Dest is where
	// announcements go (a unicast peer, a multicast group, or a
	// MemNetwork group).
	Conn transport.Conn
	Dest net.Addr

	// TotalRate is the initial session bandwidth in bits/second. If
	// MinRate and MaxRate are set, an AIMD controller driven by
	// receiver reports adapts within [MinRate, MaxRate]; otherwise
	// the rate is fixed.
	TotalRate float64
	MinRate   float64
	MaxRate   float64

	// HotFraction is the hot queue's share of data bandwidth when no
	// Allocator is given (default 0.9).
	HotFraction float64

	// Classes divides the data bandwidth among application data
	// classes, each with its own hot/cold queue pair under a
	// hierarchical link-sharing scheduler — the paper's Figure 12
	// ("the application flexibly controls the amount of bandwidth
	// allocated to its different data classes"). A key belongs to the
	// class its first path component names, or else to the first
	// class. Empty means a single class holding all keys.
	Classes []Class

	// Allocator, if non-nil, re-divides bandwidth from measured loss
	// after each receiver report (profile-driven allocation, §6.1).
	Allocator *profile.Allocator

	// TTL is the receiver-side expiry announced with each record
	// (default 30 s). Records are re-announced well within it as long
	// as cold bandwidth is available.
	TTL time.Duration

	// SummaryInterval is the period of root-digest summary
	// announcements (default 1 s; 0 disables summaries, reducing SSTP
	// to pure announce/listen).
	SummaryInterval time.Duration

	// NoRetransmit sends each record version exactly once (no cold
	// cycling) — the best-effort end of the reliability spectrum.
	NoRetransmit bool

	// Scope is the relay hop budget stamped on every datagram (default
	// protocol.DefaultScope). A relay tree sets it to its upstream
	// scope minus one at each level, bounding forwarding loops and the
	// reach of repair traffic.
	Scope uint8

	// Stripes shards the publisher table and the namespace digest tree
	// by key hash (first '/'-path component), giving each stripe its
	// own lock and expiry heap so concurrent Publish calls contend per
	// stripe, not per sender. Rounded up to a power of two; default 1
	// (unsharded). Summaries carry the combined root digest, which is
	// byte-identical to the unsharded tree's for the same contents.
	Stripes int

	// CoalesceRecords caps how many record announcements are packed
	// into one DataBatch datagram (up to the MTU budget; at most
	// protocol.MaxBatch). 0 or 1 sends one record per datagram.
	CoalesceRecords int

	// BatchDatagrams is an upper bound on how many datagrams are handed
	// to the socket per send operation (one sendmmsg on Linux): a
	// syscall-amortisation unit, never a pacing unit. The send loop
	// writes what the token bucket admits at each wake-up, which is
	// fewer at low rates and the full bound only when the bucket is not
	// the bottleneck. Default 1.
	BatchDatagrams int

	// OnRateLimit, if non-nil, is invoked when the allocator detects
	// the application's publish rate exceeds μ_hot — the paper's
	// notification "to refrain from injecting new records".
	OnRateLimit func(maxRate float64)

	// Obs, if non-nil, receives the sender's runtime metrics (the
	// sstp_* catalog in the README); the simulators emit the same
	// names, so sim and live runs are directly comparable.
	Obs *obs.Registry

	// Trace, if non-nil, records protocol events (publishes,
	// announcements, promotions, deletions). The sender writes from
	// its own goroutines — use trace.NewSafe.
	Trace *trace.Ring

	// TraceNode names this sender in trace events (default
	// "s<SenderID>"). Relay trees set distinctive names per link so a
	// record's multi-hop journey is reconstructible from one JSONL
	// dump.
	TraceNode string

	Seed int64
}

func (c SenderConfig) withDefaults() (SenderConfig, error) {
	if c.Conn == nil || c.Dest == nil {
		return c, fmt.Errorf("sstp: sender needs Conn and Dest")
	}
	if c.TotalRate <= 0 {
		return c, fmt.Errorf("sstp: TotalRate %v must be positive", c.TotalRate)
	}
	if c.MinRate != 0 || c.MaxRate != 0 {
		if c.MinRate <= 0 || c.MaxRate < c.MinRate || c.TotalRate < c.MinRate || c.TotalRate > c.MaxRate {
			return c, fmt.Errorf("sstp: bad AIMD bounds min=%v max=%v total=%v", c.MinRate, c.MaxRate, c.TotalRate)
		}
	}
	if c.HotFraction <= 0 || c.HotFraction >= 1 {
		c.HotFraction = 0.9
	}
	if c.TTL <= 0 {
		c.TTL = 30 * time.Second
	}
	if c.SummaryInterval < 0 {
		return c, fmt.Errorf("sstp: negative SummaryInterval")
	}
	if c.SummaryInterval == 0 {
		c.SummaryInterval = time.Second
	}
	if c.Scope == 0 {
		c.Scope = protocol.DefaultScope
	}
	if c.TraceNode == "" {
		c.TraceNode = fmt.Sprintf("s%d", c.SenderID)
	}
	c.Stripes = table.NormalizeStripes(c.Stripes)
	if c.CoalesceRecords < 1 {
		c.CoalesceRecords = 1
	}
	if c.CoalesceRecords > protocol.MaxBatch {
		c.CoalesceRecords = protocol.MaxBatch
	}
	if c.BatchDatagrams < 1 {
		c.BatchDatagrams = 1
	}
	if c.BatchDatagrams > 256 {
		c.BatchDatagrams = 256
	}
	if len(c.Classes) == 0 {
		c.Classes = []Class{{Name: "data", Weight: 1}}
	}
	seen := make(map[string]bool, len(c.Classes))
	for _, cl := range c.Classes {
		if cl.Name == "" || cl.Weight <= 0 {
			return c, fmt.Errorf("sstp: class %+v needs a name and positive weight", cl)
		}
		if seen[cl.Name] {
			return c, fmt.Errorf("sstp: duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
	}
	return c, nil
}

// SenderStats are cumulative counters, safe to read via Sender.Stats.
type SenderStats struct {
	DataSent       int // record announcements (frames), not datagrams
	DatagramsSent  int // data datagrams; < DataSent when coalescing
	BatchesSent    int // WriteBatch calls by the sender's own loop (0 when driven)
	SummariesSent  int
	DigestsSent    int
	HeartbeatsSent int
	BytesSent      int
	NACKsReceived  int
	KeysPromoted   int
	QueriesServed  int
	ReportsHeard   int
	LossEstimate   float64 // latest smoothed report loss
	Rate           float64 // current total session rate

	// SentByClass counts data announcements per application class;
	// BytesByClass counts their payload bytes (the quantity the
	// hierarchical scheduler actually divides).
	SentByClass  map[string]int
	BytesByClass map[string]int
}

const (
	sqHot  = 0
	sqCold = 1
)

// Class is one application data class in the Figure-12 sharing tree.
type Class struct {
	Name   string
	Weight float64
	// HotFraction overrides the sender-wide hot share for this class
	// when positive.
	HotFraction float64
}

type senderClass struct {
	name   string
	queues [2]entryList
	leaf   [2]int // hierarchy leaf ids for {hot, cold}
}

type sendEntry struct {
	key        string
	class      int
	queue      int
	prev, next *sendEntry // intrusive FIFO links (no per-move allocation)
	tombstone  int        // >0: remaining deletion announcements
}

// entryList is an intrusive FIFO of sendEntries. Unlike
// container/list it allocates nothing per push — the links live in
// the entry itself, which is moved between the hot and cold queues on
// every announcement.
type entryList struct {
	head, tail *sendEntry
	n          int
}

func (l *entryList) Len() int { return l.n }

func (l *entryList) pushBack(e *sendEntry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *entryList) remove(e *sendEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// senderStripe is one shard of the publisher table plus its slice of
// the namespace digest tree. Keys are striped by their first path
// component, so entire top-level subtrees live in one stripe and the
// combined root digest is byte-identical to an unsharded tree's.
//
// Lock order: s.mu may be held while taking a stripe lock (the pick
// path), but a stripe lock must never be held while taking s.mu —
// stripe-side callbacks park work in `expired` instead.
type senderStripe struct {
	nsStripe
	pub     *table.Publisher
	expired []string // keys evicted while the stripe lock was held
}

// nsStripe is the namespace half of a sender or receiver stripe: its
// slice of the digest tree, and the lock that guards the tree together
// with the stripe's table.
type nsStripe struct {
	mu sync.Mutex
	ns *namespace.Tree
}

// nsStripes views a sender's or receiver's stripes as one namespace.
// Keys are striped by their first path component, so every path but
// the root lives wholly in one stripe, and the root's children are the
// merge of the stripes' top-level children. Stripes are locked one at
// a time, never two at once.
type nsStripes []*nsStripe

// forPath returns the stripe holding path (or key).
func (ss nsStripes) forPath(path string) *nsStripe {
	return ss[table.StripeIndex(table.Key(path), len(ss))]
}

// rootSummary returns the root digest plus the total leaf count. The
// merged root is byte-identical to an unsharded tree's.
func (ss nsStripes) rootSummary() (namespace.Digest, int) {
	if len(ss) == 1 {
		st := ss[0]
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.ns.RootDigest(), st.ns.Len()
	}
	kids, count := ss.rootChildren()
	return namespace.CombineRoot(namespace.HashSHA256, kids), count
}

// rootChildren merges the stripes' top-level children into the root's
// sorted child list and sums the stripes' leaf counts.
func (ss nsStripes) rootChildren() ([]namespace.Child, int) {
	groups := make([][]namespace.Child, len(ss))
	count := 0
	for i, st := range ss {
		st.mu.Lock()
		groups[i], _ = st.ns.Children("")
		count += st.ns.Len()
		st.mu.Unlock()
	}
	return namespace.CombineChildren(groups...), count
}

// childrenAt appends the sorted children of the node at path to dst;
// ok is false when there is no node at path.
func (ss nsStripes) childrenAt(dst []namespace.Child, path string) (kids []namespace.Child, ok bool) {
	if path == "" && len(ss) > 1 {
		kids, _ = ss.rootChildren()
		return append(dst, kids...), true
	}
	st := ss.forPath(path)
	st.mu.Lock()
	defer st.mu.Unlock()
	kids, err := st.ns.AppendChildren(dst, path)
	return kids, err == nil
}

// Sender is an SSTP publisher.
type Sender struct {
	cfg   SenderConfig
	bconn *netio.BatchConn

	stripes []*senderStripe
	ns      nsStripes     // the stripes' namespace halves
	liveN   atomic.Int64  // live records across stripes
	verN    atomic.Uint64 // sender-global version counter (see publish)

	mu          sync.Mutex
	scope       uint8
	share       *sched.Hierarchy
	classes     []*senderClass
	classByName map[string]int
	leafOwner   [][2]int // leaf id -> {class index, queue}
	entries     map[string]*sendEntry
	bucket      *congestion.TokenBucket
	aimd        *congestion.AIMD
	seq         uint32
	stats       SenderStats
	m           senderMetrics
	started     float64 // publish-rate estimation window start
	pubBits     float64 // bits published in the window

	// Hot-path reuse: the announcement datagram buffer, the frame
	// accumulator, and the Data message are owned by whichever
	// goroutine drives NextWire (sendLoop, or a fabric's writer), the
	// wait timer by sendLoop's sleeps. Zero allocations per
	// announcement in steady state.
	encBuf       []byte
	frameBuf     []byte   // coalesced record frames for the datagram being built
	pending      []byte   // frame that overflowed the previous datagram's budget
	pendingBig   bool     // pending frame alone exceeds the MTU budget
	sweepScratch []string // sendLoop-owned copy of a stripe's expired keys
	dataMsg      protocol.Data
	waitTimer    *time.Timer
	readyFn      func(id int) bool // persistent scheduler-ready predicate

	// Query-path reuse, owned by recvLoop: the child listing scratch
	// and the Digests replies are recycled across queries (send encodes
	// synchronously, so the replies are free again on return).
	qKids []namespace.Child
	qResp []protocol.Digests

	// goodbyePending asks the send loop to emit a Goodbye datagram;
	// deferring it keeps the Goodbye strictly after any announcement
	// the loop has already picked. Guarded by mu.
	goodbyePending bool

	// NextWire state, owned by the single driving goroutine: sendLoop
	// after Start, the external driver after StartDriven.
	driven      bool
	nextSummary time.Time
	lastSweep   float64
	ctlBuf      []byte // control datagrams built by NextWire

	// wake cuts sendLoop's idle nap short: Publish, Delete and Goodbye
	// poke it so new work does not wait out the nap.
	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewSender constructs a publisher; call Start to begin announcing.
func NewSender(cfg SenderConfig) (*Sender, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Bucket depth is four full batches: it must hold sendLoop's pacing
	// quantum (at most one batch), and the slack keeps a loop that was
	// held off the CPU for a few batch times from forfeiting its rate.
	burst := float64(4 * cfg.BatchDatagrams * 8 * 1500)
	s := &Sender{
		cfg:         cfg,
		bconn:       netio.Wrap(cfg.Conn),
		entries:     make(map[string]*sendEntry),
		classByName: make(map[string]int),
		bucket:      congestion.NewTokenBucket(cfg.TotalRate, burst),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
		started:     nowSeconds(),
		m:           newSenderMetrics(cfg.Obs, cfg.Classes),
	}
	s.scope = cfg.Scope
	s.stripes = make([]*senderStripe, cfg.Stripes)
	s.ns = make(nsStripes, cfg.Stripes)
	for i := range s.stripes {
		st := &senderStripe{}
		s.wireStripe(st)
		s.stripes[i], s.ns[i] = st, &st.nsStripe
	}
	// Build the Figure-12 sharing tree: root -> class -> {hot, cold}.
	s.share = sched.NewHierarchy(func() sched.Scheduler { return sched.NewStride() })
	for i, cl := range cfg.Classes {
		node := s.share.AddNode(s.share.Root(), cl.Name, cl.Weight)
		hotFrac := cl.HotFraction
		if hotFrac <= 0 || hotFrac >= 1 {
			hotFrac = cfg.HotFraction
		}
		sc := &senderClass{name: cl.Name}
		hot := s.share.AddLeaf(node, cl.Name+"/hot", hotFrac)
		cold := s.share.AddLeaf(node, cl.Name+"/cold", 1-hotFrac)
		sc.leaf[sqHot] = hot.LeafID()
		sc.leaf[sqCold] = cold.LeafID()
		s.classes = append(s.classes, sc)
		s.classByName[cl.Name] = i
		s.leafOwner = append(s.leafOwner, [2]int{i, sqHot}, [2]int{i, sqCold})
	}
	s.readyFn = func(id int) bool {
		owner := s.leafOwner[id]
		return s.classes[owner[0]].queues[owner[1]].Len() > 0
	}
	if cfg.MinRate > 0 {
		s.aimd = congestion.NewAIMD(cfg.TotalRate, cfg.MinRate, cfg.MaxRate)
		s.aimd.Instrument(cfg.Obs)
	}
	s.share.Instrument(cfg.Obs)
	s.stats.Rate = cfg.TotalRate
	s.m.rate.Set(cfg.TotalRate)
	return s, nil
}

// wireStripe installs fresh tables on a stripe. Lifetime expiry
// (fired under the stripe lock, from Sweep or Delete) removes the key
// from the stripe's namespace slice and parks it in st.expired; the
// queue-side cleanup runs later under s.mu via dropExpired, because a
// stripe lock must never be held while taking s.mu.
func (s *Sender) wireStripe(st *senderStripe) {
	st.pub = table.NewPublisher()
	st.ns = namespace.New(namespace.HashSHA256)
	st.pub.OnExpire = func(r *table.Record) {
		key := string(r.Key)
		st.ns.Delete(key)
		st.expired = append(st.expired, key)
		s.liveN.Add(-1)
	}
}

// stripeFor returns the stripe owning key (or any namespace path —
// both hash their first '/'-component).
func (s *Sender) stripeFor(key string) *senderStripe {
	return s.stripes[table.StripeIndex(table.Key(key), len(s.stripes))]
}

// dropExpired reconciles the transmission queues with keys a stripe's
// expiry heap evicted. Caller must NOT hold any stripe lock.
func (s *Sender) dropExpired(keys []string) {
	if len(keys) == 0 {
		return
	}
	s.mu.Lock()
	for _, key := range keys {
		if e := s.entries[key]; e != nil && e.tombstone == 0 {
			s.removeEntry(e)
		}
		s.m.deletes.Inc()
		traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Die, key)
	}
	s.m.live.Set(float64(s.liveN.Load()))
	s.mu.Unlock()
}

// sweep expires lapsed records stripe by stripe (O(1) per stripe when
// nothing is due). Only NextWire calls it.
func (s *Sender) sweep(now float64) {
	for _, st := range s.stripes {
		st.mu.Lock()
		st.expired = st.expired[:0]
		st.pub.Sweep(now)
		s.sweepScratch = append(s.sweepScratch[:0], st.expired...)
		st.mu.Unlock()
		s.dropExpired(s.sweepScratch)
	}
}

// Start launches the announcement and control loops.
func (s *Sender) Start() {
	if s.driven {
		panic("sstp: Start after StartDriven")
	}
	s.nextSummary = time.Now().Add(s.cfg.SummaryInterval)
	s.wg.Add(2)
	go s.sendLoop()
	go s.recvLoop()
}

// StartDriven launches only the feedback loop: announcement datagrams
// are pulled by an external driver (the session fabric) via NextWire
// instead of pushed by an owned send loop, so thousands of sessions
// share one writer goroutine and one socket. The sender's own token
// bucket still meters this session's demand — NextWire reports "not
// ready" when the session is out of tokens — so per-session rate
// configuration keeps meaning under a shared link. Use either Start
// or StartDriven, never both.
func (s *Sender) StartDriven() {
	s.driven = true
	s.nextSummary = time.Now().Add(s.cfg.SummaryInterval)
	s.wg.Add(1)
	go s.recvLoop()
}

// NextWire returns the sender's next wire-ready datagram: a pending
// Goodbye, a due summary (or heartbeat), or the next coalesced
// announcement, in that priority order. ok=false means the session
// has nothing to send right now — nothing queued, or its token bucket
// is drained. An announcement is built only while the bucket balance
// is positive and is then charged its true size, so the balance
// overdraws by at most one datagram and repays out of refill: nothing
// is ever picked and then parked behind the pacer. The returned buffer
// is owned by the sender and valid only until the next NextWire call;
// drivers copy it out. Only the single driving goroutine may call
// NextWire: the sender's own sendLoop after Start, the external driver
// after StartDriven.
func (s *Sender) NextWire() ([]byte, bool) {
	s.mu.Lock()
	goodbye := s.goodbyePending
	s.goodbyePending = false
	s.mu.Unlock()
	if goodbye {
		return s.encodeControl(&protocol.Goodbye{}), true
	}
	if now := time.Now(); now.After(s.nextSummary) {
		s.nextSummary = now.Add(s.cfg.SummaryInterval)
		return s.summaryWire(), true
	}
	now := nowSeconds()
	if now-s.lastSweep > 0.05 {
		s.lastSweep = now
		s.sweep(now)
	}
	s.mu.Lock()
	ready := s.bucket.Balance(now) > 0
	s.mu.Unlock()
	if !ready {
		return nil, false
	}
	buf, ok := s.nextDatagram()
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	s.bucket.Take(nowSeconds(), float64(8*len(buf)))
	s.mu.Unlock()
	return buf, true
}

// summaryWire builds the periodic summary datagram — the root digest,
// or a heartbeat while the table is empty, which keeps the sequence
// space alive so receivers can estimate loss.
func (s *Sender) summaryWire() []byte {
	digest, count := s.ns.rootSummary()
	var msg protocol.Message
	if count == 0 {
		msg = &protocol.Heartbeat{}
		s.mu.Lock()
		s.stats.HeartbeatsSent++
		s.mu.Unlock()
		s.m.heartbeats.Inc()
	} else {
		sum := &protocol.Summary{Count: uint32(count)}
		copy(sum.Digest[:], digest[:])
		msg = sum
		s.mu.Lock()
		s.stats.SummariesSent++
		s.mu.Unlock()
		s.m.summaries.Inc()
	}
	return s.encodeControl(msg)
}

// encodeControl seals one control message into NextWire's control
// buffer (valid until the next NextWire call), charging the session
// bucket the true datagram size.
func (s *Sender) encodeControl(msg protocol.Message) []byte {
	s.mu.Lock()
	s.seq++
	hdr := protocol.Header{Session: s.cfg.Session, Sender: s.cfg.SenderID, Seq: s.seq, Scope: s.scope}
	s.ctlBuf = protocol.AppendEncode(s.ctlBuf[:0], hdr, msg)
	s.stats.BytesSent += len(s.ctlBuf)
	s.m.txBits.Add(uint64(8 * len(s.ctlBuf)))
	s.bucket.Take(nowSeconds(), float64(8*len(s.ctlBuf)))
	s.mu.Unlock()
	return s.ctlBuf
}

// Close stops the sender and sends a final Goodbye. The Goodbye goes
// out only after the send loop has exited, so it is guaranteed to be
// the last datagram on the session — a Data announcement arriving
// after it would silently repopulate receivers that flushed on it.
// Safe to call twice.
func (s *Sender) Close() error {
	s.once.Do(func() {
		close(s.done)
		// Unblock the reader.
		_ = s.cfg.Conn.SetReadDeadline(time.Now())
		s.wg.Wait()
		s.send(&protocol.Goodbye{})
	})
	s.wg.Wait()
	return nil
}

// SetScope changes the hop budget stamped on subsequent datagrams. A
// relay calls it once it learns its upstream scope.
func (s *Sender) SetScope(scope uint8) {
	s.mu.Lock()
	s.scope = scope
	s.mu.Unlock()
}

// Goodbye flushes every record and announces the departure without
// stopping the sender: relays use it to propagate an upstream Goodbye
// downstream while staying alive for a future publisher. The Goodbye
// datagram itself is emitted by the send loop, after any announcement
// it had already picked — a Data datagram arriving after the Goodbye
// would silently repopulate receivers that flushed on it. Close still
// sends a final Goodbye of its own.
func (s *Sender) Goodbye() {
	for _, st := range s.stripes {
		st.mu.Lock()
		s.wireStripe(st)
		st.expired = st.expired[:0]
		st.mu.Unlock()
	}
	s.liveN.Store(0)
	s.verN.Store(0) // fresh tables restart version assignment, as before sharding
	s.mu.Lock()
	for _, e := range s.entries {
		if e.queue >= 0 {
			s.classes[e.class].queues[e.queue].remove(e)
			e.queue = -1
		}
	}
	s.entries = make(map[string]*sendEntry)
	s.m.live.Set(0)
	s.goodbyePending = true
	s.mu.Unlock()
	s.poke()
}

// Publish inserts or updates a record. Lifetime 0 means the record
// lives until Delete.
func (s *Sender) Publish(key string, value []byte, lifetime time.Duration) error {
	return s.publish(key, value, 0, false, 0, lifetime)
}

// Republish is Publish with a caller-supplied record version and
// origin publish time (Unix seconds; 0 = unknown). Relays use it to
// forward upstream records verbatim: the namespace digest covers
// versions, so only version-preserving forwarding lets every replica
// in an overlay tree hash to the origin publisher's digest — and
// preserving the origin time keeps downstream visibility lag measured
// end-to-end rather than per hop.
func (s *Sender) Republish(key string, value []byte, version uint64, born float64, lifetime time.Duration) error {
	return s.publish(key, value, version, true, born, lifetime)
}

func (s *Sender) publish(key string, value []byte, version uint64, haveVersion bool, born float64, lifetime time.Duration) error {
	if len(key) > protocol.MaxKeyLen {
		return fmt.Errorf("sstp: key length %d exceeds %d", len(key), protocol.MaxKeyLen)
	}
	if len(value) > protocol.MaxValueLen {
		return fmt.Errorf("sstp: value length %d exceeds %d", len(value), protocol.MaxValueLen)
	}
	// Stripe phase: the digest-tree insert and the table insert are
	// atomic under one stripe lock — a summary computed between them
	// would advertise a digest no repair can ever converge to. The
	// tree goes first, so a path it refuses never reaches the table.
	// Versions are assigned from a sender-global counter, not the
	// per-stripe table counter: the namespace digest covers versions,
	// so a striped sender must assign the same versions an unsharded
	// one would for the same publish sequence (pinned by test).
	if !haveVersion {
		version = s.verN.Add(1)
	} else {
		for {
			cur := s.verN.Load()
			if version <= cur || s.verN.CompareAndSwap(cur, version) {
				break
			}
		}
	}
	st := s.stripeFor(key)
	st.mu.Lock()
	if err := st.ns.Put(key, value, version); err != nil {
		st.mu.Unlock()
		return err
	}
	now := nowSeconds()
	existed := st.pub.Get(table.Key(key)) != nil
	if !haveVersion {
		born = now
	}
	st.pub.PutVersionBorn(table.Key(key), value, version, born, now, lifetime.Seconds())
	if !existed {
		s.liveN.Add(1)
	}
	st.mu.Unlock()

	// Global phase: queue bookkeeping under s.mu, stripe lock released.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pubBits += float64(8 * (len(value) + len(key)))
	s.m.pubRate.Add(float64(8 * (len(value) + len(key))))
	e := s.entries[key]
	if e == nil {
		e = &sendEntry{key: key, class: s.classify(key), queue: -1}
		s.entries[key] = e
		s.m.publishes.Inc()
		traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Arrive, key)
	} else {
		s.m.updates.Inc()
		traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Update, key)
	}
	e.tombstone = 0
	s.moveTo(e, sqHot)
	s.m.live.Set(float64(s.liveN.Load()))
	s.poke()
	return nil
}

// classify maps a key to its class index: the class its first path
// component names, or the first class. Caller holds s.mu.
func (s *Sender) classify(key string) int {
	name := key
	if i := strings.IndexByte(key, '/'); i > 0 {
		name = key[:i]
	}
	if idx, ok := s.classByName[name]; ok {
		return idx
	}
	return 0
}

// Delete removes a record and schedules tombstone announcements.
func (s *Sender) Delete(key string) bool {
	st := s.stripeFor(key)
	st.mu.Lock()
	st.expired = st.expired[:0]
	ok := st.pub.Delete(table.Key(key)) // fires OnExpire: ns cleanup + liveN
	st.mu.Unlock()
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		e = &sendEntry{key: key, class: s.classify(key), queue: -1}
		s.entries[key] = e
	}
	e.tombstone = tombstoneRepeats
	s.moveTo(e, sqHot)
	s.m.deletes.Inc()
	s.m.live.Set(float64(s.liveN.Load()))
	traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Die, key)
	s.poke()
	return true
}

// moveTo places an entry at the tail of its class's queue q (removing
// it from its current queue if needed). Caller holds s.mu.
func (s *Sender) moveTo(e *sendEntry, q int) {
	if e.queue == q {
		return
	}
	cl := s.classes[e.class]
	if e.queue >= 0 {
		cl.queues[e.queue].remove(e)
	}
	e.queue = q
	cl.queues[q].pushBack(e)
}

func (s *Sender) removeEntry(e *sendEntry) {
	if e.queue >= 0 {
		s.classes[e.class].queues[e.queue].remove(e)
		e.queue = -1
	}
	delete(s.entries, e.key)
}

// Stats returns a copy of the current counters.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.stats.SentByClass != nil {
		st.SentByClass = make(map[string]int, len(s.stats.SentByClass))
		for k, v := range s.stats.SentByClass {
			st.SentByClass[k] = v
		}
	}
	if s.stats.BytesByClass != nil {
		st.BytesByClass = make(map[string]int, len(s.stats.BytesByClass))
		for k, v := range s.stats.BytesByClass {
			st.BytesByClass[k] = v
		}
	}
	return st
}

// Len returns the number of live records.
func (s *Sender) Len() int {
	n := 0
	for _, st := range s.stripes {
		st.mu.Lock()
		n += st.pub.Len()
		st.mu.Unlock()
	}
	return n
}

// RootDigest returns the namespace root digest (for convergence
// checks). With multiple stripes it is the combined root —
// byte-identical to the digest an unsharded tree computes over the
// same records.
func (s *Sender) RootDigest() namespace.Digest {
	d, _ := s.ns.rootSummary()
	return d
}

// Snapshot returns a copy of the live {key, value} table.
func (s *Sender) Snapshot() map[string][]byte {
	out := make(map[string][]byte)
	now := nowSeconds()
	for _, st := range s.stripes {
		st.mu.Lock()
		for _, r := range st.pub.LiveRecords(now) {
			out[string(r.Key)] = append([]byte(nil), r.Value...)
		}
		st.mu.Unlock()
	}
	return out
}

// send encodes and transmits one message, charging no bucket (control
// path). Caller must NOT hold s.mu... it takes it for seq/stat fields.
func (s *Sender) send(msg protocol.Message) {
	bp := pktPool.Get().(*[]byte)
	s.mu.Lock()
	s.seq++
	hdr := protocol.Header{Session: s.cfg.Session, Sender: s.cfg.SenderID, Seq: s.seq, Scope: s.scope}
	*bp = protocol.AppendEncode((*bp)[:0], hdr, msg)
	s.stats.BytesSent += len(*bp)
	s.m.txBits.Add(uint64(8 * len(*bp)))
	s.mu.Unlock()
	_, _ = s.cfg.Conn.WriteTo(*bp, s.cfg.Dest)
	pktPool.Put(bp)
}

// sendLoop is the one-tenant driver of NextWire: wait for tokens
// first, pick last, write at once. It sleeps until the bucket holds
// one pacing quantum, collects wires while NextWire has one ready (up
// to BatchDatagrams) and hands them to the socket immediately (one
// sendmmsg on Linux). Batch size thereby follows the rate: one
// datagram per wake-up at 1 Mbit/s, a full batch when the bucket is
// not the bottleneck — and a new hot record never waits behind
// datagrams that were picked before it but not yet written.
func (s *Sender) sendLoop() {
	defer s.wg.Done()
	nb := s.cfg.BatchDatagrams
	batchBits := float64(nb * 8 * 1500) // the pacing quantum's cap
	txStore := make([][]byte, nb)       // persistent per-slot buffers
	txBufs := make([][]byte, 0, nb)
	for {
		select {
		case <-s.done:
			return
		default:
		}
		txBufs = txBufs[:0]
		for len(txBufs) < nb {
			buf, ok := s.NextWire()
			if !ok {
				break
			}
			// NextWire reuses its buffer; park a copy in this slot's
			// persistent storage so the batch can accumulate.
			i := len(txBufs)
			txStore[i] = append(txStore[i][:0], buf...)
			txBufs = append(txBufs, txStore[i])
		}
		if len(txBufs) > 0 {
			_, _ = s.bconn.WriteBatch(s.cfg.Dest, txBufs)
		}
		s.mu.Lock()
		if len(txBufs) > 0 {
			s.stats.BatchesSent++
		}
		wait := s.bucket.PaceWait(nowSeconds(), batchBits)
		s.mu.Unlock()
		switch {
		case wait > 0:
			// Out of tokens: nothing a Publish could change until the
			// bucket refills, so this sleep is not wakeable.
			if !s.sleep(time.Duration(wait*float64(time.Second)), nil) {
				return
			}
		case len(txBufs) < nb:
			// Tokens in hand and nothing queued: nap until the next
			// summary is due or new work pokes the loop.
			d := 20 * time.Millisecond
			if until := time.Until(s.nextSummary); until < d {
				d = until
			}
			if !s.sleep(d, s.wake) {
				return
			}
		}
	}
}

// sleep waits for d, a receive on wake (nil: not wakeable) or Close,
// reusing one timer across calls instead of allocating a time.After
// per wait. Only sendLoop may call it. It returns false if the sender
// closed while waiting.
func (s *Sender) sleep(d time.Duration, wake <-chan struct{}) bool {
	if s.waitTimer == nil {
		s.waitTimer = time.NewTimer(d)
	} else {
		s.waitTimer.Reset(d)
	}
	open := true
	select {
	case <-s.waitTimer.C:
		return true
	case <-wake:
	case <-s.done:
		open = false
	}
	if !s.waitTimer.Stop() {
		<-s.waitTimer.C
	}
	return open
}

// poke wakes sendLoop from its idle nap (non-blocking: one pending
// wake-up is as good as many).
func (s *Sender) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// nextDatagram builds the next announcement datagram, coalescing up
// to CoalesceRecords record frames within the MTU budget. One record
// still travels as a plain Data datagram (byte-identical to the
// pre-coalescing wire format); two or more become a DataBatch whose
// records decode in pick order, so the delivery sequence matches
// one-record datagrams exactly. The returned buffer is owned by the
// sender and valid until the next call; steady state allocates
// nothing — frames, pending carry-over, and the wire buffer are all
// reused.
func (s *Sender) nextDatagram() ([]byte, bool) {
	budget := coalesceMTU - protocol.HeaderLen - 2
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frameBuf = s.frameBuf[:0]
	count := 0
	if len(s.pending) > 0 {
		// A frame that overflowed the previous datagram goes first.
		if s.pendingBig {
			// Too large for any MTU budget: send whole in its own
			// datagram (IP fragments it, as before coalescing).
			buf := s.emitLocked(s.pending, 1)
			s.pending = s.pending[:0]
			s.pendingBig = false
			return buf, true
		}
		s.frameBuf = append(s.frameBuf, s.pending...)
		s.pending = s.pending[:0]
		count = 1
	}
	for count < s.cfg.CoalesceRecords {
		mark := len(s.frameBuf)
		var ok bool
		s.frameBuf, ok = s.pickFrame(s.frameBuf)
		if !ok {
			break
		}
		if count > 0 && len(s.frameBuf) > budget {
			// Doesn't fit: carry the frame into the next datagram.
			s.pending = append(s.pending[:0], s.frameBuf[mark:]...)
			s.pendingBig = len(s.frameBuf)-mark > budget
			s.frameBuf = s.frameBuf[:mark]
			break
		}
		count++
		if len(s.frameBuf) >= budget {
			break
		}
	}
	if count == 0 {
		return nil, false
	}
	return s.emitLocked(s.frameBuf, count), true
}

// emitLocked seals count record frames into a datagram: plain Data
// for one record, DataBatch for several. Caller holds s.mu.
func (s *Sender) emitLocked(frames []byte, count int) []byte {
	s.seq++
	hdr := protocol.Header{Session: s.cfg.Session, Sender: s.cfg.SenderID, Seq: s.seq, Scope: s.scope}
	if count == 1 {
		s.encBuf = protocol.AppendDataDatagram(s.encBuf[:0], hdr, frames[2:])
	} else {
		s.encBuf = protocol.AppendBatchDatagram(s.encBuf[:0], hdr, count, frames)
	}
	s.stats.DatagramsSent++
	s.stats.BytesSent += len(s.encBuf)
	s.m.txBits.Add(uint64(8 * len(s.encBuf)))
	s.m.live.Set(float64(s.liveN.Load()))
	return s.encBuf
}

// pickFrame pops the next record per the hot/cold schedule and
// appends its batch frame (2-byte length prefix + Data body) to dst.
// Caller holds s.mu; the record value is copied out under its stripe
// lock, never pinned.
func (s *Sender) pickFrame(dst []byte) ([]byte, bool) {
	for {
		leaf, ok := s.share.Pick(s.readyFn)
		if !ok {
			return dst, false
		}
		owner := s.leafOwner[leaf]
		q := &s.classes[owner[0]].queues[owner[1]]
		e := q.head
		q.remove(e)
		e.queue = -1
		if owner[1] == sqHot {
			s.m.annHot.Inc()
		} else {
			s.m.annCold.Inc()
		}
		mark := len(dst)
		if e.tombstone > 0 {
			e.tombstone--
			s.dataMsg = protocol.Data{Key: e.key, Deleted: true}
			dst = protocol.AppendBatchRecord(dst, &s.dataMsg)
			if e.tombstone > 0 {
				s.moveTo(e, sqCold)
			} else {
				s.removeEntry(e)
			}
		} else {
			st := s.stripeFor(e.key)
			st.mu.Lock()
			rec := st.pub.Get(table.Key(e.key))
			if rec == nil || !rec.Live(nowSeconds()) {
				st.mu.Unlock()
				s.removeEntry(e)
				continue // dead entry; keep picking
			}
			s.dataMsg = protocol.Data{
				Key:    e.key,
				Ver:    rec.Version,
				TTLms:  uint32(s.cfg.TTL.Milliseconds()),
				BornMs: uint64(rec.Born * 1000),
				Value:  rec.Value,
			}
			dst = protocol.AppendBatchRecord(dst, &s.dataMsg)
			st.mu.Unlock()
			s.dataMsg.Value = nil // do not pin the record's value buffer
			if !s.cfg.NoRetransmit {
				s.moveTo(e, sqCold)
			}
			s.stats.DataSent++
			if s.stats.SentByClass == nil {
				s.stats.SentByClass = make(map[string]int)
			}
			s.stats.SentByClass[s.classes[e.class].name]++
			if e.class < len(s.m.byClassSent) {
				s.m.byClassSent[e.class].Inc()
			}
		}
		frameLen := len(dst) - mark
		if s.stats.BytesByClass == nil {
			s.stats.BytesByClass = make(map[string]int)
		}
		s.stats.BytesByClass[s.classes[e.class].name] += frameLen
		if e.class < len(s.m.byClassBits) {
			s.m.byClassBits[e.class].Add(uint64(8 * frameLen))
		}
		traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Transmit, e.key)
		s.share.Charge(leaf, float64(8*frameLen))
		return dst, true
	}
}

// recvLoop handles feedback: NACKs, namespace queries, and receiver
// reports.
func (s *Sender) recvLoop() {
	defer s.wg.Done()
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := *bp
	dec := protocol.NewDecoder()
	for {
		select {
		case <-s.done:
			return
		default:
		}
		_ = s.cfg.Conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := s.cfg.Conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
		hdr, msg, err := dec.Decode(buf[:n])
		if err != nil || hdr.Session != s.cfg.Session {
			continue
		}
		if hdr.Sender == s.cfg.SenderID {
			continue // our own multicast loopback
		}
		switch m := msg.(type) {
		case *protocol.NACK:
			s.onNACK(m)
		case *protocol.Query:
			s.onQuery(m)
		case *protocol.Report:
			s.onReport(m)
		}
	}
}

func (s *Sender) onNACK(m *protocol.NACK) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NACKsReceived++
	s.m.nacksRecv.Inc()
	for _, key := range m.Keys {
		e, ok := s.entries[key]
		if !ok {
			continue // dead or unknown key; the next summary resolves it
		}
		if e.queue == sqCold {
			s.moveTo(e, sqHot)
			s.stats.KeysPromoted++
			s.m.promotions.Inc()
			traceRecord(s.cfg.Trace, s.cfg.TraceNode, trace.Promote, key)
		}
	}
}

// onQuery answers a Query for a path this sender holds with the
// node's child digests, in as many Digests datagrams as the listing
// needs.
func (s *Sender) onQuery(m *protocol.Query) {
	kids, ok := s.ns.childrenAt(s.qKids[:0], m.Path)
	s.qKids = kids[:0]
	if !ok {
		return
	}
	s.qResp = descent.Answer(s.qResp[:0], m.Path, kids)
	s.mu.Lock()
	s.stats.QueriesServed++
	s.m.queries.Inc()
	s.stats.DigestsSent += len(s.qResp)
	s.m.digests.Add(uint64(len(s.qResp)))
	s.mu.Unlock()
	for i := range s.qResp {
		s.send(&s.qResp[i])
	}
}

func (s *Sender) onReport(m *protocol.Report) {
	s.mu.Lock()
	s.stats.ReportsHeard++
	s.stats.LossEstimate = m.Loss()
	s.m.reports.Inc()
	s.m.loss.Set(m.Loss())
	var newRate float64
	if s.aimd != nil {
		newRate = s.aimd.OnReport(m.Loss())
		s.bucket.SetRate(newRate)
		s.stats.Rate = newRate
	} else {
		newRate = s.cfg.TotalRate
	}
	// Profile-driven reallocation (§6.1).
	var alloc profile.Allocation
	var allocErr error
	if s.cfg.Allocator != nil {
		elapsed := nowSeconds() - s.started
		appRate := 0.0
		if elapsed > 0 {
			appRate = s.pubBits / elapsed
		}
		alloc, allocErr = s.cfg.Allocator.Allocate(newRate, m.Loss(), appRate)
		switch {
		case allocErr != nil:
			s.m.allocErr.Inc()
		case alloc.RateLimited:
			s.m.allocLim.Inc()
		default:
			s.m.allocOK.Inc()
		}
		if allocErr == nil {
			total := alloc.MuHot + alloc.MuCold
			if total > 0 {
				// Re-split every class's hot/cold share per the
				// profile-driven allocation.
				for _, cl := range s.classes {
					s.share.SetWeight(cl.leaf[sqHot], alloc.MuHot/total)
					s.share.SetWeight(cl.leaf[sqCold], alloc.MuCold/total)
				}
			}
			if alloc.MuData > 0 {
				s.bucket.SetRate(alloc.MuData)
				s.stats.Rate = alloc.MuData
			}
		}
	}
	limited := allocErr == nil && alloc.RateLimited
	cb := s.cfg.OnRateLimit
	maxRate := alloc.MaxAppRate
	s.mu.Unlock()
	if limited && cb != nil {
		cb(maxRate)
	}
}
