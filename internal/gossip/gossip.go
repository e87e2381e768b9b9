// Package gossip is the leaderless second overlay of the soft-state
// stack: a peer-to-peer anti-entropy mesh in which every node holds a
// full replica and, on a jittered cadence, picks a random live peer
// and reconciles with it. Where the relay tree (internal/relay) scopes
// recovery hierarchically — each hop repairs its subtree — the mesh
// scopes it symmetrically: any replica repairs any other, so there is
// no root to die and no subtree to orphan.
//
// The anti-entropy primitive is the namespace digest tree the paper
// builds for SSTP (section 6.2): an exchange opens with root-digest
// Summaries, and a mismatch drives the same recursive Query/Digests
// descent a receiver uses against a sender, ending in NACK pulls of
// exactly the differing leaves. Both sides descend each other, so one
// exchange is a push-pull sync: each party pulls what the other has
// that it lacks. Origin versions and BornMs ride every record, applied
// with table.PutVersionBorn, so every replica hashes byte-identical to
// the origin and t-visibility is measured origin→delivery no matter
// how many hops a record gossiped through.
//
// Wire framing is the unchanged SSTP protocol over any
// transport.Conn (udp, tcp, tls, or mem). Gossip datagrams carry
// Scope 1 — reconciliation is strictly pairwise and must never be
// relayed. The header sequence number disambiguates roles: a round
// opener's Summary carries the sender's round counter (Seq ≥ 1) and is
// answered (ack or counter-Summary); every other gossip datagram
// carries Seq 0 and never elicits a Summary, which is what makes the
// exchange loop-free.
//
// Deletion uses death certificates: a deleted key leaves a tombstone
// (version = the deleted record's) for TombstoneTTL, and any attempt
// to push or pull the dead record is answered with a Deleted record
// that tombstones the other replica in turn, so deletions spread
// epidemically exactly like writes. TombstoneTTL should exceed the
// record TTLs in use, or a slow partition can resurrect a deleted key.
//
// Convergence obeys the classic push-pull epidemic model ("A Modeling
// Framework for Gossip-based Information Spread"): with n nodes and a
// fraction u(t) of them stale, one round leaves a node stale only if
// its own exchange hit a stale peer and no fresh node picked it, so
// E[u(t+1)] ≈ u(t)·u(t)·e^(−(1−u(t))) — super-exponential once spread
// takes hold. SpreadRounds evaluates the recurrence;
// TestSpreadWithinAnalyticBound validates measured rounds against it.
package gossip

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"softstate/internal/congestion"
	"softstate/internal/descent"
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

// probeEvery is the round period for probing one suspect or evicted
// peer (in addition to the main exchange), so a healed partition or a
// restarted node is re-discovered without waiting for it to speak
// first.
const probeEvery = 4

// Config parameterizes a gossip node.
type Config struct {
	// Session scopes the mesh: datagrams from other sessions are
	// ignored, exactly as in point-to-point SSTP.
	Session uint64

	// NodeID is this node's sender identifier; it must be unique in
	// the mesh and non-zero.
	NodeID uint64

	// Conn is the node's wire — any transport.Conn (udp, tcp, tls, or
	// mem), obtained from transport.Bind or a MemNetwork endpoint.
	Conn transport.Conn

	// Peers seeds the membership view with the other nodes'
	// addresses. The view then maintains itself: any node heard on
	// the conn joins it, nodes that miss rounds are suspected and
	// then evicted, and evicted nodes rejoin the moment they are
	// heard again.
	Peers []net.Addr

	// Interval is the anti-entropy round cadence (default 100 ms).
	// Each round sleeps Interval ± 25% (seeded jitter), so mesh
	// rounds desynchronize instead of thundering together.
	Interval time.Duration

	// RateBps, when positive, caps this node's outbound bandwidth
	// with a token bucket; datagrams beyond the budget are dropped
	// (idempotent anti-entropy repairs them next round). This is the
	// equal-bandwidth knob of the tree-vs-gossip experiment.
	RateBps float64

	// SuspectAfter / EvictAfter are the missed-exchange thresholds of
	// failure suspicion: a peer whose last SuspectAfter consecutive
	// openers went unanswered is suspected (avoided by the random
	// pick), and at EvictAfter it is evicted (contacted only by the
	// occasional probe). Defaults 3 and 8.
	SuspectAfter int
	EvictAfter   int

	// TombstoneTTL is how long death certificates are retained
	// (default 60 s). Keep it above the largest record lifetime.
	TombstoneTTL time.Duration

	// MaxPullPerRound bounds the leaves NACK-pulled per round
	// (default 512). A freshly (re)started replica therefore spreads
	// its catch-up pulls across rounds — and, with random peer
	// selection, across serving peers — instead of slamming one peer
	// for the whole dataset.
	MaxPullPerRound int

	// Obs, if non-nil, receives the sstp_gossip_* series, labeled
	// node=<NodeID> so one registry can host a whole mesh.
	Obs *obs.Registry

	// Trace, if non-nil, records per-key lifecycle events stamped
	// with this node's trace name (TraceNode, default "gossip<id>");
	// use trace.NewSafe.
	Trace     *trace.Ring
	TraceNode string

	// Consistency, if non-nil, feeds the online estimators: digest
	// agreement per exchange (E[c(t)]), origin→delivery t-visibility
	// per applied record, and per-key confirmation ages. May be
	// shared by every node of a mesh.
	Consistency *staleness.Estimator

	// Seed drives peer selection and round jitter.
	Seed int64
}

// PeerState is a membership-view entry's liveness classification.
type PeerState int

// Peer liveness states.
const (
	PeerLive    PeerState = iota // answering exchanges
	PeerSuspect                  // missed SuspectAfter consecutive openers
	PeerEvicted                  // missed EvictAfter; probed rarely, rejoins when heard
)

// String names the state.
func (s PeerState) String() string {
	switch s {
	case PeerLive:
		return "live"
	case PeerSuspect:
		return "suspect"
	default:
		return "evicted"
	}
}

// PeerInfo is one row of the membership view.
type PeerInfo struct {
	Addr   string
	State  PeerState
	Missed int // consecutive unanswered openers
}

// Stats are cumulative node counters.
type Stats struct {
	Rounds        int // anti-entropy rounds started
	ExchangesSent int // opener summaries sent (incl. probes)

	Agreements  int // root-digest comparisons that matched
	Divergences int // comparisons that differed (descents started)

	SummariesHeard int
	QueriesSent    int
	QueriesServed  int
	NACKsSent      int // leaves pulled
	RecordsServed  int // records sent answering pulls

	RecordsApplied    int
	RecordsConfirmed  int // duplicate-version refreshes
	RecordsRejected   int // stale or tombstoned versions refused
	TombstonesApplied int
	DeletePushbacks   int // live pushes refused with a death certificate
	Expired           int

	RateDropped int // datagrams dropped by the bandwidth budget
	Evictions   int
	Rejoins     int

	PeersLive    int
	PeersSuspect int
	PeersEvicted int

	BytesSent     int64
	BytesReceived int64
}

// tombstone is a death certificate: pushes and pulls of the key at or
// below ver are refused (and refuted) until the certificate ages out.
type tombstone struct {
	ver uint64
	at  float64
}

// peer is one membership-view entry.
type peer struct {
	addr   net.Addr
	state  PeerState
	missed int // consecutive unanswered openers
}

// Node is one member of the anti-entropy mesh.
type Node struct {
	cfg       Config
	traceNode string

	mu       sync.Mutex
	pub      *table.Publisher // replica + origin store (all access under mu)
	ns       *namespace.Tree
	localVer uint64 // version counter for locally published records
	deleting bool   // suppresses expiry bookkeeping during explicit deletes
	tombs    map[string]tombstone
	peers    map[string]*peer
	order    []*peer // stable iteration order for deterministic picks
	cycle    []int   // remaining indices of the current selection pass
	rnd      *xrand.Rand
	bucket   *congestion.TokenBucket // nil = unlimited
	round    uint64
	budget   int // remaining pull budget this round
	stats    Stats

	// Scratch reused across handler invocations (all under mu).
	kids []namespace.Child
	pack protocol.Packer

	m        nodeMetrics
	stopRead func() // stops the read loop (netio.Serve)
	done     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

// wallSeconds is the float-seconds wall clock shared with the tables.
func wallSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// pktPool recycles encode buffers across sends.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// New constructs a node; call Start to join the mesh.
func New(cfg Config) (*Node, error) {
	if cfg.Conn == nil {
		return nil, errors.New("gossip: needs Conn")
	}
	if cfg.NodeID == 0 {
		return nil, errors.New("gossip: needs a non-zero NodeID")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.EvictAfter <= cfg.SuspectAfter {
		cfg.EvictAfter = cfg.SuspectAfter + 5
	}
	if cfg.TombstoneTTL <= 0 {
		cfg.TombstoneTTL = 60 * time.Second
	}
	if cfg.MaxPullPerRound <= 0 {
		cfg.MaxPullPerRound = 512
	}
	if cfg.TraceNode == "" {
		cfg.TraceNode = fmt.Sprintf("gossip%d", cfg.NodeID)
	}
	n := &Node{
		cfg:       cfg,
		traceNode: cfg.TraceNode,
		pub:       table.NewPublisher(),
		ns:        namespace.New(namespace.HashSHA256),
		tombs:     make(map[string]tombstone),
		peers:     make(map[string]*peer),
		rnd:       xrand.New(cfg.Seed),
		pack:      protocol.Packer{Max: protocol.MaxBatch},
		m:         newNodeMetrics(cfg.Obs, cfg.NodeID),
		done:      make(chan struct{}),
	}
	if cfg.RateBps > 0 {
		// Burst admits a healthy batch of full datagrams so one pull
		// reply isn't split across refill cycles.
		n.bucket = congestion.NewTokenBucket(cfg.RateBps, math.Max(cfg.RateBps/4, 32*protocol.MTU*8))
	}
	// Expiry write-through: Sweep and Delete run under n.mu, so the
	// hook must not lock — it only maintains the digest tree and the
	// expiry bookkeeping.
	n.pub.OnExpire = func(rec *table.Record) {
		key := string(rec.Key)
		n.ns.Delete(key)
		n.cfg.Consistency.Forget(n.cfg.NodeID, key)
		if !n.deleting {
			n.stats.Expired++
			n.m.expired.Inc()
			n.traceKey(trace.Expire, key)
		}
	}
	self := ""
	if la := cfg.Conn.LocalAddr(); la != nil {
		self = la.String()
	}
	for _, a := range cfg.Peers {
		if a == nil || a.String() == self {
			continue
		}
		n.addPeerLocked(a)
	}
	return n, nil
}

// addPeerLocked inserts an address into the membership view (no-op if
// present). Callers hold n.mu or have exclusive access (New).
func (n *Node) addPeerLocked(a net.Addr) *peer {
	key := a.String()
	if p, ok := n.peers[key]; ok {
		return p
	}
	p := &peer{addr: cloneAddr(a)}
	n.peers[key] = p
	n.order = append(n.order, p)
	return p
}

// cloneAddr copies a UDP address: on the kernel batch path the read
// loop reuses its address structs from one read to the next. Other
// conns never reuse the address they hand out.
func cloneAddr(a net.Addr) net.Addr {
	if ua, ok := a.(*net.UDPAddr); ok {
		c := *ua
		c.IP = append(net.IP(nil), ua.IP...)
		return &c
	}
	return a
}

// Start launches the read and round loops.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.roundLoop()
	dec := protocol.NewDecoder()
	n.stopRead = netio.Serve(n.cfg.Conn, func(b []byte, from net.Addr) {
		hdr, msg, err := dec.Decode(b)
		if err != nil || hdr.Session != n.cfg.Session || hdr.Sender == n.cfg.NodeID || from == nil {
			return
		}
		n.dispatch(hdr, msg, n.markAlive(from, len(b)))
	})
}

// Close stops the node. The conn is left open (the caller owns it).
func (n *Node) Close() error {
	n.once.Do(func() {
		close(n.done)
		if n.stopRead != nil {
			n.stopRead()
		}
		n.wg.Wait()
	})
	return nil
}

// traceKey records one lifecycle event stamped with this node's name.
func (n *Node) traceKey(k trace.Kind, key string) {
	if n.cfg.Trace != nil {
		n.cfg.Trace.RecordNode(wallSeconds(), k, key, n.traceNode)
	}
}

// --- local API ---

// Publish stores (or updates) a locally originated record and makes it
// visible to the mesh on the next exchanges. lifetime <= 0 means the
// record never expires on its own. The assigned version always exceeds
// any version previously seen for the key — including a tombstone's —
// so republishing a deleted key resurrects it mesh-wide.
func (n *Node) Publish(key string, value []byte, lifetime time.Duration) error {
	now := wallSeconds()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.localVer++
	ver := n.localVer
	if cur := n.pub.Get(table.Key(key)); cur != nil && cur.Version >= ver {
		ver = cur.Version + 1
	}
	if t, ok := n.tombs[key]; ok {
		if t.ver >= ver {
			ver = t.ver + 1
		}
		delete(n.tombs, key)
	}
	if ver > n.localVer {
		n.localVer = ver
	}
	if err := n.ns.Put(key, value, ver); err != nil {
		return err
	}
	n.pub.PutVersionBorn(table.Key(key), value, ver, now, now, lifetime.Seconds())
	n.m.records.Set(float64(n.pub.Len()))
	n.traceKey(trace.Update, key)
	return nil
}

// Delete removes a record and issues its death certificate, which the
// exchanges spread until every replica has dropped the key. It reports
// whether the key was held.
func (n *Node) Delete(key string) bool {
	now := wallSeconds()
	n.mu.Lock()
	defer n.mu.Unlock()
	rec := n.pub.Get(table.Key(key))
	if rec == nil {
		return false
	}
	n.tombs[key] = tombstone{ver: rec.Version, at: now}
	n.deleting = true
	n.pub.Delete(table.Key(key))
	n.deleting = false
	n.m.records.Set(float64(n.pub.Len()))
	n.m.tombstones.Set(float64(len(n.tombs)))
	n.traceKey(trace.Tombstone, key)
	return true
}

// Get returns a copy of the live value and version held for key.
func (n *Node) Get(key string) (value []byte, version uint64, ok bool) {
	now := wallSeconds()
	n.mu.Lock()
	defer n.mu.Unlock()
	rec := n.pub.Get(table.Key(key))
	if rec == nil || !rec.Live(now) {
		return nil, 0, false
	}
	return append([]byte(nil), rec.Value...), rec.Version, true
}

// Len returns the number of records in the replica.
func (n *Node) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pub.Len()
}

// RootDigest returns the replica's namespace digest; equality across
// nodes (and with the origin) proves convergence.
func (n *Node) RootDigest() namespace.Digest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ns.RootDigest()
}

// Stats returns a copy of the node counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Peers snapshots the membership view.
func (n *Node) Peers() []PeerInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerInfo, 0, len(n.order))
	for _, p := range n.order {
		out = append(out, PeerInfo{Addr: p.addr.String(), State: p.state, Missed: p.missed})
	}
	return out
}

// --- send path ---

// send encodes one message and transmits it under the bandwidth
// budget. seq is the header sequence: the round counter on exchange
// openers, 0 on everything else. Callers must not hold n.mu.
func (n *Node) send(msg protocol.Message, dest net.Addr, seq uint32) {
	hdr := protocol.Header{Session: n.cfg.Session, Sender: n.cfg.NodeID, Seq: seq, Scope: 1}
	bp := pktPool.Get().(*[]byte)
	*bp = protocol.AppendEncode((*bp)[:0], hdr, msg)
	n.sendRaw(*bp, dest)
	pktPool.Put(bp)
}

// sendRaw transmits one pre-encoded datagram under the bandwidth
// budget. Callers must not hold n.mu.
func (n *Node) sendRaw(b []byte, dest net.Addr) {
	n.mu.Lock()
	if n.bucket != nil && !n.bucket.Allow(wallSeconds(), float64(8*len(b))) {
		n.stats.RateDropped++
		n.mu.Unlock()
		n.m.rateDropped.Inc()
		return
	}
	n.stats.BytesSent += int64(len(b))
	n.mu.Unlock()
	n.m.txBytes.Add(uint64(len(b)))
	_, _ = n.cfg.Conn.WriteTo(b, dest)
}

// sendSummary announces the root digest to dest; seq > 0 marks it as
// an exchange opener.
func (n *Node) sendSummary(dest net.Addr, seq uint32) {
	n.mu.Lock()
	dig := n.ns.RootDigest()
	cnt := n.ns.Len()
	n.mu.Unlock()
	n.send(&protocol.Summary{Digest: dig, Count: uint32(cnt)}, dest, seq)
}

// --- receive path ---

// markAlive refreshes the sender's membership entry: any datagram
// proves liveness, resets suspicion, and rejoins an evicted peer.
// Unknown senders are added to the view, which is how a restarted node
// (or one behind a healed partition) is re-discovered when it speaks
// first. It returns the view's own copy of the address, which outlives
// the read loop's reused one.
func (n *Node) markAlive(from net.Addr, nbytes int) net.Addr {
	n.mu.Lock()
	n.stats.BytesReceived += int64(nbytes)
	p := n.addPeerLocked(from)
	rejoined := p.state == PeerEvicted
	p.missed = 0
	p.state = PeerLive
	if rejoined {
		n.stats.Rejoins++
	}
	addr := p.addr
	n.mu.Unlock()
	n.m.rxBytes.Add(uint64(nbytes))
	if rejoined {
		n.m.rejoins.Inc()
	}
	return addr
}

func (n *Node) dispatch(hdr protocol.Header, msg protocol.Message, from net.Addr) {
	switch m := msg.(type) {
	case *protocol.Summary:
		n.onSummary(hdr, m, from)
	case *protocol.Query:
		n.onQuery(m, from)
	case *protocol.Digests:
		n.onDigests(m, from)
	case *protocol.NACK:
		n.onNACK(m, from)
	case *protocol.Data:
		n.onData(m, from)
	case *protocol.DataBatch:
		for i := range m.Records {
			n.onData(&m.Records[i], from)
		}
	case *protocol.Heartbeat:
		// Agreement ack: liveness was already marked.
	}
}

// onSummary handles both exchange openers (Seq > 0) and reply
// summaries (Seq 0). Agreement is acked; divergence starts a pull
// descent of the peer's tree — and, for openers, a reply Summary so
// the opener symmetrically pulls from us. Reply summaries never
// trigger another Summary, so the exchange cannot loop.
func (n *Node) onSummary(hdr protocol.Header, m *protocol.Summary, from net.Addr) {
	if m.Path != "" {
		return // gossip compares root digests only
	}
	now := wallSeconds()
	n.mu.Lock()
	equal := n.ns.RootDigest() == namespace.Digest(m.Digest)
	n.stats.SummariesHeard++
	if equal {
		n.stats.Agreements++
	} else {
		n.stats.Divergences++
	}
	n.mu.Unlock()
	n.m.summariesHeard.Inc()
	n.cfg.Consistency.SampleAgreementAt(now, equal)
	opener := hdr.Seq > 0
	if equal {
		n.m.agreements.Inc()
		if opener {
			n.send(&protocol.Heartbeat{}, from, 0)
		}
		return
	}
	n.m.divergences.Inc()
	if opener {
		n.sendSummary(from, 0)
	}
	n.mu.Lock()
	n.stats.QueriesSent++
	n.mu.Unlock()
	n.m.queriesSent.Inc()
	n.send(&protocol.Query{Path: ""}, from, 0)
}

// onQuery answers a descent query with the node's child digests. A
// path we do not hold answers with an empty listing — the peer then
// knows the whole branch is ours to pull from it, or theirs to drop.
func (n *Node) onQuery(m *protocol.Query, from net.Addr) {
	n.mu.Lock()
	kids, _ := n.ns.AppendChildren(n.kids[:0], m.Path)
	n.kids = kids[:0]
	resp := descent.Answer(nil, m.Path, kids)
	n.stats.QueriesServed++
	n.mu.Unlock()
	n.m.queriesServed.Inc()
	for i := range resp {
		n.send(&resp[i], from, 0)
	}
}

// onDigests advances the pull descent: remote leaves we lack (or hold
// differently) are NACK-pulled within the round's budget, remote
// interior children we lack or differ on are queried deeper, and
// remote leaves we hold a death certificate for are refuted with a
// Deleted record. Children only we hold need no action — the peer's
// own symmetric descent pulls them.
func (n *Node) onDigests(m *protocol.Digests, from net.Addr) {
	var pulls []string
	var refute []protocol.Data
	n.mu.Lock()
	local, _ := n.ns.AppendChildren(n.kids[:0], m.Path)
	n.kids = local[:0]
	leaves, deeper := descent.Step(m, local, nil, nil)
	for _, key := range leaves {
		if t, ok := n.tombs[key]; ok {
			refute = append(refute, protocol.Data{Key: key, Ver: t.ver, Deleted: true})
			continue
		}
		if n.budget <= 0 {
			continue // next round's descent picks the rest up
		}
		n.budget--
		pulls = append(pulls, key)
	}
	n.stats.NACKsSent += len(pulls)
	n.stats.QueriesSent += len(deeper)
	n.stats.DeletePushbacks += len(refute)
	n.mu.Unlock()
	for _, key := range pulls {
		n.traceKey(trace.NACK, key)
	}
	n.m.nacksSent.Add(uint64(len(pulls)))
	n.m.queriesSent.Add(uint64(len(deeper)))
	n.m.deletePushbacks.Add(uint64(len(refute)))
	for at := 0; at < len(pulls); at += protocol.MaxBatch {
		n.send(&protocol.NACK{Keys: pulls[at:min(at+protocol.MaxBatch, len(pulls))]}, from, 0)
	}
	for _, p := range deeper {
		n.send(&protocol.Query{Path: p}, from, 0)
	}
	for i := range refute {
		n.send(&refute[i], from, 0)
	}
}

// onNACK serves pulled records, packed into Data/DataBatch datagrams.
// Records carry origin version, BornMs, and remaining lifetime;
// tombstoned keys are served as death certificates.
func (n *Node) onNACK(m *protocol.NACK, from net.Addr) {
	now := wallSeconds()
	hdr := protocol.Header{Session: n.cfg.Session, Sender: n.cfg.NodeID, Scope: 1}
	var dgrams []*[]byte
	seal := func() {
		bp := pktPool.Get().(*[]byte)
		*bp = n.pack.Seal((*bp)[:0], hdr)
		dgrams = append(dgrams, bp)
	}
	n.mu.Lock()
	served := 0
	for _, key := range m.Keys {
		var rec protocol.Data
		ok := false
		if t, dead := n.tombs[key]; dead {
			rec, ok = protocol.Data{Key: key, Ver: t.ver, Deleted: true}, true
		} else if r := n.pub.Get(table.Key(key)); r != nil {
			rec, ok = descent.Repair(key, r.Version, r.Value, r.Born, r.Expires, now)
		}
		if !ok {
			continue
		}
		n.pack.Add(&rec)
		if n.pack.Full() {
			seal()
		}
		served++
	}
	if n.pack.Len() > 0 {
		seal()
	}
	n.stats.RecordsServed += served
	n.mu.Unlock()
	n.m.recordsServed.Add(uint64(served))
	for _, key := range m.Keys {
		n.traceKey(trace.Repair, key)
	}
	for _, bp := range dgrams {
		n.sendRaw(*bp, from)
		pktPool.Put(bp)
	}
}

// onData applies one gossiped record: death certificates tombstone the
// replica, stale pushes are refused (and, when we hold a newer death
// certificate, refuted), newer versions are applied with the origin's
// version, BornMs, and remaining lifetime — so the replica stays
// byte-identical to the origin and visibility lag is origin→delivery.
func (n *Node) onData(m *protocol.Data, from net.Addr) {
	now := wallSeconds()
	key := m.Key
	if m.Deleted {
		n.mu.Lock()
		if r := n.pub.Get(table.Key(key)); r != nil && r.Version > m.Ver {
			// The certificate is stale: the key was republished at a
			// newer version. Refute it with the live record so the
			// sender resurrects the key instead of us burying it. A
			// lapsed record refutes nothing: the certificate buries it.
			if reply, live := descent.Repair(key, r.Version, r.Value, r.Born, r.Expires, now); live {
				reply.Value = bytes.Clone(reply.Value)
				n.stats.RecordsServed++
				n.mu.Unlock()
				n.m.recordsServed.Inc()
				n.send(&reply, from, 0)
				return
			}
		}
		if t, ok := n.tombs[key]; !ok || m.Ver > t.ver {
			n.tombs[key] = tombstone{ver: m.Ver, at: now}
		} else {
			n.tombs[key] = tombstone{ver: t.ver, at: now} // refresh retention
		}
		n.m.tombstones.Set(float64(len(n.tombs)))
		applied := false
		if r := n.pub.Get(table.Key(key)); r != nil {
			n.deleting = true
			n.pub.Delete(table.Key(key))
			n.deleting = false
			n.stats.TombstonesApplied++
			applied = true
			n.m.records.Set(float64(n.pub.Len()))
		}
		n.mu.Unlock()
		if applied {
			n.m.tombstonesApplied.Inc()
			n.traceKey(trace.Tombstone, key)
		}
		return
	}
	n.mu.Lock()
	if t, ok := n.tombs[key]; ok && m.Ver <= t.ver {
		// The key is dead here at an equal-or-newer version: refute the
		// push with the certificate so the sender drops it too.
		n.stats.RecordsRejected++
		n.stats.DeletePushbacks++
		n.mu.Unlock()
		n.m.recordsRejected.Inc()
		n.m.deletePushbacks.Inc()
		n.send(&protocol.Data{Key: key, Ver: t.ver, Deleted: true}, from, 0)
		return
	}
	if cur := n.pub.Get(table.Key(key)); cur != nil && cur.Version >= m.Ver {
		if cur.Version == m.Ver {
			n.stats.RecordsConfirmed++
			n.mu.Unlock()
			n.m.recordsConfirmed.Inc()
			n.cfg.Consistency.ConfirmAt(n.cfg.NodeID, key, now)
		} else {
			n.stats.RecordsRejected++
			n.mu.Unlock()
			n.m.recordsRejected.Inc()
		}
		return
	}
	if err := n.ns.Put(key, m.Value, m.Ver); err != nil {
		// Leaf/interior conflict: the key cannot exist in this tree.
		n.stats.RecordsRejected++
		n.mu.Unlock()
		n.m.recordsRejected.Inc()
		return
	}
	// A version above the tombstone's resurrects the key: retire the
	// death certificate so descents pull instead of refuting.
	delete(n.tombs, key)
	born := float64(m.BornMs) / 1000 // 0: unknown
	// TTLms 0 is lifetime 0: immortal.
	n.pub.PutVersionBorn(table.Key(key), m.Value, m.Ver, born, now, float64(m.TTLms)/1000)
	n.stats.RecordsApplied++
	n.m.records.Set(float64(n.pub.Len()))
	n.mu.Unlock()
	n.m.recordsApplied.Inc()
	if born > 0 {
		n.cfg.Consistency.ObserveTVisAt(now, math.Max(0, now-born))
	}
	n.cfg.Consistency.ConfirmAt(n.cfg.NodeID, key, now)
	n.traceKey(trace.Deliver, key)
}

// --- round loop ---

func (n *Node) roundLoop() {
	defer n.wg.Done()
	for {
		d := n.nextDelay()
		select {
		case <-n.done:
			return
		case <-time.After(d):
		}
		n.doRound()
	}
}

// pickLiveLocked returns the next live peer of the selection cycle —
// random-permutation gossip: each pass visits every peer exactly once
// in a freshly shuffled order, then reshuffles. Compared with uniform
// random picks this cuts the variance of how often any one peer is
// chosen, so a catching-up replica spreads its pulls near-evenly over
// the serving peers. Callers hold n.mu; returns nil when no peer is
// live.
func (n *Node) pickLiveLocked() *peer {
	total := len(n.order)
	// Two full passes bound the scan: one to drain a cycle of entirely
	// non-live entries, one through a fresh shuffle.
	for tries := 0; tries < 2*total; tries++ {
		if len(n.cycle) == 0 {
			n.cycle = append(n.cycle[:0], n.rnd.Perm(total)...)
		}
		idx := n.cycle[len(n.cycle)-1]
		n.cycle = n.cycle[:len(n.cycle)-1]
		// The view may have grown since the cycle was drawn; stale
		// indices stay valid, new peers join the next pass.
		if idx < len(n.order) && n.order[idx].state == PeerLive {
			return n.order[idx]
		}
	}
	return nil
}

// nextDelay draws the jittered round interval: Interval ± 25%.
func (n *Node) nextDelay() time.Duration {
	n.mu.Lock()
	u := n.rnd.Float64()
	n.mu.Unlock()
	return time.Duration(float64(n.cfg.Interval) * (0.75 + 0.5*u))
}

// doRound runs one anti-entropy round: sweep expiry, age tombstones,
// refresh suspicion, and open an exchange with one random live peer —
// plus, every probeEvery rounds, one suspect/evicted peer, so failures
// heal without waiting for the other side to speak.
func (n *Node) doRound() {
	now := wallSeconds()
	var targets []*peer
	n.mu.Lock()
	n.pub.Sweep(now)
	for key, t := range n.tombs {
		if now-t.at > n.cfg.TombstoneTTL.Seconds() {
			delete(n.tombs, key)
		}
	}
	n.round++
	n.stats.Rounds++
	n.budget = n.cfg.MaxPullPerRound

	var dubious []*peer
	for _, p := range n.order {
		if p.state != PeerLive {
			dubious = append(dubious, p)
		}
	}
	if p := n.pickLiveLocked(); p != nil {
		targets = append(targets, p)
	}
	if len(dubious) > 0 && n.round%probeEvery == 0 {
		targets = append(targets, dubious[n.rnd.Intn(len(dubious))])
	}
	for _, p := range targets {
		p.missed++
		switch {
		case p.missed >= n.cfg.EvictAfter:
			if p.state != PeerEvicted {
				p.state = PeerEvicted
				n.stats.Evictions++
				n.m.evictions.Inc()
			}
		case p.missed >= n.cfg.SuspectAfter:
			if p.state == PeerLive {
				p.state = PeerSuspect
			}
		}
	}
	var nl, ns, ne int
	for _, p := range n.order {
		switch p.state {
		case PeerLive:
			nl++
		case PeerSuspect:
			ns++
		default:
			ne++
		}
	}
	n.stats.PeersLive, n.stats.PeersSuspect, n.stats.PeersEvicted = nl, ns, ne
	n.stats.ExchangesSent += len(targets)
	dig := n.ns.RootDigest()
	cnt := n.ns.Len()
	ntombs := len(n.tombs)
	round := uint32(n.round)
	if round == 0 {
		round = 1 // Seq 0 would demote the opener to a reply
	}
	n.mu.Unlock()

	n.m.rounds.Inc()
	n.m.peersLive.Set(float64(nl))
	n.m.peersSuspect.Set(float64(ns))
	n.m.peersEvicted.Set(float64(ne))
	n.m.tombstones.Set(float64(ntombs))
	sum := &protocol.Summary{Digest: dig, Count: uint32(cnt)}
	for _, p := range targets {
		n.m.exchanges.Inc()
		n.send(sum, p.addr, round)
	}
}

// SpreadRounds evaluates the analytic push-pull epidemic recurrence:
// starting from one informed node out of n, it returns the number of
// rounds until the expected informed fraction reaches target (e.g.
// 0.99). Per round, a stale node stays stale only if its own exchange
// hit a stale peer (probability ≈ (u−1)/(n−1)) and no informed node's
// exchange hit it (probability (1−1/(n−1))^i) — the mean-field model
// of "A Modeling Framework for Gossip-based Information Spread".
// TestSpreadWithinAnalyticBound holds the measured mesh to within 2×
// of this curve.
func SpreadRounds(nodes int, target float64) int {
	if nodes <= 1 {
		return 0
	}
	if target <= 0 || target > 1 {
		target = 0.99
	}
	u := float64(nodes - 1) // stale nodes; one origin is informed
	total := float64(nodes)
	rounds := 0
	for u/total > 1-target && rounds < 1<<16 {
		informed := total - u
		noPush := math.Pow(1-1/(total-1), informed)
		pullMiss := (u - 1) / (total - 1)
		if pullMiss < 0 {
			pullMiss = 0
		}
		u *= pullMiss * noPush
		rounds++
	}
	return rounds
}
