// Package relay builds application-level multicast trees out of SSTP
// sessions: a Relay joins a session as a receiver on its upstream link
// and re-publishes the replica as a full SSTP sender on each of its
// downstream links. Announcements fan out hop by hop, so a single
// publisher can feed arbitrarily many subscribers through an N-ary
// overlay; Summary/Query/NACK repair is answered locally by the
// nearest relay's replica, so recovery traffic never travels past one
// hop — the paper's scoped-recovery goal at overlay scale.
//
// Soft-state semantics are preserved at every hop: each downstream
// link is an ordinary SSTP session whose records are refreshed while
// the relay holds them, tombstoned when the upstream copy dies, and
// flushed when the upstream publisher says Goodbye. The hop budget in
// every datagram header (protocol.Header.Scope) is decremented at each
// level, so a mis-wired forwarding loop dies out instead of
// circulating forever.
package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/namespace"
	"softstate/internal/obs"
	"softstate/internal/protocol"
	"softstate/internal/sstp"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

// Downstream describes one downstream link of a relay: a transport
// conn and the destination (usually a multicast group holding this
// subtree's children) plus that link's independent bandwidth budget.
// Each link picks its own transport — a relay with a UDP upstream and
// TCP/TLS downstreams is a bridge between the datacenter's datagram
// fabric and framed WAN streams, and vice versa; the soft-state
// records it re-publishes are transport-agnostic.
type Downstream struct {
	Conn transport.Conn
	Dest net.Addr

	// Rate is the link's session bandwidth in bits/s. When MinRate and
	// MaxRate are also set, the link runs its own AIMD controller
	// driven by its own children's receiver reports — congestion on
	// one subtree never slows a sibling subtree down.
	Rate    float64
	MinRate float64
	MaxRate float64
}

// Config parameterizes a Relay.
type Config struct {
	Session uint64

	// RelayID seeds the identifiers used on every link: the upstream
	// receiver runs as RelayID and downstream sender i as RelayID+1+i,
	// so a relay can never mistake its own traffic for its publisher's.
	RelayID uint64

	// UpstreamConn is the conn on the link toward the publisher (or
	// parent relay); UpstreamFeedback is where this relay's own repair
	// requests go — the parent's group, so the parent answers them.
	// Like Downstream.Conn it may be any transport.Conn.
	UpstreamConn     transport.Conn
	UpstreamFeedback net.Addr

	// Downstreams are the links this relay re-publishes on. At least
	// one is required.
	Downstreams []Downstream

	// TTL is the receiver-side lifetime announced downstream (default
	// 30 s); records are re-announced well within it while the relay
	// holds them.
	TTL time.Duration

	// SummaryInterval is the digest announcement period on every
	// downstream link (default 1 s).
	SummaryInterval time.Duration

	// NACKWindow is the upstream receiver's repair slotting window
	// (default 100 ms).
	NACKWindow time.Duration

	// Scope forces the hop budget stamped on downstream datagrams.
	// 0 (the default) derives it from the upstream scope minus one,
	// which is what bounds loops and forwarding depth; set it only to
	// pin a tree's depth explicitly.
	Scope uint8

	// Stripes shards the upstream replica and every downstream
	// sender's table by key hash; CoalesceRecords and BatchDatagrams
	// set the downstream links' MTU coalescing and sendmmsg batching
	// (BatchDatagrams is an upper bound: a paced link writes what its
	// token bucket admits per wake-up, never a batch it must then wait
	// out). All default to 1 (the pre-sharding behavior); see
	// sstp.SenderConfig for semantics. A relay tree mixing different
	// stripe counts per hop still hashes to the origin digest, because
	// the combined root is independent of the stripe count.
	Stripes         int
	CoalesceRecords int
	BatchDatagrams  int

	// FallbackFeedback, when set, arms the orphan watchdog: if the
	// upstream publisher goes silent for OrphanTimeout, the relay
	// re-parents — its repair and report traffic re-targets
	// FallbackFeedback, the learned publisher resets so the fallback
	// parent (usually the grandparent, or the origin) is adopted
	// fresh, and OnReparent fires so the embedding daemon or harness
	// can redial links/groups toward the new parent. The replica
	// survives the switch: the fallback republishes with origin
	// versions, so held records refresh instead of conflicting, and
	// anything the dead parent never delivered is repaired by the
	// normal digest descent against the new upstream.
	FallbackFeedback net.Addr

	// OrphanTimeout is the upstream silence that triggers
	// re-parenting (default 5 s; meaningful only with
	// FallbackFeedback). It should comfortably exceed the parent's
	// SummaryInterval, which bounds the healthy inter-datagram gap.
	OrphanTimeout time.Duration

	// OnReparent, if non-nil, is called from the watchdog goroutine
	// each time the relay re-parents (at most once per silence
	// episode — the watchdog re-arms only after the new parent has
	// been heard).
	OnReparent func()

	// Obs, if non-nil, receives both the relay_* counters and the
	// sstp_* series of the upstream receiver and downstream senders.
	Obs *obs.Registry

	// Trace, if non-nil, records protocol events on every link; use
	// trace.NewSafe.
	Trace *trace.Ring

	Seed int64
}

// Stats are cumulative relay counters.
type Stats struct {
	Forwarded  int // upstream updates re-published downstream
	Tombstoned int // upstream expirations propagated as deletions
	Goodbyes   int // upstream Goodbyes propagated downstream
	ScopeDrops int // updates dropped because the hop budget ran out

	// QueriesServed / NACKsHeard aggregate the repair traffic this
	// relay answered locally across all downstream links — requests
	// that never reached its upstream.
	QueriesServed int
	NACKsHeard    int

	// Reparents counts orphan-watchdog firings: upstream silences that
	// made this relay adopt its fallback parent.
	Reparents int
}

// Relay is one interior node of the overlay tree.
type Relay struct {
	cfg   Config
	up    *sstp.Receiver
	downs []*sstp.Sender
	m     metrics
	links []*linkMetrics // per-downstream-link series (nil without Obs)

	// obsLoop lifecycle (started only when a registry is attached).
	done chan struct{}
	wg   sync.WaitGroup

	// scopeState caches the forwarding decision derived from the
	// upstream hop budget: 0 unknown, 1 forwarding, -1 exhausted.
	// Written on the upstream dispatcher goroutine, read by Stats.
	scopeState atomic.Int32

	mu    sync.Mutex
	stats Stats

	closeOnce sync.Once
}

// New wires a relay; call Start to begin relaying.
func New(cfg Config) (*Relay, error) {
	if cfg.UpstreamConn == nil {
		return nil, fmt.Errorf("relay: needs UpstreamConn")
	}
	if len(cfg.Downstreams) == 0 {
		return nil, fmt.Errorf("relay: needs at least one downstream link")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.OrphanTimeout <= 0 {
		cfg.OrphanTimeout = 5 * time.Second
	}
	r := &Relay{cfg: cfg, m: newMetrics(cfg.Obs), done: make(chan struct{})}
	if cfg.Obs != nil {
		for i := range cfg.Downstreams {
			r.links = append(r.links, newLinkMetrics(cfg.Obs, i))
		}
	}

	for i, d := range cfg.Downstreams {
		if d.Conn == nil || d.Dest == nil {
			return nil, fmt.Errorf("relay: downstream %d needs Conn and Dest", i)
		}
		rate := d.Rate
		if rate <= 0 {
			rate = 1_000_000
		}
		s, err := sstp.NewSender(sstp.SenderConfig{
			Session:         cfg.Session,
			SenderID:        cfg.RelayID + 1 + uint64(i),
			Conn:            d.Conn,
			Dest:            d.Dest,
			TotalRate:       rate,
			MinRate:         d.MinRate,
			MaxRate:         d.MaxRate,
			TTL:             cfg.TTL,
			SummaryInterval: cfg.SummaryInterval,
			Scope:           1, // placeholder until the upstream scope is learned
			Stripes:         cfg.Stripes,
			CoalesceRecords: cfg.CoalesceRecords,
			BatchDatagrams:  cfg.BatchDatagrams,
			Obs:             cfg.Obs,
			Trace:           cfg.Trace,
			TraceNode:       fmt.Sprintf("relay%d/dn%d", cfg.RelayID, i),
			Seed:            cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("relay: downstream %d: %w", i, err)
		}
		r.downs = append(r.downs, s)
	}

	up, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session:        cfg.Session,
		ReceiverID:     cfg.RelayID,
		Conn:           cfg.UpstreamConn,
		FeedbackDest:   cfg.UpstreamFeedback,
		NACKWindow:     cfg.NACKWindow,
		FlushOnGoodbye: true, // a root Goodbye tears the tree down hop by hop
		Stripes:        cfg.Stripes,
		OnUpdate:       r.onUpstreamUpdate,
		OnExpire:       r.onUpstreamExpire,
		OnGoodbye:      r.onUpstreamGoodbye,
		Obs:            cfg.Obs,
		Trace:          cfg.Trace,
		TraceNode:      fmt.Sprintf("relay%d/up", cfg.RelayID),
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("relay: upstream: %w", err)
	}
	r.up = up
	r.m.downstreams.Set(float64(len(r.downs)))
	return r, nil
}

// Start launches the upstream receiver and every downstream sender.
func (r *Relay) Start() {
	for _, d := range r.downs {
		d.Start()
	}
	r.up.Start()
	if len(r.links) > 0 {
		r.wg.Add(1)
		go r.obsLoop()
	}
	if r.cfg.FallbackFeedback != nil {
		r.wg.Add(1)
		go r.watchLoop()
	}
}

// wallSeconds is the wall clock in the float-seconds time base the
// sstp receiver reports LastHeard in.
func wallSeconds() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// watchLoop is the orphan watchdog: when the upstream publisher has
// been silent past OrphanTimeout, re-parent onto FallbackFeedback.
// One firing per silence episode — the watchdog re-arms only once the
// new parent has actually been heard, so a dead fallback doesn't make
// it spin.
func (r *Relay) watchLoop() {
	defer r.wg.Done()
	timeout := r.cfg.OrphanTimeout.Seconds()
	tick := time.NewTicker(r.cfg.OrphanTimeout / 4)
	defer tick.Stop()
	armed := wallSeconds() // silence reference before any publisher is heard
	fired := false
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
			last, heard := r.up.LastHeard()
			if heard {
				fired = false
			} else {
				last = armed
			}
			if fired || wallSeconds()-last < timeout {
				continue
			}
			r.reparent()
			armed = wallSeconds()
			fired = true
		}
	}
}

// reparent adopts the fallback parent: repair/report traffic
// re-targets it, the learned publisher resets so the fallback is
// adopted fresh, and the scope cache re-derives the hop budget from
// the new upstream's datagrams.
func (r *Relay) reparent() {
	r.up.SetFeedbackDest(r.cfg.FallbackFeedback)
	r.scopeState.Store(0)
	r.m.reparents.Inc()
	r.mu.Lock()
	r.stats.Reparents++
	r.mu.Unlock()
	if r.cfg.OnReparent != nil {
		r.cfg.OnReparent()
	}
}

// obsLoop mirrors each downstream sender's congestion state and repair
// counters into the per-link relay_link_* series once a second.
func (r *Relay) obsLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			// Final sync so short-lived relays still report their
			// repair activity.
			for i, lm := range r.links {
				lm.sync(r.downs[i])
			}
			return
		case <-tick.C:
			for i, lm := range r.links {
				lm.sync(r.downs[i])
			}
		}
	}
}

// Close stops the relay: the upstream receiver first (no further
// write-throughs; its dispatcher drains before Close returns), then
// each downstream sender, whose final Goodbye flushes tracking
// children — a relay leaving the tree takes its subtree's soft state
// with it, exactly like a dying publisher.
func (r *Relay) Close() error {
	r.closeOnce.Do(func() {
		r.up.Close()
		for _, d := range r.downs {
			d.Close()
		}
		close(r.done)
		r.wg.Wait()
	})
	return nil
}

// onUpstreamUpdate write-through: every upstream value change is
// re-published on every downstream link. Runs on the upstream
// receiver's dispatcher goroutine, so downstream versions advance in
// upstream order.
func (r *Relay) onUpstreamUpdate(key string, value []byte, version uint64, born float64) {
	if !r.forwardable() {
		return
	}
	for _, d := range r.downs {
		// The upstream version is forwarded verbatim so every replica
		// in the tree hashes to the origin publisher's digest, and the
		// origin publish time rides along so leaf visibility lag is
		// measured end-to-end.
		// Lifetime 0: the record lives in the downstream session until
		// the upstream copy expires or the publisher leaves; the
		// sender's cold cycle keeps children refreshed meanwhile.
		if err := d.Republish(key, value, version, born, 0); err != nil {
			continue
		}
	}
	r.m.forwarded.Inc()
	r.m.records.Set(float64(r.up.Len()))
	r.mu.Lock()
	r.stats.Forwarded++
	r.mu.Unlock()
}

// onUpstreamExpire propagates a lifetime expiry (or tombstone) as a
// downstream deletion, so the subtree flushes the key well before its
// own TTL would fire.
func (r *Relay) onUpstreamExpire(key string) {
	for i, d := range r.downs {
		d.Delete(key)
		if i < len(r.links) {
			r.links[i].tombs.Inc()
		}
	}
	r.m.tombstones.Inc()
	r.m.records.Set(float64(r.up.Len()))
	r.mu.Lock()
	r.stats.Tombstoned++
	r.mu.Unlock()
}

// onUpstreamGoodbye propagates the publisher's departure: each
// downstream sender flushes and says Goodbye itself (without
// stopping), so the teardown cascades to the leaves. The scope cache
// resets so a successor publisher re-derives it.
func (r *Relay) onUpstreamGoodbye() {
	for i, d := range r.downs {
		d.Goodbye()
		if i < len(r.links) {
			r.links[i].goodbyes.Inc()
		}
	}
	r.scopeState.Store(0)
	r.m.goodbyes.Inc()
	r.m.records.Set(0)
	r.mu.Lock()
	r.stats.Goodbyes++
	r.mu.Unlock()
}

// forwardable reports whether the hop budget allows re-publishing,
// deriving the downstream scope from the upstream one on first use.
// Runs only on the dispatcher goroutine.
func (r *Relay) forwardable() bool {
	switch r.scopeState.Load() {
	case 1:
		return true
	case -1:
		r.m.scopeDrops.Inc()
		r.mu.Lock()
		r.stats.ScopeDrops++
		r.mu.Unlock()
		return false
	}
	up, ok := r.up.PublisherScope()
	if !ok || up == 0 {
		up = protocol.DefaultScope
	}
	down := r.cfg.Scope
	if down == 0 {
		if up <= 1 {
			// The upstream datagram's budget is spent: this relay is
			// one hop too deep (or part of a loop) and must not
			// forward.
			r.scopeState.Store(-1)
			r.m.scopeDrops.Inc()
			r.mu.Lock()
			r.stats.ScopeDrops++
			r.mu.Unlock()
			return false
		}
		down = up - 1
	}
	for _, d := range r.downs {
		d.SetScope(down)
	}
	r.scopeState.Store(1)
	return true
}

// Stats returns a copy of the relay counters, including the repair
// traffic answered locally by the downstream senders.
func (r *Relay) Stats() Stats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	for _, d := range r.downs {
		ds := d.Stats()
		st.QueriesServed += ds.QueriesServed
		st.NACKsHeard += ds.NACKsReceived
	}
	return st
}

// Len returns the number of records in the relay's replica.
func (r *Relay) Len() int { return r.up.Len() }

// RootDigest returns the replica's namespace digest; equality with the
// publisher's digest proves this hop has converged.
func (r *Relay) RootDigest() namespace.Digest { return r.up.RootDigest() }

// Upstream exposes the upstream receiver (read-mostly: stats, digest,
// snapshot).
func (r *Relay) Upstream() *sstp.Receiver { return r.up }

// NumDownstreams returns the number of downstream links.
func (r *Relay) NumDownstreams() int { return len(r.downs) }

// DownstreamSender exposes downstream link i's sender (stats, digest).
func (r *Relay) DownstreamSender(i int) *sstp.Sender { return r.downs[i] }
