package relay

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testTree is a publisher feeding a complete fanout^depth overlay over
// one MemNetwork: relays fill levels 1..depth-1 (breadth-first in
// relays) and the leaves sit at level depth.
type testTree struct {
	pub    *sstp.Sender
	relays []*Relay
	leaves []*sstp.Receiver
	// group[i] is the downstream group address of relay i; group of the
	// publisher is "grp/root".
}

// buildTree wires the topology but does not start anything. Endpoint
// names: the publisher sends from "pub" to group "grp/root"; relay k
// listens upstream on "up/k" (joined to its parent's group) and
// re-publishes from "dn/k" to group "grp/k"; leaf j listens on
// "leaf/j". pubScope, if non-zero, bounds the tree's hop budget; rate
// is every link's bandwidth (slow rates stretch the cold re-announce
// cycle, forcing repair through the Query/NACK path).
func buildTree(t *testing.T, nw *transport.MemNetwork, depth, fanout int, pubScope uint8, rate float64, leafExpired *atomic.Int32) *testTree {
	t.Helper()
	tt := &testTree{}

	pc := nw.Endpoint("pub")
	nw.Join("grp/root", "pub")
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 9, SenderID: 1, Conn: pc, Dest: transport.MemAddr("grp/root"),
		TotalRate: rate, SummaryInterval: 50 * time.Millisecond,
		TTL: 60 * time.Second, Scope: pubScope, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt.pub = pub

	// parentGroup[l][j] is the group feeding node j of level l+1.
	parentGroups := []string{"grp/root"}
	k := 0
	for level := 1; level < depth; level++ {
		var next []string
		for j := 0; j < pow(fanout, level); j++ {
			parent := parentGroups[j/fanout]
			upName := transport.MemAddr(fmt.Sprintf("up/%d", k))
			dnName := transport.MemAddr(fmt.Sprintf("dn/%d", k))
			group := fmt.Sprintf("grp/%d", k)
			up := nw.Endpoint(upName)
			nw.Join(transport.MemAddr(parent), upName)
			dn := nw.Endpoint(dnName)
			nw.Join(transport.MemAddr(group), dnName)
			r, err := New(Config{
				Session:          9,
				RelayID:          uint64(100 * (k + 1)),
				UpstreamConn:     up,
				UpstreamFeedback: transport.MemAddr(parent),
				Downstreams: []Downstream{{
					Conn: dn, Dest: transport.MemAddr(group), Rate: rate,
				}},
				TTL:             60 * time.Second,
				SummaryInterval: 50 * time.Millisecond,
				NACKWindow:      30 * time.Millisecond,
				Seed:            int64(1000 + k),
			})
			if err != nil {
				t.Fatal(err)
			}
			tt.relays = append(tt.relays, r)
			next = append(next, group)
			k++
		}
		parentGroups = next
	}

	for j := 0; j < pow(fanout, depth); j++ {
		tt.leaves = append(tt.leaves, newLeaf(t, nw, j, parentGroups[j/fanout], leafExpired))
	}
	return tt
}

// newLeaf binds leaf j's endpoint "leaf/j", joins it to its parent's
// group and returns the (unstarted) receiver.
func newLeaf(t *testing.T, nw *transport.MemNetwork, j int, parent string, leafExpired *atomic.Int32) *sstp.Receiver {
	t.Helper()
	name := transport.MemAddr(fmt.Sprintf("leaf/%d", j))
	lc := nw.Endpoint(name)
	nw.Join(transport.MemAddr(parent), name)
	cfg := sstp.ReceiverConfig{
		Session: 9, ReceiverID: uint64(10_000 + j), Conn: lc,
		FeedbackDest:   transport.MemAddr(parent),
		NACKWindow:     30 * time.Millisecond,
		FlushOnGoodbye: true,
		Seed:           int64(2000 + j),
	}
	if leafExpired != nil {
		cfg.OnExpire = func(string) { leafExpired.Add(1) }
	}
	leaf, err := sstp.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= b
	}
	return n
}

func (tt *testTree) start() {
	tt.pub.Start()
	for _, r := range tt.relays {
		r.Start()
	}
	for _, l := range tt.leaves {
		l.Start()
	}
}

func (tt *testTree) stop() {
	for _, l := range tt.leaves {
		l.Close()
	}
	for _, r := range tt.relays {
		r.Close()
	}
	tt.pub.Close()
}

func (tt *testTree) converged(n int) bool {
	want := tt.pub.RootDigest()
	for _, r := range tt.relays {
		if r.Len() != n || r.RootDigest() != want {
			return false
		}
	}
	for _, l := range tt.leaves {
		if l.Len() != n || l.RootDigest() != want {
			return false
		}
	}
	return true
}

// TestRelayTreeConvergesUnderLoss is the acceptance topology: a
// depth-2 fanout-4 tree (4 relays, 16 leaves) over a memconn network
// dropping 5% of datagrams on every link. Every leaf's root digest
// must reach the publisher's.
func TestRelayTreeConvergesUnderLoss(t *testing.T) {
	nw := transport.NewMemNetwork(1009)
	nw.SetDefaultLoss(0.05)
	tt := buildTree(t, nw, 2, 4, 0, 1_000_000, nil)
	defer tt.stop()
	tt.start()

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("topic/%d/val", i)
		if err := tt.pub.Publish(key, []byte(fmt.Sprintf("payload-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "all 20 replicas to match the publisher digest", func() bool {
		return tt.converged(n)
	})
	st := tt.relays[0].Stats()
	if st.Forwarded == 0 {
		t.Error("relay 0 forwarded nothing despite converged leaves")
	}
}

// TestRelayLocalRepair pins scoped recovery: with loss confined to one
// leaf's last-hop link, that leaf's Query/NACK repair is answered
// entirely by its parent relay — the publisher sees zero repair
// traffic on the upstream link.
func TestRelayLocalRepair(t *testing.T) {
	nw := transport.NewMemNetwork(1013)
	// 128 kbit/s stretches one cold re-announce cycle of 40 records to
	// ~0.25 s, so the lossy leaf detects digest mismatches (summaries
	// every 50 ms) and repairs through Query/NACK well before the next
	// blind retransmission — the repair path is what's under test.
	tt := buildTree(t, nw, 2, 4, 0, 128_000, nil)
	defer tt.stop()

	// Relay 0's downstream endpoint is "dn/0" and its first child leaf
	// is "leaf/0": drop half the datagrams on that last hop only. The
	// reverse (feedback) direction stays clean so repair requests
	// always reach the relay.
	nw.SetLoss("dn/0", "leaf/0", 0.50)
	tt.start()

	const n = 40
	for i := 0; i < n; i++ {
		if err := tt.pub.Publish(fmt.Sprintf("topic/%d/val", i), []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "lossy leaf to converge", func() bool {
		return tt.converged(n)
	})

	if st := tt.pub.Stats(); st.QueriesServed != 0 || st.NACKsReceived != 0 {
		t.Errorf("repair traffic leaked upstream: publisher served %d queries, heard %d NACKs",
			st.QueriesServed, st.NACKsReceived)
	}
	repaired := 0
	for _, r := range tt.relays {
		st := r.Stats()
		repaired += st.QueriesServed + st.NACKsHeard
	}
	if repaired == 0 {
		t.Error("no relay answered any repair request despite a 50% lossy leaf link")
	}

	// A leaf that dies and restarts empty is the same property at full
	// scale: its whole replica comes back from its relay (relay 1 feeds
	// leaf 4), still without a single request reaching the publisher.
	tt.leaves[4].Close()
	nw.Endpoint("leaf/4").Close()
	tt.leaves[4] = newLeaf(t, nw, 4, "grp/1", nil)
	tt.leaves[4].Start()
	waitFor(t, 30*time.Second, "restarted leaf to catch up", func() bool {
		return tt.converged(n)
	})
	if st := tt.pub.Stats(); st.QueriesServed != 0 || st.NACKsReceived != 0 {
		t.Errorf("restart catch-up leaked upstream: publisher served %d queries, heard %d NACKs",
			st.QueriesServed, st.NACKsReceived)
	}
}

// TestRelayGoodbyeFlushChain pins teardown through a 2-level relay
// chain: publisher → relay → relay → leaf. The publisher's Goodbye
// must flush the replica at every hop, each hop re-announcing the
// departure downstream.
func TestRelayGoodbyeFlushChain(t *testing.T) {
	nw := transport.NewMemNetwork(1019)
	var leafExpired atomic.Int32
	tt := buildTree(t, nw, 3, 1, 0, 1_000_000, &leafExpired)
	tt.start()
	closed := false
	defer func() {
		if !closed {
			tt.stop()
		}
	}()

	const n = 5
	for i := 0; i < n; i++ {
		if err := tt.pub.Publish(fmt.Sprintf("cfg/%d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "chain to converge", func() bool {
		return tt.converged(n)
	})

	tt.pub.Close() // final Goodbye starts the cascade
	waitFor(t, 15*time.Second, "every hop to flush", func() bool {
		for _, r := range tt.relays {
			if r.Len() != 0 {
				return false
			}
		}
		return tt.leaves[0].Len() == 0
	})
	waitFor(t, 5*time.Second, "leaf expiry callbacks", func() bool {
		return leafExpired.Load() == n
	})
	for i, r := range tt.relays {
		if st := r.Stats(); st.Goodbyes != 1 {
			t.Errorf("relay %d propagated %d goodbyes, want 1", i, st.Goodbyes)
		}
	}
	if st := tt.leaves[0].Stats(); st.GoodbyesHeard != 1 {
		t.Errorf("leaf heard %d goodbyes, want 1", st.GoodbyesHeard)
	}
	for _, l := range tt.leaves {
		l.Close()
	}
	for _, r := range tt.relays {
		r.Close()
	}
	closed = true
}

// TestRelayReparentOnOrphan pins churn survival for the tree overlay:
// in the chain publisher → R1 → R2 → leaf, R1 crashes silently (its
// downstream link is severed — no Goodbye, exactly what a dead process
// looks like). R2's orphan watchdog must fire, re-target its feedback
// at the configured fallback (the origin), and — after the test's
// OnReparent hook re-joins R2's upstream conn to the origin's group —
// adopt the origin as its new publisher so fresh records keep flowing
// to the leaf.
func TestRelayReparentOnOrphan(t *testing.T) {
	nw := transport.NewMemNetwork(1031)
	tt := buildTree(t, nw, 3, 1, 0, 1_000_000, nil)
	// buildTree cannot arm the watchdog, so rebuild R2 (relay index 1,
	// upstream "up/1" fed by "grp/0", downstream "dn/1" → "grp/1") with
	// a fallback pointing at the origin.
	tt.relays[1].Close()
	up := nw.Endpoint("up/1")
	dn := nw.Endpoint("dn/1")
	r2, err := New(Config{
		Session:          9,
		RelayID:          200,
		UpstreamConn:     up,
		UpstreamFeedback: transport.MemAddr("grp/0"),
		Downstreams:      []Downstream{{Conn: dn, Dest: transport.MemAddr("grp/1"), Rate: 1_000_000}},
		TTL:              60 * time.Second,
		SummaryInterval:  50 * time.Millisecond,
		NACKWindow:       30 * time.Millisecond,
		FallbackFeedback: transport.MemAddr("pub"),
		OrphanTimeout:    400 * time.Millisecond,
		OnReparent: func() {
			// The redial: leave the dead parent's group, join the
			// fallback parent's so its announcements are heard.
			nw.Leave("grp/0", "up/1")
			nw.Join("grp/root", "up/1")
		},
		Seed: 1031,
	})
	if err != nil {
		t.Fatal(err)
	}
	tt.relays[1] = r2
	defer tt.stop()
	tt.start()

	const n = 10
	for i := 0; i < n; i++ {
		if err := tt.pub.Publish(fmt.Sprintf("topic/%d", i), []byte("v1"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "chain to converge before the crash", func() bool {
		return tt.converged(n)
	})

	// R1 "crashes": everything it sends downstream vanishes. Its
	// process keeps running, which is the hard case — no Goodbye, no
	// connection reset, just silence.
	nw.SetLinkDown("dn/0", "grp/0")

	waitFor(t, 10*time.Second, "orphan watchdog to fire", func() bool {
		return tt.relays[1].Stats().Reparents == 1
	})

	// New records published after the crash must reach the leaf through
	// the re-parented route origin → R2 → leaf.
	for i := 0; i < 5; i++ {
		if err := tt.pub.Publish(fmt.Sprintf("after/%d", i), []byte("v2"), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := n + 5
	waitFor(t, 20*time.Second, "leaf to converge via the fallback parent", func() bool {
		return tt.relays[1].Len() == want &&
			tt.relays[1].RootDigest() == tt.pub.RootDigest() &&
			tt.leaves[0].Len() == want &&
			tt.leaves[0].RootDigest() == tt.pub.RootDigest()
	})

	// The watchdog must not refire while the new parent is healthy.
	time.Sleep(600 * time.Millisecond)
	if got := tt.relays[1].Stats().Reparents; got != 1 {
		t.Errorf("reparents = %d after recovery, want 1", got)
	}
}

// TestRelayScopeExhaustion pins the hop budget: a publisher stamping
// Scope 2 reaches one relay level (which forwards at scope 1), but the
// second-level relay must refuse to forward, so the leaf never learns
// anything and the drop is counted.
func TestRelayScopeExhaustion(t *testing.T) {
	nw := transport.NewMemNetwork(1021)
	tt := buildTree(t, nw, 3, 1, 2, 1_000_000, nil)
	defer tt.stop()
	tt.start()

	if err := tt.pub.Publish("deep/key", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	// Level-1 relay forwards (scope 2 → 1); level-2 relay's replica
	// converges but its hop budget is spent.
	waitFor(t, 15*time.Second, "second relay to receive the record", func() bool {
		return tt.relays[1].Len() == 1
	})
	waitFor(t, 5*time.Second, "scope drop to be counted", func() bool {
		return tt.relays[1].Stats().ScopeDrops > 0
	})
	// Give the exhausted hop ample time to (wrongly) forward, then pin
	// that the leaf never heard of the record.
	time.Sleep(500 * time.Millisecond)
	if n := tt.leaves[0].Len(); n != 0 {
		t.Errorf("leaf beyond the hop budget holds %d records, want 0", n)
	}
	if st := tt.relays[0].Stats(); st.ScopeDrops != 0 {
		t.Errorf("first relay dropped %d updates despite scope 2, want 0", st.ScopeDrops)
	}
}

// TestHotUpdateThroughRelayNotParked is the relay-hop half of the
// pace-before-pick pin (see sstp.TestHotUpdateNotParkedBehindBatch): a
// relay's downstream link is a plain sstp.Sender, so a fresh update
// crossing publisher → relay → leaf over two 1 Mbit/s links with a
// 16-datagram batch bound must not wait out a batch's link time at
// either hop (~270 ms + ~200 ms when each loop picked, then paced).
func TestHotUpdateThroughRelayNotParked(t *testing.T) {
	const (
		rate    = 1e6
		table   = 1024
		updates = 50
	)
	nw := transport.NewMemNetwork(3)
	pc := nw.Endpoint("pub")
	nw.Join("grp/root", "pub")
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 9, SenderID: 1, Conn: pc, Dest: transport.MemAddr("grp/root"),
		TotalRate: rate, BatchDatagrams: 16, CoalesceRecords: 32,
		SummaryInterval: 200 * time.Millisecond, TTL: 60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	up := nw.Endpoint("up/0")
	nw.Join("grp/root", "up/0")
	dn := nw.Endpoint("dn/0")
	nw.Join("grp/0", "dn/0")
	r, err := New(Config{
		Session: 9, RelayID: 100,
		UpstreamConn: up, UpstreamFeedback: transport.MemAddr("grp/root"),
		Downstreams:     []Downstream{{Conn: dn, Dest: transport.MemAddr("grp/0"), Rate: rate}},
		BatchDatagrams:  16,
		CoalesceRecords: 32,
		TTL:             60 * time.Second,
		SummaryInterval: 200 * time.Millisecond,
		NACKWindow:      50 * time.Millisecond,
		Seed:            1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first four value bytes carry the update's number (0: the
	// initial table); seen[i] is when the leaf first delivered update i.
	var mu sync.Mutex
	seen := make(map[uint32]time.Time)
	lc := nw.Endpoint("leaf/0")
	nw.Join("grp/0", "leaf/0")
	leaf, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 9, ReceiverID: 10_000, Conn: lc,
		FeedbackDest: transport.MemAddr("grp/0"), NACKWindow: 50 * time.Millisecond, Seed: 2000,
		OnUpdate: func(_ string, value []byte, _ uint64, _ float64) {
			if stamp := binary.BigEndian.Uint32(value); stamp != 0 {
				mu.Lock()
				if seen[stamp].IsZero() {
					seen[stamp] = time.Now()
				}
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	value := func(stamp uint32) []byte {
		v := make([]byte, 64)
		binary.BigEndian.PutUint32(v, stamp)
		return v
	}
	for i := 0; i < table; i++ {
		if err := pub.Publish(fmt.Sprintf("load/%03d/%d", i%256, i), value(0), 0); err != nil {
			t.Fatal(err)
		}
	}
	pub.Start()
	r.Start()
	leaf.Start()
	defer func() { leaf.Close(); r.Close(); pub.Close() }()
	waitFor(t, 20*time.Second, "leaf holds the table", func() bool { return leaf.Len() == table })

	published := make([]time.Time, updates)
	for i := range published {
		time.Sleep(40 * time.Millisecond)
		published[i] = time.Now()
		if err := pub.Publish(fmt.Sprintf("load/%03d/%d", (i*37)%256, (i*37)%table), value(uint32(i+1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "every update at the leaf", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == updates
	})
	gaps := make([]time.Duration, updates)
	for i, at := range published {
		gaps[i] = seen[uint32(i+1)].Sub(at)
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	if med := gaps[updates/2]; med >= 40*time.Millisecond {
		t.Errorf("median publish→leaf delivery %v across two paced hops, want < 40ms", med)
	}
}
