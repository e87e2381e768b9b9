package gossip

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"softstate/internal/namespace"
	"softstate/internal/obs"
	"softstate/internal/staleness"
	"softstate/internal/transport"
)

// meshAddr names node i's endpoint.
func meshAddr(i int) transport.MemAddr {
	return transport.MemAddr(fmt.Sprintf("g/%d", i))
}

// buildMesh constructs (but does not start) an n-node full mesh over
// nw. Every node knows every other node's address up front.
func buildMesh(t *testing.T, nw *transport.MemNetwork, n int, cfg Config) []*Node {
	t.Helper()
	addrs := make([]net.Addr, n)
	for i := range addrs {
		addrs[i] = meshAddr(i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		c := cfg
		c.NodeID = uint64(i + 1)
		c.Conn = nw.Endpoint(meshAddr(i))
		c.Peers = addrs
		c.Seed = int64(1000 + i)
		node, err := New(c)
		if err != nil {
			t.Fatalf("New(node %d): %v", i, err)
		}
		nodes[i] = node
	}
	return nodes
}

func startAll(nodes []*Node) {
	for _, n := range nodes {
		n.Start()
	}
}

func closeAll(nodes []*Node) {
	for _, n := range nodes {
		if n != nil {
			n.Close()
		}
	}
}

// waitFor polls cond until it holds or the deadline lapses.
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

// converged reports whether every node's root digest equals want.
func converged(nodes []*Node, want namespace.Digest) bool {
	for _, n := range nodes {
		if n.RootDigest() != want {
			return false
		}
	}
	return true
}

func TestSpreadRoundsSanity(t *testing.T) {
	if got := SpreadRounds(1, 0.99); got != 0 {
		t.Fatalf("SpreadRounds(1) = %d, want 0", got)
	}
	r16 := SpreadRounds(16, 0.99)
	if r16 < 2 || r16 > 10 {
		t.Fatalf("SpreadRounds(16, .99) = %d, want a handful", r16)
	}
	r256 := SpreadRounds(256, 0.99)
	if r256 < r16 {
		t.Fatalf("SpreadRounds not monotone: n=16 -> %d, n=256 -> %d", r16, r256)
	}
	// Push-pull spread is O(log n): 16x the nodes should cost only a
	// few extra rounds.
	if r256 > r16+8 {
		t.Fatalf("SpreadRounds(256) = %d, way beyond log-growth from %d", r256, r16)
	}
}

// TestSpreadWithinAnalyticBound holds the live mesh to the model it
// claims to follow: a batch published at one node of a 16-node,
// 2%-lossy mesh must reach every replica within twice the rounds the
// push-pull recurrence (Bakhshi et al., evaluated by SpreadRounds)
// predicts for 99% coverage, counting each node's own anti-entropy
// rounds from the publish to mesh-wide digest agreement.
func TestSpreadWithinAnalyticBound(t *testing.T) {
	const n, records = 16, 64
	nw := transport.NewMemNetwork(1)
	nw.SetDefaultLoss(0.02)
	interval := 40 * time.Millisecond
	nodes := buildMesh(t, nw, n, Config{Session: 70, Interval: interval})
	defer closeAll(nodes)
	startAll(nodes)
	// Let the empty mesh settle into agreement so the measured window
	// holds only the spread itself.
	time.Sleep(10 * interval)

	before := make([]int, n)
	for i, node := range nodes {
		before[i] = node.Stats().Rounds
	}
	for i := 0; i < records; i++ {
		if err := nodes[0].Publish(fmt.Sprintf("spread/%02d/%d", i%32, i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	want := nodes[0].RootDigest()
	waitFor(t, 15*time.Second, "mesh convergence", func() bool { return converged(nodes, want) })
	var rounds float64
	for i, node := range nodes {
		rounds += float64(node.Stats().Rounds - before[i])
	}
	rounds /= n
	analytic := SpreadRounds(n, 0.99)
	t.Logf("spread took %.1f rounds a node; analytic 99%% = %d", rounds, analytic)
	if bound := 2 * float64(analytic); rounds > bound {
		t.Errorf("spread took %.1f rounds a node, over the %.0f that 2x the analytic %d allows", rounds, bound, analytic)
	}
}

// TestMeshConvergence is the core anti-entropy property: records
// published at one node reach every replica of a lossy 8-node mesh,
// byte-identical (same digests, versions, and values).
func TestMeshConvergence(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	nw.SetDefaultLoss(0.02)
	reg := obs.New("gossip-test")
	est := staleness.NewEstimator(time.Minute)
	nodes := buildMesh(t, nw, 8, Config{
		Session:     71,
		Interval:    20 * time.Millisecond,
		Obs:         reg,
		Consistency: est,
	})
	defer closeAll(nodes)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("conf/%02d/state", i)
		if err := nodes[0].Publish(key, []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	want := nodes[0].RootDigest()
	startAll(nodes)
	waitFor(t, 15*time.Second, "mesh convergence", func() bool {
		return converged(nodes, want)
	})
	// Replicas must carry origin versions and values verbatim.
	v, ver, ok := nodes[5].Get("conf/07/state")
	if !ok || string(v) != "v7" {
		t.Fatalf("node 5 conf/07/state = %q, %v; want v7", v, ok)
	}
	wantV, wantVer, _ := nodes[0].Get("conf/07/state")
	if ver != wantVer || string(v) != string(wantV) {
		t.Fatalf("replica version %d != origin %d", ver, wantVer)
	}
	st := nodes[3].Stats()
	if st.RecordsApplied < 40 {
		t.Fatalf("node 3 applied %d records, want >= 40", st.RecordsApplied)
	}
	if st.Rounds == 0 || st.ExchangesSent == 0 {
		t.Fatalf("node 3 ran no rounds: %+v", st)
	}
}

// TestDeletePropagation drives a deletion epidemic: a key deleted at
// one replica must disappear from every replica, and a stale copy
// pushed afterwards must be refuted, not resurrected.
func TestDeletePropagation(t *testing.T) {
	nw := transport.NewMemNetwork(2)
	nodes := buildMesh(t, nw, 5, Config{
		Session:  72,
		Interval: 15 * time.Millisecond,
	})
	defer closeAll(nodes)
	for i := 0; i < 10; i++ {
		nodes[0].Publish(fmt.Sprintf("k/%d", i), []byte("x"), 0)
	}
	want := nodes[0].RootDigest()
	startAll(nodes)
	waitFor(t, 10*time.Second, "initial convergence", func() bool {
		return converged(nodes, want)
	})
	// Delete at a non-origin replica: the certificate must spread.
	if !nodes[3].Delete("k/4") {
		t.Fatal("node 3 did not hold k/4")
	}
	waitFor(t, 10*time.Second, "deletion to spread", func() bool {
		for _, n := range nodes {
			if _, _, ok := n.Get("k/4"); ok {
				return false
			}
		}
		return true
	})
	// All replicas must also agree digest-wise after the delete.
	after := nodes[3].RootDigest()
	waitFor(t, 10*time.Second, "post-delete convergence", func() bool {
		return converged(nodes, after)
	})
	// Resurrection by republish must win over the tombstone.
	if err := nodes[0].Publish("k/4", []byte("reborn"), 0); err != nil {
		t.Fatalf("republish: %v", err)
	}
	waitFor(t, 10*time.Second, "resurrection to spread", func() bool {
		for _, n := range nodes {
			if v, _, ok := n.Get("k/4"); !ok || string(v) != "reborn" {
				return false
			}
		}
		return true
	})
}

// TestMembershipEvictRejoin exercises failure suspicion: a severed
// peer is suspected, then evicted; once the link heals and it is heard
// again, it rejoins live.
func TestMembershipEvictRejoin(t *testing.T) {
	nw := transport.NewMemNetwork(3)
	nodes := buildMesh(t, nw, 2, Config{
		Session:      73,
		Interval:     10 * time.Millisecond,
		SuspectAfter: 2,
		EvictAfter:   4,
	})
	defer closeAll(nodes)
	nodes[0].Publish("m/seed", []byte("s"), 0)
	startAll(nodes)
	waitFor(t, 10*time.Second, "initial sync", func() bool {
		return converged(nodes, nodes[0].RootDigest())
	})
	nw.SetLinkDown(meshAddr(0), meshAddr(1))
	waitFor(t, 10*time.Second, "eviction", func() bool {
		ps := nodes[0].Peers()
		return len(ps) == 1 && ps[0].State == PeerEvicted
	})
	st := nodes[0].Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	nw.HealAll()
	// The probe path (one suspect/evicted peer every probeEvery
	// rounds) must re-establish contact without outside help.
	waitFor(t, 10*time.Second, "rejoin", func() bool {
		ps := nodes[0].Peers()
		return len(ps) == 1 && ps[0].State == PeerLive
	})
	if st := nodes[0].Stats(); st.Rejoins < 1 {
		t.Fatalf("rejoins = %d, want >= 1", st.Rejoins)
	}
}

// TestChurnKillRestart kills a replica mid-run, keeps publishing, then
// restarts it empty on the same address: the restarted node must
// re-converge by pulling the whole replica from the mesh, the mesh must
// have evicted and then rejoined it, and — the restart's pulls being
// budgeted per round and spread by the shuffled peer cycle — no
// survivor may serve more than twice the median's repair bytes.
func TestChurnKillRestart(t *testing.T) {
	nw := transport.NewMemNetwork(4)
	nodes := buildMesh(t, nw, 6, Config{
		Session:      74,
		Interval:     15 * time.Millisecond,
		SuspectAfter: 2,
		EvictAfter:   4,
	})
	defer closeAll(nodes)
	// Values big enough that serving the replica outweighs a survivor's
	// background round traffic in the repair-byte comparison below.
	valueA, valueB := bytes.Repeat([]byte("a"), 256), bytes.Repeat([]byte("b"), 256)
	for i := 0; i < 20; i++ {
		nodes[0].Publish(fmt.Sprintf("churn/%02d", i), valueA, 0)
	}
	startAll(nodes)
	waitFor(t, 15*time.Second, "initial convergence", func() bool {
		return converged(nodes, nodes[0].RootDigest())
	})

	// Kill node 5: stop its loops and close its endpoint so the mesh
	// sees pure silence.
	victim := nodes[5]
	victim.Close()
	victimConn := victim.cfg.Conn
	victimConn.Close()
	nodes[5] = nil
	live := nodes[:5]

	// The mesh keeps accepting writes while the node is down.
	for i := 20; i < 35; i++ {
		nodes[0].Publish(fmt.Sprintf("churn/%02d", i), valueB, 0)
	}
	waitFor(t, 15*time.Second, "survivor convergence", func() bool {
		return converged(live, nodes[0].RootDigest())
	})
	// Let the failure detector do its work before the node returns.
	waitFor(t, 15*time.Second, "a survivor to evict the dead node", func() bool {
		for _, n := range live {
			if n.Stats().Evictions > 0 {
				return true
			}
		}
		return false
	})

	// Restart empty on the same address (fresh endpoint, same ID), with
	// a catch-up budget that takes several rounds to pull the replica.
	addrs := make([]net.Addr, 6)
	for i := range addrs {
		addrs[i] = meshAddr(i)
	}
	sentBefore := make([]int64, len(live))
	for i, n := range live {
		sentBefore[i] = n.Stats().BytesSent
	}
	restarted, err := New(Config{
		Session:         74,
		NodeID:          6,
		Conn:            nw.Endpoint(meshAddr(5)),
		Peers:           addrs,
		Interval:        15 * time.Millisecond,
		SuspectAfter:    2,
		EvictAfter:      4,
		MaxPullPerRound: 4,
		Seed:            4242,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	nodes[5] = restarted
	restarted.Start()
	waitFor(t, 15*time.Second, "restarted node to catch up", func() bool {
		return converged(nodes, nodes[0].RootDigest())
	})
	if got := restarted.Len(); got != 35 {
		t.Fatalf("restarted replica has %d records, want 35", got)
	}
	repair := make([]int64, len(live))
	for i, n := range live {
		repair[i] = n.Stats().BytesSent - sentBefore[i]
	}
	sort.Slice(repair, func(a, b int) bool { return repair[a] < repair[b] })
	if median, max := repair[len(repair)/2], repair[len(repair)-1]; max > 2*median {
		t.Errorf("repair load not spread: one survivor sent %d bytes, over 2x the median %d (%v)", max, median, repair)
	}
	// Some survivor must also notice the return: its evicted entry
	// flips back to live the moment the restarted node is heard.
	waitFor(t, 15*time.Second, "a survivor to rejoin the restarted node", func() bool {
		for _, n := range live {
			if n.Stats().Rejoins > 0 {
				return true
			}
		}
		return false
	})
}

// TestPartitionHeal splits the mesh in half, publishes different keys
// into each side, then heals: both sides must learn each other's
// writes and agree on one digest.
func TestPartitionHeal(t *testing.T) {
	nw := transport.NewMemNetwork(5)
	nodes := buildMesh(t, nw, 6, Config{
		Session:      75,
		Interval:     15 * time.Millisecond,
		SuspectAfter: 2,
		EvictAfter:   4,
	})
	defer closeAll(nodes)
	nodes[0].Publish("part/base", []byte("0"), 0)
	startAll(nodes)
	waitFor(t, 10*time.Second, "initial convergence", func() bool {
		return converged(nodes, nodes[0].RootDigest())
	})

	sideA := []transport.MemAddr{meshAddr(0), meshAddr(1), meshAddr(2)}
	sideB := []transport.MemAddr{meshAddr(3), meshAddr(4), meshAddr(5)}
	nw.Partition(sideA, sideB)
	nodes[0].Publish("part/a", []byte("from-a"), 0)
	nodes[3].Publish("part/b", []byte("from-b"), 0)
	waitFor(t, 10*time.Second, "intra-side convergence", func() bool {
		return converged(nodes[:3], nodes[0].RootDigest()) &&
			converged(nodes[3:], nodes[3].RootDigest())
	})
	if _, _, ok := nodes[0].Get("part/b"); ok {
		t.Fatal("partition leaked: side A learned part/b")
	}

	nw.HealAll()
	waitFor(t, 20*time.Second, "post-heal convergence", func() bool {
		if nodes[0].RootDigest() != nodes[3].RootDigest() {
			return false
		}
		return converged(nodes, nodes[0].RootDigest())
	})
	for i, n := range nodes {
		if v, _, ok := n.Get("part/a"); !ok || string(v) != "from-a" {
			t.Fatalf("node %d missing part/a", i)
		}
		if v, _, ok := n.Get("part/b"); !ok || string(v) != "from-b" {
			t.Fatalf("node %d missing part/b", i)
		}
	}
}

// TestRateLimitDrops pins the bandwidth budget: with a tight token
// bucket in place anti-entropy must still converge, because any
// datagram the budget drops is re-derived by a later idempotent round.
func TestRateLimitDrops(t *testing.T) {
	nw := transport.NewMemNetwork(6)
	nodes := buildMesh(t, nw, 3, Config{
		Session:  76,
		Interval: 10 * time.Millisecond,
		RateBps:  512 * 1024, // tight enough to clip bursts
	})
	defer closeAll(nodes)
	for i := 0; i < 64; i++ {
		nodes[0].Publish(fmt.Sprintf("rl/%02d", i), make([]byte, 400), 0)
	}
	want := nodes[0].RootDigest()
	startAll(nodes)
	waitFor(t, 30*time.Second, "rate-limited convergence", func() bool {
		return converged(nodes, want)
	})
}

// TestExpiryPropagates checks that soft-state lifetimes survive
// replication: a record with a short TTL gossiped across the mesh
// expires everywhere, leaving digests equal again.
func TestExpiryPropagates(t *testing.T) {
	nw := transport.NewMemNetwork(7)
	nodes := buildMesh(t, nw, 3, Config{
		Session:  77,
		Interval: 10 * time.Millisecond,
	})
	defer closeAll(nodes)
	nodes[0].Publish("keep", []byte("k"), 0)
	nodes[0].Publish("fade", []byte("f"), 900*time.Millisecond)
	startAll(nodes)
	waitFor(t, 10*time.Second, "both keys to spread", func() bool {
		for _, n := range nodes {
			if _, _, ok := n.Get("fade"); !ok {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "fade to expire everywhere", func() bool {
		for _, n := range nodes {
			if _, _, ok := n.Get("fade"); ok {
				return false
			}
		}
		return true
	})
	waitFor(t, 10*time.Second, "post-expiry digest agreement", func() bool {
		return converged(nodes, nodes[0].RootDigest())
	})
	if _, _, ok := nodes[2].Get("keep"); !ok {
		t.Fatal("immortal record lost")
	}
}
