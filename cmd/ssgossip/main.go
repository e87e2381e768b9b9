// Command ssgossip is a peer-to-peer anti-entropy daemon: one member
// of a gossip mesh in which every node holds a full soft-state replica
// and reconciles with one random peer per round (see README "Gossip
// mesh"). Where ssrelay scales a single origin through a tree, ssgossip
// has no origin at all — any node may publish, any node repairs any
// other, and the mesh survives the loss of every node but one.
//
// Usage:
//
//	ssgossip -laddr 127.0.0.1:8801 \
//	         -peers 127.0.0.1:8802,127.0.0.1:8803
//
// Addresses are URL-style link specs: bare host:port inherits
// -transport (default udp); an explicit scheme (udp://, tcp://,
// tls://) wins, so one mesh can span transports.
//
// With -admin ADDR, an HTTP endpoint serves /metrics (the
// sstp_gossip_* catalog), /stats.json, /trace, and /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/gossip"
	"softstate/internal/obs"
	"softstate/internal/staleness"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

// kvFlag accumulates -announce values: the flag is repeatable, and
// each occurrence may itself carry a comma-separated list (a plain
// flag.String would silently keep only the last occurrence).
type kvFlag []string

func (f *kvFlag) String() string { return strings.Join(*f, ",") }

func (f *kvFlag) Set(s string) error {
	for _, kv := range strings.Split(s, ",") {
		if kv = strings.TrimSpace(kv); kv != "" {
			*f = append(*f, kv)
		}
	}
	return nil
}

func main() { daemon.Main(run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ssgossip", flag.ExitOnError)
	laddr := fs.String("laddr", "127.0.0.1:8801", "local mesh endpoint (bare host:port or scheme://host:port)")
	peers := fs.String("peers", "", "comma-separated peer addresses seeding the membership view")
	var wire transport.Flags
	wire.Register(fs)
	session := fs.Uint64("session", 1, "session id")
	nodeID := fs.Uint64("id", uint64(os.Getpid()), "node id (must be unique in the mesh)")
	interval := fs.Duration("interval", 100*time.Millisecond, "anti-entropy round cadence (jittered ±25%)")
	rate := fs.Float64("rate", 0, "outbound bandwidth cap in bits/s (0 = unlimited)")
	suspect := fs.Int("suspect", 3, "missed exchanges before a peer is suspected")
	evict := fs.Int("evict", 8, "missed exchanges before a peer is evicted")
	tombTTL := fs.Duration("tombttl", 60*time.Second, "death-certificate retention (keep above record TTLs)")
	maxPull := fs.Int("maxpull", 512, "max leaves pulled per round (spreads restart catch-up)")
	var announce kvFlag
	fs.Var(&announce, "announce", "key=value record to publish at startup (repeatable; comma-separable)")
	announceTTL := fs.Duration("announcettl", 0, "lifetime of -announce records (0 = immortal)")
	admin := fs.String("admin", "", "serve /metrics, /stats.json, /trace, /debug/pprof on this address")
	statsEvery := fs.Duration("statsevery", 0, "log a one-line stats summary at this interval")
	traceCap := fs.Int("tracecap", 4096, "protocol event ring capacity (0 disables)")
	seed := fs.Int64("seed", 1, "peer-selection and jitter seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	if *peers == "" {
		return fmt.Errorf("ssgossip: -peers needs at least one address")
	}
	tr, conn, err := wire.Bind(*laddr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *laddr, err)
	}
	defer conn.Close()
	var peerAddrs []net.Addr
	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		a, err := transport.Resolve(tr, p)
		if err != nil {
			return fmt.Errorf("resolve peer %s: %w", p, err)
		}
		peerAddrs = append(peerAddrs, a)
	}

	reg := obs.New("ssgossip")
	var ring *trace.Ring
	if *traceCap > 0 {
		ring = trace.NewSafe(*traceCap)
	}
	est := staleness.NewEstimator(time.Minute)
	node, err := gossip.New(gossip.Config{
		Session:         *session,
		NodeID:          *nodeID,
		Conn:            conn,
		Peers:           peerAddrs,
		Interval:        *interval,
		RateBps:         *rate,
		SuspectAfter:    *suspect,
		EvictAfter:      *evict,
		TombstoneTTL:    *tombTTL,
		MaxPullPerRound: *maxPull,
		Obs:             reg,
		Trace:           ring,
		Consistency:     est,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	for _, kv := range announce {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("ssgossip: -announce element %q is not key=value", kv)
		}
		if err := node.Publish(k, []byte(v), *announceTTL); err != nil {
			return fmt.Errorf("announce %s: %w", k, err)
		}
	}
	node.Start()
	defer node.Close()
	log.Printf("ssgossip: session %d node %d on %s, %d seed peer(s), round %s",
		*session, *nodeID, *laddr, len(peerAddrs), *interval)

	if *admin != "" {
		srv, addr, err := obs.ServeAdmin(*admin, reg, ring,
			obs.Section{Name: "gossip", Get: func() any { return node.Stats() }},
			obs.Section{Name: "peers", Get: func() any { return node.Peers() }},
			obs.Section{Name: "consistency", Get: func() any { return est.Snapshot() }})
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer srv.Close()
		log.Printf("ssgossip: admin endpoint on http://%s/", addr)
	}
	if *statsEvery > 0 {
		tick := time.NewTicker(*statsEvery)
		defer tick.Stop()
		go func() {
			for range tick.C {
				st := node.Stats()
				log.Printf("ssgossip: rounds=%d agree=%d diverge=%d applied=%d served=%d peers=%d/%d/%d tx=%dB rx=%dB",
					st.Rounds, st.Agreements, st.Divergences,
					st.RecordsApplied, st.RecordsServed,
					st.PeersLive, st.PeersSuspect, st.PeersEvicted,
					st.BytesSent, st.BytesReceived)
			}
		}()
	}

	<-ctx.Done()
	return nil
}
