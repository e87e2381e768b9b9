// Command ssrelay is an SSTP relay daemon: one interior node of an
// application-level multicast tree. It joins an upstream session as a
// receiver and re-publishes the replica as a full SSTP sender on each
// downstream link, so repair traffic is always answered by the nearest
// hop (see README "Relay overlay").
//
// Usage:
//
//	ssrelay -laddr 127.0.0.1:8702 -upstream 127.0.0.1:8701 \
//	        -down 127.0.0.1:8710=239.0.0.2:8711,127.0.0.1:8720=239.0.0.3:8721
//
// Each -down element is LADDR=DEST: the local socket the downstream
// sender binds and the address (usually a multicast group) its subtree
// listens on. Every address is a URL-style link spec — bare host:port
// inherits -transport (default udp), an explicit scheme (udp://,
// tcp://, tls://) wins — and each link picks its transport
// independently, so a relay bridges transports: UDP multicast inside
// the datacenter upstream, framed TCP/TLS streams across the WAN
// downstream (or the reverse):
//
//	ssrelay -laddr 127.0.0.1:8702 -upstream 127.0.0.1:8701 \
//	        -down tls://0.0.0.0:8710=tls://wan-peer:8711
//
// With -admin ADDR, an HTTP endpoint serves /metrics,
// /stats.json, /trace, and /debug/pprof covering both the relay_* and
// sstp_* series. SIGINT or SIGTERM stops the relay cleanly: every
// downstream sender says Goodbye on the way out.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/obs"
	"softstate/internal/relay"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

func main() { daemon.Main(run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ssrelay", flag.ExitOnError)
	laddr := fs.String("laddr", "127.0.0.1:8702", "local address of the upstream receiver (bare host:port or scheme://host:port)")
	upstream := fs.String("upstream", "127.0.0.1:8701", "upstream feedback address (parent sender or its group)")
	down := fs.String("down", "", "comma-separated downstream links, each LADDR=DEST (per-link scheme:// selects that link's transport)")
	var wire transport.Flags
	wire.Register(fs)
	session := fs.Uint64("session", 1, "session id")
	relayID := fs.Uint64("relayid", uint64(os.Getpid()), "relay id (downstream senders use relayid+1+i)")
	rate := fs.Float64("rate", 128_000, "per-downstream-link bandwidth in bits/s")
	minRate := fs.Float64("minrate", 0, "AIMD floor in bits/s (0 disables AIMD)")
	maxRate := fs.Float64("maxrate", 0, "AIMD ceiling in bits/s")
	ttl := fs.Duration("ttl", 30*time.Second, "receiver-side TTL announced downstream")
	summaryEvery := fs.Duration("summaryevery", time.Second, "digest summary interval on downstream links")
	nackWindow := fs.Duration("nackwindow", 100*time.Millisecond, "upstream NACK slotting window")
	scope := fs.Uint("scope", 0, "force the downstream hop budget (0 derives upstream scope minus one)")
	admin := fs.String("admin", "", "serve /metrics, /stats.json, /trace, /debug/pprof on this address")
	statsEvery := fs.Duration("statsevery", 0, "log a one-line stats summary at this interval")
	traceCap := fs.Int("tracecap", 4096, "protocol event ring capacity (0 disables)")
	seed := fs.Int64("seed", 1, "repair-timer seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	if *scope > 255 {
		return fmt.Errorf("ssrelay: -scope %d out of range [0,255]", *scope)
	}
	if *down == "" {
		return fmt.Errorf("ssrelay: -down needs at least one LADDR=DEST link")
	}
	var downs []relay.Downstream
	for _, l := range strings.Split(*down, ",") {
		la, dest, ok := strings.Cut(strings.TrimSpace(l), "=")
		if !ok {
			return fmt.Errorf("ssrelay: -down element %q is not LADDR=DEST", l)
		}
		tr, conn, err := wire.Bind(la)
		if err != nil {
			return fmt.Errorf("listen %s: %w", la, err)
		}
		defer conn.Close()
		destAddr, err := transport.Resolve(tr, dest)
		if err != nil {
			return fmt.Errorf("resolve %s: %w", dest, err)
		}
		downs = append(downs, relay.Downstream{
			Conn: conn, Dest: destAddr,
			Rate: *rate, MinRate: *minRate, MaxRate: *maxRate,
		})
	}

	upTr, upConn, err := wire.Bind(*laddr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *laddr, err)
	}
	defer upConn.Close()
	upAddr, err := transport.Resolve(upTr, *upstream)
	if err != nil {
		return fmt.Errorf("resolve upstream %s: %w", *upstream, err)
	}

	reg := obs.New("ssrelay")
	var ring *trace.Ring
	if *traceCap > 0 {
		ring = trace.NewSafe(*traceCap)
	}
	r, err := relay.New(relay.Config{
		Session:          *session,
		RelayID:          *relayID,
		UpstreamConn:     upConn,
		UpstreamFeedback: upAddr,
		Downstreams:      downs,
		TTL:              *ttl,
		SummaryInterval:  *summaryEvery,
		NACKWindow:       *nackWindow,
		Scope:            uint8(*scope),
		Obs:              reg,
		Trace:            ring,
		Seed:             *seed,
	})
	if err != nil {
		return err
	}
	r.Start()
	defer r.Close()
	log.Printf("ssrelay: session %d upstream %s feedback %s, %d downstream link(s) at %.0f bps",
		*session, *laddr, *upstream, len(downs), *rate)

	if *admin != "" {
		// The consistency section reports the upstream receiver's
		// online estimator: how stale this hop's replica is relative
		// to its parent, and the digest-agreement E[c(t)].
		est := r.Upstream().Consistency()
		srv, addr, err := obs.ServeAdmin(*admin, reg, ring,
			obs.Section{Name: "consistency", Get: func() any { return est.Snapshot() }})
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer srv.Close()
		log.Printf("ssrelay: admin endpoint on http://%s/", addr)
	}
	if *statsEvery > 0 {
		tick := time.NewTicker(*statsEvery)
		defer tick.Stop()
		go func() {
			for range tick.C {
				log.Println("ssrelay:", reg.OneLine(
					"relay_records", "relay_forwarded_total",
					"relay_tombstones_total", "relay_scope_drops_total",
					"sstp_queries_served_total", "sstp_nacks_received_total",
					"sstp_consistency_estimate", "sstp_tvis_seconds"))
			}
		}()
	}

	<-ctx.Done()
	return nil
}
