// Command sstpd is an SSTP publisher daemon: it announces a soft-state
// table over any transport (UDP by default, framed TCP or TLS
// streams), accepting table operations on stdin and optionally
// driving itself from a built-in demo workload.
//
// Usage:
//
//	sstpd -laddr 127.0.0.1:8701 -dest 127.0.0.1:8702 -session 1 -rate 128000
//	sstpd -transport tls -laddr :8701 -dest tls://peer:8702   # framed TLS
//
// Addresses are URL-style link specs: bare host:port inherits
// -transport (default udp), an explicit scheme (udp://, tcp://,
// tls://) wins. See README "Transports".
//
// Stdin commands (one per line):
//
//	PUT <key> <value> [ttl-seconds]
//	DEL <key>
//	STATS
//
// With -demo {ticker|routes|sdr}, a workload generator publishes
// continuously instead. With -sessions N, the daemon becomes a
// session fabric: N tenant sessions share the one UDP socket under a
// weighted fair-queueing send loop (-tenant-weights, -link-rate), and
// per-tenant sstp_fabric_* series appear in /stats.json alongside the
// sstp_* catalog. With -admin ADDR, an HTTP endpoint serves
// /metrics (Prometheus), /stats.json, /trace (JSONL event ring), and
// /debug/pprof. -statsevery D logs a one-line summary every D.
// SIGINT or SIGTERM stops the daemon cleanly: every session says
// Goodbye on the way out.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/fabric"
	"softstate/internal/obs"
	"softstate/internal/profile"
	"softstate/internal/sstp"
	"softstate/internal/trace"
	"softstate/internal/transport"
	"softstate/internal/workload"
	"softstate/internal/xrand"
)

func main() { daemon.Main(run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sstpd", flag.ExitOnError)
	laddr := fs.String("laddr", "127.0.0.1:8701", "local address (bare host:port or scheme://host:port)")
	dest := fs.String("dest", "127.0.0.1:8702", "destination address (receiver or multicast group)")
	var wire transport.Flags
	wire.Register(fs)
	session := fs.Uint64("session", 1, "session id")
	rate := fs.Float64("rate", 128_000, "session bandwidth in bits/s")
	ttl := fs.Duration("ttl", 30*time.Second, "announced receiver-side TTL")
	demo := fs.String("demo", "", "demo workload: ticker, routes, or sdr")
	seed := fs.Int64("seed", 1, "workload seed")
	profPath := fs.String("profile", "", "consistency profile JSON (from ssprofile) for adaptive allocation")
	target := fs.Float64("target", 0.9, "consistency target when -profile is set")
	admin := fs.String("admin", "", "serve /metrics, /stats.json, /trace, /debug/pprof on this address")
	statsEvery := fs.Duration("statsevery", 0, "log a one-line stats summary at this interval")
	traceCap := fs.Int("tracecap", 4096, "protocol event ring capacity (0 disables)")
	sessions := fs.Int("sessions", 1, "multiplex this many tenant sessions (ids session..session+N-1) over the one UDP socket")
	tenantWeights := fs.String("tenant-weights", "1", "comma-separated fabric weights, cycled across tenants")
	linkRate := fs.Float64("link-rate", 0, "shared link rate in bits/s for fabric mode (default sessions x -rate)")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	var gen workload.Generator
	var initial []workload.Event
	if *demo != "" {
		var err error
		if gen, initial, err = newDemo(*demo, *seed); err != nil {
			return err
		}
	}

	reg := obs.New("sstpd")
	var ring *trace.Ring
	if *traceCap > 0 {
		ring = trace.NewSafe(*traceCap)
	}

	var alloc *profile.Allocator
	if *profPath != "" {
		f, err := os.Open(*profPath)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		grid, err := profile.ReadGridJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		alloc = &profile.Allocator{Consistency: grid, Target: *target}
		log.Printf("sstpd: profile-driven allocation on (target %.0f%%)", 100**target)
	}

	tr, conn, err := wire.Bind(*laddr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer conn.Close()
	destAddr, err := transport.Resolve(tr, *dest)
	if err != nil {
		return fmt.Errorf("resolve dest: %w", err)
	}
	mkConfig := func(id uint64) sstp.SenderConfig {
		return sstp.SenderConfig{
			Session:   id,
			SenderID:  uint64(os.Getpid()),
			Conn:      conn,
			Dest:      destAddr,
			TotalRate: *rate,
			TTL:       *ttl,
			Allocator: alloc,
			Obs:       reg,
			Trace:     ring,
			OnRateLimit: func(max float64) {
				log.Printf("allocator: publish rate exceeds μ_hot; max sustainable ≈ %.0f bps", max)
			},
		}
	}
	var s *sstp.Sender
	if *sessions > 1 {
		// Fabric mode: N tenant sessions share the one UDP socket,
		// arbitrated by the weighted fair-queueing send loop; stdin
		// commands and the demo workload drive the first tenant, the
		// rest idle at heartbeats. Per-tenant sstp_fabric_* series
		// land in the same registry as the sstp_* catalog, so
		// /stats.json shows both.
		weights, err := fabric.ParseWeights(*tenantWeights, *sessions)
		if err != nil {
			return err
		}
		lr := *linkRate
		if lr <= 0 {
			lr = float64(*sessions) * *rate
		}
		f, err := fabric.New(fabric.Config{Conn: conn, LinkRate: lr, Obs: reg})
		if err != nil {
			return err
		}
		for i := 0; i < *sessions; i++ {
			cfg := mkConfig(*session + uint64(i))
			cfg.Conn = nil // the fabric wires each tenant to its demux port
			ts, err := f.AddSender(cfg, weights[i])
			if err != nil {
				return err
			}
			if i == 0 {
				s = ts
			}
		}
		f.Start()
		defer f.Close()
		log.Printf("sstpd: fabric of %d sessions (%d..%d) from %s to %s, link %.0f bps, weights %s",
			*sessions, *session, *session+uint64(*sessions-1), *laddr, *dest, lr, *tenantWeights)
	} else {
		s, err = sstp.NewSender(mkConfig(*session))
		if err != nil {
			return err
		}
		s.Start()
		defer s.Close()
		log.Printf("sstpd: announcing session %d from %s to %s at %.0f bps", *session, *laddr, *dest, *rate)
	}

	if *admin != "" {
		srv, addr, err := obs.ServeAdmin(*admin, reg, ring)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer srv.Close()
		log.Printf("sstpd: admin endpoint on http://%s/", addr)
	}
	if *statsEvery > 0 {
		tick := time.NewTicker(*statsEvery)
		defer tick.Stop()
		go func() {
			for range tick.C {
				log.Println("sstpd:", reg.OneLine(
					"sstp_records_live", "sstp_publishes_total",
					"sstp_announcements_total", "sstp_tx_bits_total",
					"sstp_nacks_received_total", "sstp_send_rate_bps"))
			}
		}()
	}

	if gen != nil {
		go runDemo(s, gen, initial)
	} else {
		go func() {
			sc := bufio.NewScanner(os.Stdin)
			for sc.Scan() {
				handleLine(s, reg, sc.Text())
			}
		}()
	}
	<-ctx.Done()
	return nil
}

func handleLine(s *sstp.Sender, reg *obs.Registry, line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "PUT":
		if len(fields) < 3 {
			fmt.Println("usage: PUT <key> <value> [ttl-seconds]")
			return
		}
		var life time.Duration
		if len(fields) >= 4 {
			if secs, err := strconv.ParseFloat(fields[3], 64); err == nil {
				life = time.Duration(secs * float64(time.Second))
			}
		}
		if err := s.Publish(fields[1], []byte(fields[2]), life); err != nil {
			fmt.Println("error:", err)
		}
	case "DEL":
		if len(fields) != 2 {
			fmt.Println("usage: DEL <key>")
			return
		}
		if !s.Delete(fields[1]) {
			fmt.Println("no such key")
		}
	case "STATS":
		fmt.Print(reg.RenderText())
	default:
		fmt.Println("commands: PUT, DEL, STATS")
	}
}

// newDemo builds the named demo workload: its generator plus the
// events to apply before the replay starts.
func newDemo(kind string, seed int64) (workload.Generator, []workload.Event, error) {
	rnd := xrand.New(seed)
	const horizon = 24 * 3600
	switch kind {
	case "ticker":
		return workload.NewStockTicker(50, 5, horizon, rnd), nil, nil
	case "routes":
		rt := workload.NewRoutingTable(64, 1, 0.1, horizon, rnd)
		return rt, rt.InitialEvents(), nil
	case "sdr":
		return workload.NewSessionDirectory(0.2, 300, 0.01, horizon, rnd), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown demo %q (want ticker, routes, or sdr)", kind)
	}
}

// runDemo replays a workload generator in real time.
func runDemo(s *sstp.Sender, gen workload.Generator, initial []workload.Event) {
	for _, ev := range initial {
		apply(s, ev)
	}
	start := time.Now()
	for {
		ev, ok := gen.Next()
		if !ok {
			return
		}
		wait := time.Duration(ev.At*float64(time.Second)) - time.Since(start)
		if wait > 0 {
			time.Sleep(wait)
		}
		apply(s, ev)
	}
}

func apply(s *sstp.Sender, ev workload.Event) {
	switch ev.Op {
	case workload.OpPut:
		life := time.Duration(ev.Lifetime * float64(time.Second))
		if err := s.Publish(ev.Key, ev.Value, life); err != nil {
			log.Printf("publish %s: %v", ev.Key, err)
		}
	case workload.OpDelete:
		s.Delete(ev.Key)
	}
}
