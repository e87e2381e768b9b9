// Command sdird is a small session-directory tool in the spirit of
// sdr, built on the sdir application layer: in -announce mode it
// publishes conference sessions read from stdin; in -browse mode it
// prints the live catalogue as it evolves (including sessions that
// vanish when their announcer dies — no teardown protocol).
//
// Announce:
//
//	sdird -announce -laddr 127.0.0.1:9875 -dest 127.0.0.1:9876
//	stdin: ADD <name> <tool> <duration> [description…]
//	       DEL <name>
//	       LIST
//
// Browse:
//
//	sdird -browse -laddr 127.0.0.1:9876 -sender 127.0.0.1:9875
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/obs"
	"softstate/internal/sdir"
	"softstate/internal/sstp"
	"softstate/internal/trace"
	"softstate/internal/transport"
)

func main() { daemon.Main(run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sdird", flag.ExitOnError)
	announce := fs.Bool("announce", false, "run as announcer")
	browse := fs.Bool("browse", false, "run as browser")
	laddr := fs.String("laddr", "127.0.0.1:9875", "local address (bare host:port or scheme://host:port)")
	peer := fs.String("dest", "127.0.0.1:9876", "announcer: destination address")
	sender := fs.String("sender", "127.0.0.1:9875", "browser: announcer address for feedback")
	session := fs.Uint64("session", 9875, "SSTP session id")
	rate := fs.Float64("rate", 64_000, "session bandwidth (bits/s)")
	admin := fs.String("admin", "", "serve /metrics, /stats.json, /trace, /debug/pprof on this address")
	var wire transport.Flags
	wire.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	if !*announce && !*browse {
		return fmt.Errorf("sdird: need -announce or -browse")
	}
	remote := *sender
	if *announce {
		remote = *peer
	}
	tr, conn, err := wire.Bind(*laddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	dst, err := transport.Resolve(tr, remote)
	if err != nil {
		return err
	}

	reg := obs.New("sdird")
	ring := trace.NewSafe(4096)
	if *admin != "" {
		srv, addr, err := obs.ServeAdmin(*admin, reg, ring)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer srv.Close()
		log.Printf("sdird: admin endpoint on http://%s/", addr)
	}

	if *announce {
		return runAnnouncer(ctx, conn, dst, *laddr, *peer, *session, *rate, reg, ring)
	}
	return runBrowser(ctx, conn, dst, *laddr, *session, reg, ring)
}

func runAnnouncer(ctx context.Context, conn transport.Conn, dst net.Addr, laddr, dest string, session uint64, rate float64, reg *obs.Registry, ring *trace.Ring) error {
	sndr, err := sstp.NewSender(sstp.SenderConfig{
		Session: session, SenderID: uint64(time.Now().UnixNano()),
		Conn: conn, Dest: dst, TotalRate: rate,
		Obs: reg, Trace: ring,
	})
	if err != nil {
		return err
	}
	dir := sdir.NewDirectory(sndr)
	sndr.Start()
	defer sndr.Close()
	log.Printf("sdird: announcing session directory %d from %s to %s", session, laddr, dest)

	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			switch strings.ToUpper(fields[0]) {
			case "ADD":
				if len(fields) < 4 {
					fmt.Println("usage: ADD <name> <tool> <duration> [description…]")
					continue
				}
				d, err := time.ParseDuration(fields[3])
				if err != nil {
					fmt.Println("bad duration:", err)
					continue
				}
				s := sdir.Session{
					Name:        fields[1],
					Tool:        fields[2],
					Ends:        time.Now().Add(d),
					Description: strings.Join(fields[4:], " "),
				}
				if err := dir.Announce(s); err != nil {
					fmt.Println("error:", err)
				}
			case "DEL":
				if len(fields) != 2 {
					fmt.Println("usage: DEL <name>")
					continue
				}
				if !dir.Withdraw(fields[1]) {
					fmt.Println("no such session")
				}
			case "LIST":
				fmt.Printf("%d live announcements\n", dir.Len())
			default:
				fmt.Println("commands: ADD, DEL, LIST")
			}
		}
	}()

	<-ctx.Done()
	return nil
}

func runBrowser(ctx context.Context, conn transport.Conn, dst net.Addr, laddr string, session uint64, reg *obs.Registry, ring *trace.Ring) error {
	browser, rcv, err := sdir.NewBrowser(sstp.ReceiverConfig{
		Session: session, ReceiverID: uint64(os.Getpid()),
		Conn: conn, FeedbackDest: dst,
		Obs: reg, Trace: ring,
	})
	if err != nil {
		return err
	}
	browser.OnNew = func(s sdir.Session) {
		fmt.Printf("%s NEW     %-20s %-6s %s\n", stamp(), s.Name, s.Tool, s.Description)
	}
	browser.OnChange = func(s sdir.Session) {
		fmt.Printf("%s CHANGED %-20s %-6s %s\n", stamp(), s.Name, s.Tool, s.Description)
	}
	browser.OnGone = func(name string) {
		fmt.Printf("%s GONE    %s\n", stamp(), name)
	}
	rcv.Start()
	defer rcv.Close()
	log.Printf("sdird: browsing session directory %d on %s", session, laddr)
	<-ctx.Done()
	return nil
}

func stamp() string { return time.Now().Format("15:04:05") }
