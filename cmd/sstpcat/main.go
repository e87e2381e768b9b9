// Command sstpcat subscribes to an SSTP session and prints every
// table update and expiry as it happens — a soft-state analogue of
// netcat.
//
// Usage:
//
//	sstpcat -laddr 127.0.0.1:8702 -sender 127.0.0.1:8701 -session 1
//	sstpcat -transport tcp -laddr :8702 -sender tcp://pub:8701
//
// Addresses are URL-style link specs: bare host:port inherits
// -transport (default udp), an explicit scheme wins.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func main() { daemon.Main(run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sstpcat", flag.ExitOnError)
	laddr := fs.String("laddr", "127.0.0.1:8702", "local address (bare host:port or scheme://host:port)")
	sender := fs.String("sender", "127.0.0.1:8701", "publisher address for feedback")
	session := fs.Uint64("session", 1, "session id")
	openLoop := fs.Bool("open-loop", false, "disable feedback (pure announce/listen)")
	statsEvery := fs.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	var wire transport.Flags
	wire.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited

	tr, conn, err := wire.Bind(*laddr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer conn.Close()
	senderAddr, err := transport.Resolve(tr, *sender)
	if err != nil {
		return fmt.Errorf("resolve sender: %w", err)
	}
	r, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session:         *session,
		ReceiverID:      uint64(os.Getpid()),
		Conn:            conn,
		FeedbackDest:    senderAddr,
		DisableFeedback: *openLoop,
		OnUpdate: func(key string, value []byte, version uint64, born float64) {
			fmt.Printf("%s UPDATE %s = %q (v%d)\n", stamp(), key, value, version)
		},
		OnExpire: func(key string) {
			fmt.Printf("%s EXPIRE %s\n", stamp(), key)
		},
	})
	if err != nil {
		return err
	}
	r.Start()
	defer r.Close()
	log.Printf("sstpcat: listening on %s for session %d (feedback to %s)", *laddr, *session, *sender)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := r.Stats()
				log.Printf("stats: %d records, loss≈%.1f%%, %d updates, %d nacks, %d queries, %d expired",
					r.Len(), 100*st.LossEstimate, st.DataReceived, st.NACKsSent, st.QueriesSent, st.Expired)
			}
		}()
	}

	<-ctx.Done()
	return nil
}

func stamp() string { return time.Now().Format("15:04:05.000") }
