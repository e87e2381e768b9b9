//go:build unix

package main

import (
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"softstate/cmd/internal/daemon"
	"softstate/internal/sstp"
)

func listenUDP(t *testing.T) net.PacketConn {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSIGTERMSaysGoodbye runs the daemon's own run function between a
// publisher and a leaf on loopback UDP, sends this process the SIGTERM
// that kill, systemd and docker stop send, and requires the relay to
// return cleanly having said Goodbye: the leaf drops its replica at
// once instead of holding dead state for the 30 s TTL.
func TestSIGTERMSaysGoodbye(t *testing.T) {
	// Handle the signal before anything can send it: unhandled, SIGTERM
	// kills the test binary.
	ctx, stop := daemon.SignalContext()
	defer stop()

	// The publisher must know the relay's upstream port before the relay
	// binds it: reserve one and release it.
	reserved := listenUDP(t)
	upAddr := reserved.LocalAddr()
	reserved.Close()

	pubConn, leafConn := listenUDP(t), listenUDP(t)
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 1, SenderID: 1, Conn: pubConn, Dest: upAddr,
		TotalRate: 1_000_000, SummaryInterval: 50 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	leaf, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 1, ReceiverID: 2, Conn: leafConn,
		DisableFeedback: true, // loopback does not lose 8 datagrams
		FlushOnGoodbye:  true,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	const records = 8
	for i := 0; i < records; i++ {
		if err := pub.Publish(fmt.Sprintf("k/%d", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	pub.Start()
	leaf.Start()

	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-laddr", upAddr.String(),
			"-upstream", pubConn.LocalAddr().String(),
			"-down", "127.0.0.1:0=" + leafConn.LocalAddr().String(),
			"-rate", "1e6", "-summaryevery", "50ms", "-relayid", "100",
		})
	}()
	waitFor(t, 10*time.Second, "the leaf to hold the relayed records", func() bool {
		return leaf.Len() == records
	})

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	waitFor(t, 5*time.Second, "the relay's Goodbye to flush the leaf", func() bool {
		return leaf.Len() == 0
	})
	if st := leaf.Stats(); st.GoodbyesHeard != 1 {
		t.Errorf("leaf heard %d goodbyes, want 1", st.GoodbyesHeard)
	}
}
