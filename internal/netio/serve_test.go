package netio_test

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"softstate/internal/fabric"
	"softstate/internal/gossip"
	"softstate/internal/netio"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// settledGoroutines polls runtime.NumGoroutine until it reads want or
// a second passes, and returns the last reading: goroutines that have
// signalled their exit may still be unwinding for a moment.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// steadyGoroutines returns runtime.NumGoroutine once it has read the
// same for 25 ms (or after a second): the goroutine that ran the
// previous test may still be exiting when the next one starts.
func steadyGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestEndpointGoroutinesAndClose starts each endpoint that reads a
// conn over mem:// and counts the goroutines it adds: a Receiver with
// feedback, reports and peer repair on runs its read, timer and
// callback loops; a Sender its send and read loops; a gossip Node its
// round and read loops; a fabric Demux only its read loop. After 50 ms
// idle, Close returns in under 50 ms, and every count returns to its
// baseline.
func TestEndpointGoroutinesAndClose(t *testing.T) {
	type endpoint struct {
		name  string
		want  int
		start func(t *testing.T, nw *transport.MemNetwork) (close func() error)
	}
	endpoints := []endpoint{
		{"receiver", 3, func(t *testing.T, nw *transport.MemNetwork) func() error {
			r, err := sstp.NewReceiver(sstp.ReceiverConfig{
				Session: 1, ReceiverID: 2, Conn: nw.Endpoint("r"), FeedbackDest: transport.MemAddr("s"),
				ReportInterval: 20 * time.Millisecond, PeerRepair: true, PeerSummaryInterval: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			return r.Close
		}},
		{"sender", 2, func(t *testing.T, nw *transport.MemNetwork) func() error {
			s, err := sstp.NewSender(sstp.SenderConfig{
				Session: 1, SenderID: 1, Conn: nw.Endpoint("s"), Dest: transport.MemAddr("r"), TotalRate: 1e6,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			return s.Close
		}},
		{"gossip", 2, func(t *testing.T, nw *transport.MemNetwork) func() error {
			n, err := gossip.New(gossip.Config{
				Session: 1, NodeID: 1, Conn: nw.Endpoint("g1"), Peers: []net.Addr{transport.MemAddr("g2")},
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			return n.Close
		}},
		{"demux", 1, func(t *testing.T, nw *transport.MemNetwork) func() error {
			return fabric.NewDemux(nw.Endpoint("d"), nil).Close
		}},
	}
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			nw := transport.NewMemNetwork(1)
			base := steadyGoroutines()
			closeFn := ep.start(t, nw)
			time.Sleep(50 * time.Millisecond)
			if got := runtime.NumGoroutine() - base; got != ep.want {
				t.Errorf("%s runs %d goroutines, want %d", ep.name, got, ep.want)
			}
			t0 := time.Now()
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			took := time.Since(t0)
			t.Logf("%s Close took %v", ep.name, took)
			if took >= 50*time.Millisecond {
				t.Errorf("%s Close took %v after 50ms idle, want < 50ms", ep.name, took)
			}
			if got := settledGoroutines(base); got != base {
				t.Errorf("%s left %d goroutines behind after Close", ep.name, got-base)
			}
		})
	}
}

// TestServeStopLeavesSharedConnServed runs two read loops on one conn,
// as tests share a mem endpoint between a sender and a receiver: the
// past deadline the first loop's stop sets wakes the second loop's
// read, which re-arms and keeps delivering.
func TestServeStopLeavesSharedConnServed(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	conn := nw.Endpoint("shared")
	src := nw.Endpoint("src")
	var first, second atomic.Int64
	stop1 := netio.Serve(conn, func([]byte, net.Addr) { first.Add(1) })
	stop2 := netio.Serve(conn, func([]byte, net.Addr) { second.Add(1) })
	defer stop2()
	time.Sleep(20 * time.Millisecond)
	t0 := time.Now()
	stop1()
	if took := time.Since(t0); took >= 50*time.Millisecond {
		t.Errorf("stop took %v, want < 50ms", took)
	}
	before := first.Load()
	for i := 0; i < 10; i++ {
		_, _ = src.WriteTo([]byte{byte(i)}, transport.MemAddr("shared"))
	}
	for deadline := time.Now().Add(2 * time.Second); second.Load() < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := second.Load(); got != 10 {
		t.Fatalf("the surviving loop read %d of 10 datagrams", got)
	}
	if first.Load() != before {
		t.Fatal("a stopped loop kept reading")
	}
	stop1() // a second stop is a no-op
}
