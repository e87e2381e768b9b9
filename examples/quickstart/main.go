// Quickstart: publish a handful of soft-state records over an
// in-memory lossy channel and watch the subscriber converge.
//
//	go run ./examples/quickstart
//
// This is the smallest end-to-end SSTP program: one publisher, one
// subscriber, 20% packet loss, NACK-based repair.
package main

import (
	"fmt"
	"log"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func main() {
	// An in-process datagram network with 20% loss from publisher to
	// subscriber. Swap MemNetwork endpoints for net.ListenPacket UDP
	// sockets and this program runs across real machines unchanged.
	nw := transport.NewMemNetwork(42)
	nw.SetLoss("pub", "sub", 0.20)

	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 1, SenderID: 100,
		Conn: nw.Endpoint("pub"), Dest: transport.MemAddr("sub"),
		TotalRate:       64_000, // 64 kbps session
		SummaryInterval: 100 * time.Millisecond,
		TTL:             10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()

	sub, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 1, ReceiverID: 200,
		Conn: nw.Endpoint("sub"), FeedbackDest: transport.MemAddr("pub"),
		OnUpdate: func(key string, value []byte, version uint64, _ float64) {
			fmt.Printf("  received %-16s = %s\n", key, value)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	pub.Start()
	sub.Start()

	fmt.Println("publishing 5 records over a 20%-lossy channel…")
	for i, name := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		key := fmt.Sprintf("demo/%s", name)
		if err := pub.Publish(key, []byte(fmt.Sprintf("value-%d", i)), 0); err != nil {
			log.Fatal(err)
		}
	}

	// Convergence is proved by namespace digest equality.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pub.RootDigest() == sub.RootDigest() {
			fmt.Println("converged: publisher and subscriber digests match")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Update a record and watch the new version flow.
	fmt.Println("updating demo/alpha…")
	_ = pub.Publish("demo/alpha", []byte("value-0-revised"), 0)
	time.Sleep(500 * time.Millisecond)

	ss, rs := pub.Stats(), sub.Stats()
	fmt.Printf("\npublisher: %d data sent, %d summaries, %d NACKs heard, %d promotions\n",
		ss.DataSent, ss.SummariesSent, ss.NACKsReceived, ss.KeysPromoted)
	fmt.Printf("subscriber: %d updates, %d duplicates, %d NACKs sent, loss≈%.0f%%\n",
		rs.DataReceived, rs.Duplicates, rs.NACKsSent, 100*rs.LossEstimate)
}
