package sstp_test

import (
	"fmt"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// Example demonstrates the smallest SSTP program: one publisher and
// one subscriber on an in-memory network, converging by digest
// equality.
func Example() {
	nw := transport.NewMemNetwork(1)
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 1, SenderID: 1,
		Conn: nw.Endpoint("pub"), Dest: transport.MemAddr("sub"),
		TotalRate: 512_000, SummaryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer pub.Close()
	sub, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 1, ReceiverID: 2,
		Conn: nw.Endpoint("sub"), FeedbackDest: transport.MemAddr("pub"),
	})
	if err != nil {
		panic(err)
	}
	defer sub.Close()
	pub.Start()
	sub.Start()

	_ = pub.Publish("greetings/hello", []byte("world"), 0)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && pub.RootDigest() != sub.RootDigest() {
		time.Sleep(10 * time.Millisecond)
	}
	v, ok := sub.Get("greetings/hello")
	fmt.Printf("%s %v\n", v, ok)
	// Output: world true
}

// ExampleSenderConfig_classes shows Figure-12 style application data
// classes: bandwidth divides 3:1 between telemetry and logs.
func ExampleSenderConfig_classes() {
	nw := transport.NewMemNetwork(2)
	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 1, SenderID: 1,
		Conn: nw.Endpoint("p"), Dest: transport.MemAddr("s"),
		TotalRate: 256_000,
		Classes: []sstp.Class{
			{Name: "telemetry", Weight: 0.75},
			{Name: "logs", Weight: 0.25},
		},
	})
	if err != nil {
		panic(err)
	}
	defer pub.Close()
	// Keys route to classes by their first path component.
	fmt.Println(pub.Publish("telemetry/cpu", []byte("42%"), 0))
	fmt.Println(pub.Publish("logs/boot", []byte("ok"), time.Minute))
	// Output:
	// <nil>
	// <nil>
}
