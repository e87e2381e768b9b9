// Session directory: an sdr/SAP-style MBone conference directory —
// the application that motivated announce/listen — served over SSTP
// to three subscribers on a lossy multicast group, one of which
// suffers a temporary partition and recovers purely through normal
// protocol operation (the paper's "light-weight sessions" robustness
// story).
//
//	go run ./examples/sessiondirectory
package main

import (
	"fmt"
	"log"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
	"softstate/internal/workload"
	"softstate/internal/xrand"
)

func main() {
	nw := transport.NewMemNetwork(7)
	group := transport.MemAddr("224.2.127.254") // the real sdr group, in spirit
	nw.Join(group, "announcer")
	nw.SetDefaultLoss(0.10)

	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 9875, SenderID: 1, // sdr's port number as session id
		Conn: nw.Endpoint("announcer"), Dest: group,
		TotalRate:       32_000,
		SummaryInterval: 150 * time.Millisecond,
		TTL:             5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()
	pub.Start()

	var subs []*sstp.Receiver
	for i := 0; i < 3; i++ {
		name := transport.MemAddr(fmt.Sprintf("host%d", i))
		nw.Join(group, name)
		r, err := sstp.NewReceiver(sstp.ReceiverConfig{
			Session: 9875, ReceiverID: uint64(10 + i),
			Conn: nw.Endpoint(name), FeedbackDest: group,
			NACKWindow: 200 * time.Millisecond, // multicast: damp shared losses
			Seed:       int64(i),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		r.Start()
		subs = append(subs, r)
	}

	// Announce conferences from the sdr-like workload generator.
	gen := workload.NewSessionDirectory(2, 60, 0.05, 5, xrand.New(3))
	n := 0
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		life := time.Duration(ev.Lifetime * float64(time.Second))
		if err := pub.Publish(ev.Key, ev.Value, life); err == nil {
			n++
		}
	}
	fmt.Printf("announced %d conference sessions to the group\n", n)

	waitConverged(pub, subs, 15*time.Second)
	fmt.Printf("all %d hosts converged: %d sessions each\n", len(subs), subs[0].Len())

	// Partition host2: it misses everything for a while.
	fmt.Println("partitioning host2…")
	nw.SetLoss("announcer", "host2", 1)
	_ = pub.Publish("sessions/conf-during-partition", []byte("v=0\ns=added while host2 dark\n"), 0)
	time.Sleep(1 * time.Second)
	if _, ok := subs[2].Get("sessions/conf-during-partition"); ok {
		fmt.Println("unexpected: partitioned host saw the new session")
	} else {
		fmt.Println("host2 (partitioned) is missing the new session, as expected")
	}

	// Heal: announce/listen + summary repair recovers with no special
	// reconciliation code.
	fmt.Println("healing the partition…")
	nw.SetLoss("announcer", "host2", 0.10)
	waitConverged(pub, subs, 20*time.Second)
	fmt.Println("host2 caught up through normal protocol operation")

	for i, r := range subs {
		st := r.Stats()
		fmt.Printf("host%d: %d sessions, %d updates, %d NACKs sent, %d suppressed (damping)\n",
			i, r.Len(), st.DataReceived, st.NACKsSent, st.NACKsSuppressed)
	}
}

func waitConverged(pub *sstp.Sender, subs []*sstp.Receiver, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		ok := true
		for _, r := range subs {
			if pub.RootDigest() != r.RootDigest() {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Println("warning: convergence deadline passed")
}
