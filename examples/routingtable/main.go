// Routing table: RIP-style route advertisements as soft state — the
// original setting in which Clark coined the term. A router announces
// its routing table over SSTP; a neighbor holds each route only while
// refreshes keep arriving. When the announcing router "crashes", the
// neighbor's routes time out by themselves (no teardown protocol), and
// when the router comes back the table re-establishes through normal
// announcements — the paper's "survivability in the face of failure".
//
//	go run ./examples/routingtable
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
	"softstate/internal/workload"
	"softstate/internal/xrand"
)

func main() {
	nw := transport.NewMemNetwork(23)
	nw.SetLoss("routerA", "routerB", 0.05)

	var mu sync.Mutex
	installed := map[string]string{}

	neighbor, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 520, ReceiverID: 2, // RIP's port
		Conn: nw.Endpoint("routerB"), FeedbackDest: transport.MemAddr("routerA"),
		OnUpdate: func(key string, value []byte, version uint64, _ float64) {
			mu.Lock()
			installed[key] = string(value)
			mu.Unlock()
		},
		OnExpire: func(key string) {
			mu.Lock()
			delete(installed, key)
			mu.Unlock()
			fmt.Printf("  route timed out: %s\n", key)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer neighbor.Close()
	neighbor.Start()

	count := func() int { mu.Lock(); defer mu.Unlock(); return len(installed) }

	runRouter := func(label string, changes int) *sstp.Sender {
		router, err := sstp.NewSender(sstp.SenderConfig{
			Session: 520, SenderID: 1,
			Conn: nw.Endpoint("routerA"), Dest: transport.MemAddr("routerB"),
			TotalRate:       64_000,
			SummaryInterval: 100 * time.Millisecond,
			TTL:             2 * time.Second, // routes expire 2 s after refreshes stop
		})
		if err != nil {
			log.Fatal(err)
		}
		router.Start()
		rt := workload.NewRoutingTable(32, 4, 0.15, 1e9, xrand.New(9))
		for _, ev := range rt.InitialEvents() {
			_ = router.Publish(ev.Key, ev.Value, 0)
		}
		for i := 0; i < changes; i++ {
			ev, _ := rt.Next()
			switch ev.Op {
			case workload.OpPut:
				_ = router.Publish(ev.Key, ev.Value, 0)
			case workload.OpDelete:
				router.Delete(ev.Key)
			}
		}
		fmt.Printf("%s: announcing %d routes\n", label, router.Len())
		return router
	}

	router := runRouter("routerA up", 10)
	waitUntil(10*time.Second, func() bool { return count() == router.Len() })
	fmt.Printf("neighbor installed %d routes\n", count())
	printSample(installed, &mu)

	// Crash the router: no goodbye reaches anyone in a real crash, so
	// just stop refreshing. Soft state cleans itself up.
	fmt.Println("\nrouterA crashes (refreshes stop)…")
	nw.SetLoss("routerA", "routerB", 1) // crash: nothing gets out
	router.Close()
	waitUntil(10*time.Second, func() bool { return count() == 0 })
	fmt.Printf("neighbor's table drained to %d routes, with no teardown protocol\n", count())

	// Reboot: announcements simply resume and state re-forms.
	fmt.Println("\nrouterA reboots…")
	nw.SetLoss("routerA", "routerB", 0.05)
	router2 := runRouter("routerA up again", 0)
	defer router2.Close()
	waitUntil(15*time.Second, func() bool { return count() == router2.Len() })
	fmt.Printf("neighbor re-installed %d routes through normal protocol operation\n", count())
}

func waitUntil(d time.Duration, cond func() bool) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func printSample(installed map[string]string, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	var keys []string
	for k := range installed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 3 {
			fmt.Printf("  … and %d more\n", len(keys)-3)
			break
		}
		fmt.Printf("  %s -> %s\n", k, installed[k])
	}
}
