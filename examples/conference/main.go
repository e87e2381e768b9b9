// Conference: a light-weight-sessions conferencing control channel —
// the application family (vat/vic/wb) whose announce/listen design the
// paper generalizes — publishing three classes of soft state with
// Figure-12 hierarchical bandwidth allocation:
//
//	membership/  (who is in the session)        55% of data bandwidth
//	media/       (stream descriptions, codecs)  30%
//	whiteboard/  (drawing-op summaries, bulky)  15%
//
// The example saturates all three classes over a lossy link, then
// shows (a) the realized per-class announcement shares honour the
// tree, and (b) a participant's membership entry disappears by itself
// after they crash — no teardown protocol.
//
//	go run ./examples/conference
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func main() {
	nw := transport.NewMemNetwork(17)
	nw.SetLoss("mixer", "member", 0.15)

	mixer, err := sstp.NewSender(sstp.SenderConfig{
		Session: 5004, SenderID: 1,
		Conn: nw.Endpoint("mixer"), Dest: transport.MemAddr("member"),
		TotalRate:       128_000,
		SummaryInterval: 150 * time.Millisecond,
		TTL:             10 * time.Second, // must exceed the slowest refresh lap
		Classes: []sstp.Class{
			{Name: "membership", Weight: 0.55},
			{Name: "media", Weight: 0.30},
			{Name: "whiteboard", Weight: 0.15},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mixer.Close()

	member, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 5004, ReceiverID: 2,
		Conn: nw.Endpoint("member"), FeedbackDest: transport.MemAddr("mixer"),
		OnExpire: func(key string) {
			fmt.Printf("  timed out: %s\n", key)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer member.Close()

	mixer.Start()
	member.Start()

	// Publish the session state: members, media descriptions, and a
	// batch of (bulky) whiteboard page summaries.
	names := []string{"ada", "grace", "edsger", "barbara", "donald"}
	for _, n := range names {
		_ = mixer.Publish("membership/"+n, []byte("cname="+n+"@example.net"), 0)
	}
	_ = mixer.Publish("media/audio", []byte("pcmu/8000, 64 kb/s"), 0)
	_ = mixer.Publish("media/video", []byte("h261/90000, qcif"), 0)
	for p := 0; p < 12; p++ {
		page := bytes.Repeat([]byte("stroke;"), 100)
		_ = mixer.Publish(fmt.Sprintf("whiteboard/page%02d", p), page, 0)
	}

	// Let the session run; refreshes cycle continuously.
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if mixer.RootDigest() == member.RootDigest() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("member synced: %d entries\n", member.Len())

	time.Sleep(2 * time.Second) // steady-state refresh cycling
	st := mixer.Stats()
	total := 0
	for _, n := range st.BytesByClass {
		total += n
	}
	fmt.Println("bandwidth shares by class (weights 0.55/0.30/0.15):")
	for _, cl := range []string{"membership", "media", "whiteboard"} {
		fmt.Printf("  %-11s %4d announcements, %6d bytes (%.0f%% of bytes)\n",
			cl, st.SentByClass[cl], st.BytesByClass[cl],
			100*float64(st.BytesByClass[cl])/float64(total))
	}

	// ada's machine crashes: her membership record is deleted at the
	// mixer (it would expire on its own there too), and the member's
	// replica times out through the normal soft-state machinery.
	fmt.Println("\nada crashes; her membership state expires everywhere…")
	mixer.Delete("membership/ada")
	time.Sleep(1 * time.Second)
	if _, ok := member.Get("membership/ada"); ok {
		fmt.Println("  (still propagating…)")
		time.Sleep(3 * time.Second)
	}
	if _, ok := member.Get("membership/ada"); !ok {
		fmt.Println("member no longer lists ada — with no teardown round-trip")
	}
	fmt.Printf("remaining entries: %d\n", member.Len())
}
