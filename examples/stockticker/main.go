// Stock ticker: PointCast-style quote dissemination — inherently
// "soft" data where the newest value supersedes the old — published
// over SSTP at high update rates, demonstrating the consistency
// metric converging and the benefit of feedback.
//
// The example runs the same feed twice, once with feedback disabled
// (pure announce/listen) and once with NACK repair, and reports the
// measured replica consistency of each — a live miniature of the
// paper's Figure 9 claim.
//
//	go run ./examples/stockticker
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
	"softstate/internal/workload"
	"softstate/internal/xrand"
)

func main() {
	for _, feedbackOn := range []bool{false, true} {
		during, settled := runFeed(feedbackOn)
		mode := "open-loop (no feedback)"
		if feedbackOn {
			mode = "with NACK feedback   "
		}
		fmt.Printf("%s: consistency %.1f%% during the feed, %.1f%% after 2s settle\n",
			mode, 100*during, 100*settled)
	}
}

// runFeed publishes six seconds of Zipf-skewed quote updates over a
// 30%-lossy channel and returns the fraction of symbols whose replica
// matches the publisher, time-averaged over the second half of the
// feed (where feedback shines — lost updates stay stale until the
// slow cold cycle re-announces them) and once more after a 2 s settle
// (where announce/listen redundancy has caught up for both).
func runFeed(feedback bool) (during, settled float64) {
	nw := transport.NewMemNetwork(11)
	nw.SetLoss("feed", "desk", 0.50)
	nw.SetLoss("desk", "feed", 0.05)

	pub, err := sstp.NewSender(sstp.SenderConfig{
		Session: 2, SenderID: 1,
		Conn: nw.Endpoint("feed"), Dest: transport.MemAddr("desk"),
		TotalRate:       20_000,
		HotFraction:     0.95, // cold cycle is slow: repair must come from NACKs
		SummaryInterval: 100 * time.Millisecond,
		TTL:             30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pub.Close()
	sub, err := sstp.NewReceiver(sstp.ReceiverConfig{
		Session: 2, ReceiverID: 2,
		Conn: nw.Endpoint("desk"), FeedbackDest: transport.MemAddr("feed"),
		DisableFeedback: !feedback,
		NACKWindow:      50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	pub.Start()
	sub.Start()

	gen := workload.NewStockTicker(40, 20, 6, xrand.New(5)) // 20 quotes/s for 6 s
	start := time.Now()
	quotes := 0
	var samples []float64
	nextSample := 3 * time.Second
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		if wait := time.Duration(ev.At*float64(time.Second)) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(start) >= nextSample {
			samples = append(samples, compare(pub, sub))
			nextSample += 250 * time.Millisecond
		}
		if err := pub.Publish(ev.Key, ev.Value, 0); err == nil {
			quotes++
		}
	}
	for _, v := range samples {
		during += v
	}
	if len(samples) > 0 {
		during /= float64(len(samples))
	}
	// Let repair (or cold cycling) settle briefly after the burst.
	time.Sleep(2 * time.Second)
	settled = compare(pub, sub)

	st := sub.Stats()
	fmt.Printf("  published %d quotes across %d symbols; receiver saw %d updates, sent %d NACKs, loss≈%.0f%%\n",
		quotes, len(pub.Snapshot()), st.DataReceived, st.NACKsSent, 100*st.LossEstimate)
	return during, settled
}

// compare returns the fraction of publisher records whose replica
// value matches byte-for-byte.
func compare(pub *sstp.Sender, sub *sstp.Receiver) float64 {
	pubSnap := pub.Snapshot()
	subSnap := sub.Snapshot()
	if len(pubSnap) == 0 {
		return 0
	}
	match := 0
	for k, v := range pubSnap {
		if bytes.Equal(subSnap[k], v) {
			match++
		}
	}
	return float64(match) / float64(len(pubSnap))
}
