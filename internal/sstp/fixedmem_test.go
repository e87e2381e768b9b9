//go:build !race

package sstp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"softstate/internal/transport"
)

// heapInuse is the heap in use after the sync.Pool caches have been
// flushed (a pooled object survives one collection in the victim
// cache, so it takes two).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestIdleSessionFixedMemory guards what a quiet session costs: 64
// converged mem:// sender/receiver pairs holding 8 records each must
// add at most 320 KiB of heap per pair. Nearly all of that is fixed
// per-endpoint memory — read buffers, inboxes, decoders — not data.
// (It runs only without the race detector, whose runtime inflates
// the heap.)
func TestIdleSessionFixedMemory(t *testing.T) {
	const (
		pairs   = 64
		records = 8
		budget  = 320 << 10
	)
	base := heapInuse()
	nw := transport.NewMemNetwork(11)
	senders := make([]*Sender, pairs)
	receivers := make([]*Receiver, pairs)
	t.Cleanup(func() {
		// Each Close waits out its read loop's poll; do them at once.
		var wg sync.WaitGroup
		for i := range senders {
			if senders[i] == nil {
				continue
			}
			wg.Add(1)
			go func(s *Sender, r *Receiver) {
				defer wg.Done()
				s.Close()
				r.Close()
			}(senders[i], receivers[i])
		}
		wg.Wait()
	})
	for i := range senders {
		sname, rname := transport.MemAddr(fmt.Sprintf("s%d", i)), transport.MemAddr(fmt.Sprintf("r%d", i))
		s, err := NewSender(SenderConfig{
			Session: uint64(100 + i), SenderID: 1,
			Conn: nw.Endpoint(sname), Dest: rname,
			TotalRate:       32_000,
			SummaryInterval: 200 * time.Millisecond,
			TTL:             time.Minute,
			Seed:            int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReceiver(ReceiverConfig{
			Session: uint64(100 + i), ReceiverID: 2,
			Conn: nw.Endpoint(rname), FeedbackDest: sname,
			Seed: int64(1000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		senders[i], receivers[i] = s, r
		for k := 0; k < records; k++ {
			if err := s.Publish(fmt.Sprintf("idle/k%d", k), []byte("value"), 0); err != nil {
				t.Fatal(err)
			}
		}
		s.Start()
		r.Start()
	}
	waitFor(t, 30*time.Second, "every pair to converge", func() bool {
		for i := range senders {
			if !converged(senders[i], receivers[i]) {
				return false
			}
		}
		return true
	})
	perPair := (int64(heapInuse()) - int64(base)) / pairs
	t.Logf("idle pair: %d KiB of heap", perPair>>10)
	if perPair > budget {
		t.Fatalf("an idle sender/receiver pair holds %d KiB of heap, budget %d KiB", perPair>>10, budget>>10)
	}
}
