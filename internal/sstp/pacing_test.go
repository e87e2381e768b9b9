package sstp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"softstate/internal/protocol"
	"softstate/internal/transport"
)

// stampedValue is a size-byte value whose first four bytes carry
// stamp, so a wire tap can tell which publish a record came from.
func stampedValue(stamp uint32, size int) []byte {
	v := make([]byte, size)
	binary.BigEndian.PutUint32(v, stamp)
	return v
}

// wireTap drains a MemConn and notes when the first datagram carrying
// each non-zero value stamp arrived, and how many distinct keys it has
// seen.
type wireTap struct {
	mu    sync.Mutex
	first map[uint32]time.Time
	keys  map[string]bool
}

func startWireTap(c *transport.MemConn) *wireTap {
	tap := &wireTap{first: make(map[uint32]time.Time), keys: make(map[string]bool)}
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := c.ReadFrom(buf)
			if err != nil {
				return // conn closed
			}
			now := time.Now()
			_, msg, err := protocol.Decode(buf[:n])
			if err != nil {
				continue
			}
			var recs []protocol.Data
			switch m := msg.(type) {
			case *protocol.Data:
				recs = []protocol.Data{*m}
			case *protocol.DataBatch:
				recs = m.Records
			}
			tap.mu.Lock()
			for _, r := range recs {
				tap.keys[r.Key] = true
				if len(r.Value) < 4 {
					continue
				}
				if stamp := binary.BigEndian.Uint32(r.Value); stamp != 0 && tap.first[stamp].IsZero() {
					tap.first[stamp] = now
				}
			}
			tap.mu.Unlock()
		}
	}()
	return tap
}

func (w *wireTap) seenKeys() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.keys)
}

func (w *wireTap) firstSeen(stamp uint32) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.first[stamp]
	return at, ok
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestHotUpdateNotParkedBehindBatch is the pace-before-pick pin: on a
// 1 Mbit/s link with a 16-datagram batch bound and a 1024-record table
// cycling in the cold queue, a fresh update must reach the wire within
// a datagram time or two. When the loop picked a full batch and then
// slept off its 179 ms of link time, the median was ~270 ms.
func TestHotUpdateNotParkedBehindBatch(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	tx := nw.Endpoint("tx")
	rx := nw.Endpoint("rx")
	defer rx.Close()
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1, Conn: tx, Dest: transport.MemAddr("rx"),
		TotalRate:       1e6,
		BatchDatagrams:  16,
		CoalesceRecords: 32,
		TTL:             30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const table = 1024
	for i := 0; i < table; i++ {
		if err := s.Publish(fmt.Sprintf("load/%03d/%d", i%256, i), stampedValue(0, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	tap := startWireTap(rx)
	s.Start()
	defer s.Close()
	waitFor(t, 10*time.Second, "first pass over the table", func() bool { return tap.seenKeys() == table })

	const updates = 50
	published := make([]time.Time, updates)
	for i := 0; i < updates; i++ {
		time.Sleep(40 * time.Millisecond)
		key := fmt.Sprintf("load/%03d/%d", (i*37)%256, (i*37)%table)
		published[i] = time.Now()
		if err := s.Publish(key, stampedValue(uint32(i+1), 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "every update on the wire", func() bool {
		_, ok := tap.firstSeen(updates)
		return ok
	})
	var gaps []time.Duration
	for i, at := range published {
		if seen, ok := tap.firstSeen(uint32(i + 1)); ok {
			gaps = append(gaps, seen.Sub(at))
		}
	}
	if len(gaps) < updates*9/10 {
		t.Fatalf("only %d of %d updates seen on the wire", len(gaps), updates)
	}
	if med := medianDuration(gaps); med >= 40*time.Millisecond {
		t.Errorf("median publish→wire gap %v, want < 40ms", med)
	}
}

// TestIdlePublishSentPromptly: a Publish into an idle sender must wake
// the send loop rather than wait out its 20 ms nap.
func TestIdlePublishSentPromptly(t *testing.T) {
	nw := transport.NewMemNetwork(1)
	tx := nw.Endpoint("tx")
	rx := nw.Endpoint("rx")
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1, Conn: tx, Dest: transport.MemAddr("rx"),
		TotalRate:       1e6,
		SummaryInterval: time.Hour,
		NoRetransmit:    true, // one transmission per version: idle between publishes
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	buf := make([]byte, 2048)
	var gaps []time.Duration
	for i := 0; i < 21; i++ {
		// Land the publish at varying phases of the nap.
		time.Sleep(time.Duration(25+i) * time.Millisecond)
		start := time.Now()
		if err := s.Publish("k", stampedValue(uint32(i+1), 64), 0); err != nil {
			t.Fatal(err)
		}
		_ = rx.SetReadDeadline(start.Add(time.Second))
		if _, _, err := rx.ReadFrom(buf); err != nil {
			t.Fatalf("publish %d never reached the wire: %v", i, err)
		}
		gaps = append(gaps, time.Since(start))
	}
	if med := medianDuration(gaps); med >= 5*time.Millisecond {
		t.Errorf("median idle publish→wire gap %v, want < 5ms (an unwakeable nap gives ~10ms)", med)
	}
}

// countConn is a sender-side wire that records every write (when, how
// big) and delivers nothing: a link fast enough never to be the
// bottleneck, so what it sees is the pacer's doing alone.
type countConn struct {
	*transport.MemConn
	mu    sync.Mutex
	at    []time.Time
	bytes []int
}

func (c *countConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.bytes = append(c.bytes, len(b))
	c.mu.Unlock()
	return len(b), nil
}

// bitsBetween sums the bits written in [from, to).
func (c *countConn) bitsBetween(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	bits := 0
	for i, at := range c.at {
		if !at.Before(from) && at.Before(to) {
			bits += 8 * c.bytes[i]
		}
	}
	return float64(bits)
}

// maxWindowBits returns the most bits written within any span of the
// given length, counting writes at or after from.
func (c *countConn) maxWindowBits(from time.Time, window time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	max, sum, j := 0, 0, 0
	for i, at := range c.at {
		if at.Before(from) {
			j = i + 1
			continue
		}
		sum += 8 * c.bytes[i]
		for at.Sub(c.at[j]) >= window {
			sum -= 8 * c.bytes[j]
			j++
		}
		if sum > max {
			max = sum
		}
	}
	return float64(max)
}

// TestPacedRateConformance: paying for datagrams after the fact (gate
// on a positive balance, charge the true size, repay the overdraft)
// must still hold the configured rate exactly in the long run, and a
// burst after idling must stay inside the token bucket's envelope.
func TestPacedRateConformance(t *testing.T) {
	const (
		nb       = 16
		depth    = 4 * nb * 8 * 1500 // the sender's bucket depth in bits
		overdraw = 8 * 1500          // at most one datagram of debt
	)
	for _, rate := range []float64{1e6, 50e6} {
		t.Run(fmt.Sprintf("%.0fMbit", rate/1e6), func(t *testing.T) {
			newSender := func(noRetransmit bool) (*Sender, *countConn) {
				conn := &countConn{MemConn: transport.NewMemNetwork(1).Endpoint("tx")}
				s, err := NewSender(SenderConfig{
					Session: 7, SenderID: 1, Conn: conn, Dest: transport.MemAddr("rx"),
					TotalRate:       rate,
					BatchDatagrams:  nb,
					CoalesceRecords: 32,
					SummaryInterval: 200 * time.Millisecond,
					NoRetransmit:    noRetransmit,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s, conn
			}

			// Long run: a table cycling in the cold queue keeps the
			// loop backlogged; skip the initial full-bucket burst.
			s, conn := newSender(false)
			for i := 0; i < 256; i++ {
				if err := s.Publish(fmt.Sprintf("k/%d", i), stampedValue(0, 1000), 0); err != nil {
					t.Fatal(err)
				}
			}
			s.Start()
			time.Sleep(300 * time.Millisecond)
			from := time.Now()
			time.Sleep(2 * time.Second)
			to := time.Now()
			s.Close()
			got := conn.bitsBetween(from, to) / to.Sub(from).Seconds()
			if got < 0.95*rate || got > 1.05*rate {
				t.Errorf("long-run rate %.0f bit/s, want %.0f ±5%%", got, rate)
			}

			// Burst: idle for a second so the bucket fills, then hand
			// the loop more than a bucket's worth at once.
			s, conn = newSender(true)
			s.Start()
			defer s.Close()
			time.Sleep(time.Second)
			backlog := int((depth+rate*0.3)/8/1000) + 1 // ≥ 0.3 s of sending, in 1000 B records
			from = time.Now()
			for i := 0; i < backlog; i++ {
				if err := s.Publish(fmt.Sprintf("b/%d", i), stampedValue(0, 1000), 0); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 10*time.Second, "backlog drained", func() bool { return s.Stats().DataSent >= backlog })
			const window = 100 * time.Millisecond
			quantum := rate * 1e-3
			// Writes are timed a little after their tokens were taken,
			// so allow 5% for skew on top of the exact envelope.
			limit := 1.05 * (depth + rate*window.Seconds() + quantum + overdraw)
			if got := conn.maxWindowBits(from, window); got > limit {
				t.Errorf("%.0f bits in one %v window after idling, bucket envelope is %.0f", got, window, limit)
			}
		})
	}
}

// TestFullBatchesWhenBucketIsNotTheBottleneck: at a rate the bucket
// never holds the loop back, pacing before picking must not shrink the
// sendmmsg batch — the amortisation BatchDatagrams exists for.
func TestFullBatchesWhenBucketIsNotTheBottleneck(t *testing.T) {
	conn := &countConn{MemConn: transport.NewMemNetwork(1).Endpoint("tx")}
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1, Conn: conn, Dest: transport.MemAddr("rx"),
		TotalRate:       400e6,
		BatchDatagrams:  16,
		CoalesceRecords: 32,
		SummaryInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := s.Publish(fmt.Sprintf("g%03d/k%d", i%256, i), stampedValue(0, 32), 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	time.Sleep(300 * time.Millisecond)
	s.Close()
	st := s.Stats()
	if st.BatchesSent == 0 {
		t.Fatal("no batches written")
	}
	if per := float64(st.DatagramsSent) / float64(st.BatchesSent); per < 8 {
		t.Errorf("%.1f datagrams per WriteBatch (%d in %d), want ≥ 8 of 16",
			per, st.DatagramsSent, st.BatchesSent)
	}
}
