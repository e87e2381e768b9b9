package sstp

import (
	"fmt"
	"testing"
	"time"

	"softstate/internal/transport"
)

// benchSender builds a publisher with n live records and no running
// loops, so the announcement hot path can be driven synchronously.
func benchSender(b *testing.B, n int) *Sender {
	b.Helper()
	nw := transport.NewMemNetwork(1)
	sc := nw.Endpoint("sender")
	s, err := NewSender(SenderConfig{
		Session: 1, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("sink"),
		TotalRate: 1e9,
		TTL:       time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("g%d/k%d", i%64, i)
		if err := s.Publish(key, benchValue, 0); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

var benchValue = make([]byte, 512)

// BenchmarkSenderNextAnnouncement is the sender's per-datagram hot
// path: sweep, scheduler pick, wire encode. The announcement cycles
// hot -> cold so every iteration does real work.
func BenchmarkSenderNextAnnouncement(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchSender(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, ok := s.nextDatagram()
				if !ok || len(buf) == 0 {
					b.Fatal("no announcement")
				}
			}
		})
	}
}

// BenchmarkSenderEncodeSend is the full encode -> socket write path
// over the in-memory network (the WriteTo copy is the datagram fan-out
// cost a UDP kernel write would also pay).
func BenchmarkSenderEncodeSend(b *testing.B) {
	s := benchSender(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, ok := s.nextDatagram()
		if !ok {
			b.Fatal("no announcement")
		}
		if _, err := s.cfg.Conn.WriteTo(buf, s.cfg.Dest); err != nil {
			b.Fatal(err)
		}
	}
}
