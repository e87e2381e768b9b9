package sstp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"softstate/internal/protocol"
	"softstate/internal/transport"
)

// TestCoalescedDeliverySequencePin pins the batching equivalence the
// wire format promises: a run of records coalesced into DataBatch
// datagrams produces exactly the delivery sequence (keys, versions,
// values, in order) that the same records produce as one-record
// datagrams.
func TestCoalescedDeliverySequencePin(t *testing.T) {
	records := make([]protocol.Data, 12)
	for i := range records {
		records[i] = protocol.Data{
			Key:   fmt.Sprintf("g%d/k%02d", i%3, i),
			Ver:   uint64(i + 1),
			TTLms: 10_000,
			Value: []byte(fmt.Sprintf("value-%02d", i)),
		}
	}
	type delivery struct {
		key string
		ver uint64
		val string
	}
	run := func(batched bool) []delivery {
		nw := transport.NewMemNetwork(11)
		tx := nw.Endpoint("tx")
		rx := nw.Endpoint("rx")
		var mu sync.Mutex
		var got []delivery
		r, err := NewReceiver(ReceiverConfig{
			Session: 9, ReceiverID: 2,
			Conn: rx, DisableFeedback: true,
			Stripes: 4,
			OnUpdate: func(key string, value []byte, ver uint64, _ float64) {
				mu.Lock()
				got = append(got, delivery{key, ver, string(value)})
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		defer r.Close()
		hdr := protocol.Header{Session: 9, Sender: 1, Scope: 8}
		if batched {
			const per = 4
			for i := 0; i < len(records); i += per {
				hdr.Seq++
				var frames []byte
				n := 0
				for j := i; j < i+per && j < len(records); j++ {
					frames = protocol.AppendBatchRecord(frames, &records[j])
					n++
				}
				pkt := protocol.AppendBatchDatagram(nil, hdr, n, frames)
				if _, err := tx.WriteTo(pkt, transport.MemAddr("rx")); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := range records {
				hdr.Seq++
				pkt := protocol.AppendEncode(nil, hdr, &records[i])
				if _, err := tx.WriteTo(pkt, transport.MemAddr("rx")); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, 3*time.Second, "all deliveries", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) >= len(records)
		})
		mu.Lock()
		defer mu.Unlock()
		return append([]delivery(nil), got...)
	}
	single := run(false)
	coalesced := run(true)
	if !reflect.DeepEqual(single, coalesced) {
		t.Fatalf("delivery sequences diverge:\nsingle:    %v\ncoalesced: %v", single, coalesced)
	}
	for i, d := range single {
		want := delivery{records[i].Key, records[i].Ver, string(records[i].Value)}
		if d != want {
			t.Fatalf("delivery %d = %v, want %v", i, d, want)
		}
	}
}

// TestStripedSenderReceiverConvergence runs a 4-stripe coalescing
// sender against a 1-stripe receiver and pins two properties: the
// striped sender's live root digest is byte-identical to an unsharded
// sender holding the same records, and the mismatched-stripe pair
// still converges to digest equality over the wire.
func TestStripedSenderReceiverConvergence(t *testing.T) {
	nw := transport.NewMemNetwork(21)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       2_000_000,
		SummaryInterval: 60 * time.Millisecond,
		TTL:             30 * time.Second,
		Seed:            1,
		Stripes:         4,
		CoalesceRecords: 8,
		BatchDatagrams:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unsharded reference: never started, only holds the same records.
	refNW := transport.NewMemNetwork(22)
	ref, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: refNW.Endpoint("ref"), Dest: transport.MemAddr("nowhere"),
		TotalRate: 2_000_000,
		TTL:       30 * time.Second,
		Seed:      1,
		Stripes:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2,
		Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		ReportInterval: 150 * time.Millisecond,
		NACKWindow:     30 * time.Millisecond,
		Stripes:        1,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close(); ref.Close() })

	const n = 120
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("t%d/m%d/k%02d", i%7, i%3, i)
		val := []byte(fmt.Sprintf("payload-%03d", i))
		if err := s.Publish(key, val, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := ref.Publish(key, val, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.RootDigest(), ref.RootDigest(); got != want {
		t.Fatalf("striped sender root %x != unsharded root %x", got, want)
	}
	if s.Len() != n {
		t.Fatalf("striped sender Len = %d, want %d", s.Len(), n)
	}

	s.Start()
	r.Start()
	waitFor(t, 10*time.Second, "striped convergence", func() bool { return converged(s, r) })
	if r.Len() != n {
		t.Fatalf("receiver Len = %d, want %d", r.Len(), n)
	}
	if got, want := r.RootDigest(), ref.RootDigest(); got != want {
		t.Fatalf("receiver root %x != unsharded root %x", got, want)
	}
	st := s.Stats()
	if st.DataSent < n {
		t.Fatalf("sender DataSent = %d, want >= %d", st.DataSent, n)
	}
}

// TestStripedReceiverAgainstUnshardedSender flips the mismatch: a
// default (unsharded, uncoalesced) sender against a 4-stripe receiver
// must converge to the same root digest.
func TestStripedReceiverAgainstUnshardedSender(t *testing.T) {
	nw := transport.NewMemNetwork(31)
	sc := nw.Endpoint("sender")
	rc := nw.Endpoint("rcv")
	s, err := NewSender(SenderConfig{
		Session: 7, SenderID: 1,
		Conn: sc, Dest: transport.MemAddr("rcv"),
		TotalRate:       1_000_000,
		SummaryInterval: 60 * time.Millisecond,
		TTL:             30 * time.Second,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(ReceiverConfig{
		Session: 7, ReceiverID: 2,
		Conn: rc, FeedbackDest: transport.MemAddr("sender"),
		ReportInterval: 150 * time.Millisecond,
		NACKWindow:     30 * time.Millisecond,
		Stripes:        4,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); r.Close() })
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("a%d/k%02d", i%5, i)
		if err := s.Publish(key, []byte(fmt.Sprintf("v%d", i)), 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s.Start()
	r.Start()
	waitFor(t, 10*time.Second, "mixed-stripe convergence", func() bool { return converged(s, r) })
	if r.Len() != 60 {
		t.Fatalf("receiver Len = %d, want 60", r.Len())
	}
}
