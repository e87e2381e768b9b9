package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func sampleBatch() *DataBatch {
	return &DataBatch{Records: []Data{
		{Key: "g/a", Ver: 1, TTLms: 5000, BornMs: 1700000000001, Value: []byte("alpha")},
		{Key: "g/b", Ver: 2, TTLms: 5000, Value: nil},
		{Key: "h/c", Ver: 3, Deleted: true},
	}}
}

func TestDataBatchRoundTrip(t *testing.T) {
	in := sampleBatch()
	out := roundTrip(t, testHdr, in).(*DataBatch)
	if len(out.Records) != len(in.Records) {
		t.Fatalf("record count = %d, want %d", len(out.Records), len(in.Records))
	}
	for i := range in.Records {
		a, b := &in.Records[i], &out.Records[i]
		if a.Key != b.Key || a.Ver != b.Ver || a.TTLms != b.TTLms ||
			a.BornMs != b.BornMs || !bytes.Equal(a.Value, b.Value) || a.Deleted != b.Deleted {
			t.Errorf("record %d: got %+v, want %+v", i, b, a)
		}
	}
}

// TestAppendBatchDatagramMatchesEncode pins the incremental packing
// path byte-identical to encoding a DataBatch struct: senders build
// datagrams with AppendBatchRecord/AppendBatchDatagram and must be
// indistinguishable on the wire.
func TestAppendBatchDatagramMatchesEncode(t *testing.T) {
	in := sampleBatch()
	want := Encode(testHdr, in)

	var frames []byte
	for i := range in.Records {
		frames = AppendBatchRecord(frames, &in.Records[i])
	}
	got := AppendBatchDatagram(nil, testHdr, len(in.Records), frames)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBatchDatagram = %x\nEncode           = %x", got, want)
	}
}

// TestBatchRecordSize pins the MTU-budget arithmetic to the actual
// encoded size of a frame.
func TestBatchRecordSize(t *testing.T) {
	for _, rec := range sampleBatch().Records {
		frame := AppendBatchRecord(nil, &rec)
		if want := BatchRecordSize(len(rec.Key), len(rec.Value)); len(frame) != want {
			t.Errorf("key %q: frame %d bytes, BatchRecordSize says %d", rec.Key, len(frame), want)
		}
	}
}

func TestDataBatchDecodeErrors(t *testing.T) {
	valid := Encode(testHdr, sampleBatch())

	// Empty batch is malformed: a sender with one record uses TypeData.
	empty := AppendBatchDatagram(nil, testHdr, 0, nil)
	if _, _, err := Decode(empty); err != ErrBadPayload {
		t.Errorf("empty batch err = %v, want %v", err, ErrBadPayload)
	}

	// Count beyond MaxBatch.
	over := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(over[headerLen:], MaxBatch+1)
	if _, _, err := Decode(over); err != ErrOversize {
		t.Errorf("oversize count err = %v, want %v", err, ErrOversize)
	}

	// Truncated mid-frame.
	if _, _, err := Decode(valid[:len(valid)-3]); err != ErrShort {
		t.Errorf("truncated err = %v, want %v", err, ErrShort)
	}

	// Trailing bytes after the last frame.
	if _, _, err := Decode(append(append([]byte(nil), valid...), 0)); err != ErrTrailing {
		t.Errorf("trailing err = %v, want %v", err, ErrTrailing)
	}

	// Count larger than the frames present.
	short := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(short[headerLen:], uint16(len(sampleBatch().Records)+1))
	if _, _, err := Decode(short); err != ErrShort {
		t.Errorf("undercounted err = %v, want %v", err, ErrShort)
	}
}

// TestBatchRecordsAreIndependentADUs: each frame inside a batch decodes
// to exactly what the same record would decode to as a standalone Data
// datagram (the ALF framing property coalescing must preserve).
func TestBatchRecordsAreIndependentADUs(t *testing.T) {
	in := sampleBatch()
	_, m, err := Decode(Encode(testHdr, in))
	if err != nil {
		t.Fatal(err)
	}
	batch := m.(*DataBatch)
	for i := range in.Records {
		_, sm, err := Decode(Encode(testHdr, &in.Records[i]))
		if err != nil {
			t.Fatalf("record %d standalone: %v", i, err)
		}
		single := sm.(*Data)
		got := &batch.Records[i]
		if single.Key != got.Key || single.Ver != got.Ver || single.TTLms != got.TTLms ||
			single.BornMs != got.BornMs || !bytes.Equal(single.Value, got.Value) || single.Deleted != got.Deleted {
			t.Errorf("record %d: batched %+v != standalone %+v", i, got, single)
		}
	}
}

// TestEncodeSingleAlloc pins the satellite fix: Encode routes through
// AppendEncode with a pooled scratch buffer, so its only allocation is
// the returned datagram.
func TestEncodeSingleAlloc(t *testing.T) {
	msg := &Data{Key: "sessions/audio/42", Ver: 9, TTLms: 30000, Value: make([]byte, 512)}
	allocs := testing.AllocsPerRun(200, func() {
		Encode(testHdr, msg)
	})
	if allocs != 1 {
		t.Errorf("Encode: %v allocs/op, want 1", allocs)
	}
}

// TestAppendBatchZeroAlloc pins the packing loop's hot-path contract:
// once its buffers have grown, a Packer allocates nothing, carried
// frames included.
func TestAppendBatchZeroAlloc(t *testing.T) {
	recs := append(sampleBatch().Records, sized("big", packBudget-60))
	p := &Packer{Max: MaxBatch}
	out := make([]byte, 0, 4096)
	pack := func() {
		for i := range recs {
			p.Add(&recs[i])
			if p.Full() {
				out = p.Seal(out[:0], testHdr)
			}
		}
		out = p.Seal(out[:0], testHdr)
	}
	pack()
	if allocs := testing.AllocsPerRun(100, pack); allocs != 0 {
		t.Errorf("packing into grown buffers: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkProtocolBatchPack(b *testing.B) {
	recs := make([]Data, 32)
	for i := range recs {
		recs[i] = Data{Key: "load/000/12345", Ver: uint64(i), TTLms: 30000, Value: make([]byte, 64)}
	}
	frames := make([]byte, 0, 8192)
	out := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frames = frames[:0]
		for j := range recs {
			frames = AppendBatchRecord(frames, &recs[j])
		}
		out = AppendBatchDatagram(out[:0], testHdr, len(recs), frames)
	}
	_ = out
}

func BenchmarkProtocolBatchDecode(b *testing.B) {
	recs := make([]Data, 32)
	for i := range recs {
		recs[i] = Data{Key: "load/000/12345", Ver: uint64(i), TTLms: 30000, Value: make([]byte, 64)}
	}
	buf := Encode(testHdr, &DataBatch{Records: recs})
	dec := NewDecoder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// packAll runs recs through p the way a serving loop does — Add, Seal
// when Full, Seal the rest — and returns the datagrams.
func packAll(p *Packer, recs []Data) [][]byte {
	var out [][]byte
	for i := range recs {
		p.Add(&recs[i])
		if p.Full() {
			out = append(out, p.Seal(nil, testHdr))
		}
	}
	if p.Len() > 0 {
		out = append(out, p.Seal(nil, testHdr))
	}
	return out
}

// sized returns a live record whose batch frame is exactly frame bytes.
func sized(name string, frame int) Data {
	return Data{Key: name, Ver: 7, TTLms: 3000, BornMs: 1700000000123,
		Value: bytes.Repeat([]byte{'v'}, frame-BatchRecordSize(len(name), 0))}
}

// TestPacker pins how records split into datagrams and that each
// datagram is byte-identical to encoding the same records as a Data
// (one record) or a DataBatch (several).
func TestPacker(t *testing.T) {
	small := func(name string) Data { return sized(name, 40) }
	for _, tc := range []struct {
		name   string
		max    int
		recs   []Data
		groups []int // records per datagram, in order
	}{
		{"none", MaxBatch, nil, nil},
		{"one", MaxBatch, []Data{small("a")}, []int{1}},
		{"two", MaxBatch, []Data{small("a"), {Key: "b", Ver: 2, Deleted: true}}, []int{2}},
		{"cap", 3, []Data{small("a"), small("b"), small("c"), small("d"), small("e")}, []int{3, 2}},
		{"zero value packs one", 0, []Data{small("a"), small("b")}, []int{1, 1}},
		{"frame at budget", MaxBatch, []Data{sized("a", packBudget), small("b")}, []int{1, 1}},
		{"two fill budget", MaxBatch, []Data{sized("a", packBudget-40), small("b"), small("c")}, []int{2, 1}},
		{"one byte over", MaxBatch, []Data{sized("a", packBudget-39), small("b")}, []int{1, 1}},
		{"oversize first", MaxBatch, []Data{sized("a", 3*MTU), small("b"), small("c")}, []int{1, 2}},
		{"oversize after others", MaxBatch, []Data{small("a"), small("b"), sized("c", 3*MTU), small("d")}, []int{2, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Packer{Max: tc.max}
			got := packAll(p, tc.recs)
			if len(got) != len(tc.groups) {
				t.Fatalf("%d datagrams, want %d", len(got), len(tc.groups))
			}
			at := 0
			for i, n := range tc.groups {
				var msg Message = &tc.recs[at]
				if n > 1 {
					msg = &DataBatch{Records: tc.recs[at : at+n]}
				}
				if want := AppendEncode(nil, testHdr, msg); !bytes.Equal(got[i], want) {
					t.Errorf("datagram %d (%d records):\n got  %x\n want %x", i, n, got[i], want)
				}
				if n > 1 && len(got[i]) > MTU {
					t.Errorf("datagram %d: %d records in %d bytes, over the %d-byte MTU", i, n, len(got[i]), MTU)
				}
				at += n
			}
		})
	}
}
