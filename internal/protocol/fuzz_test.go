package protocol

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzSeeds is one datagram per message type (plus a tombstone), the
// shared corpus for both fuzz targets.
func fuzzSeeds() [][]byte {
	hdr := Header{Session: 1, Sender: 2, Seq: 3, Scope: 4}
	var out [][]byte
	for _, m := range oneMessagePerType() {
		out = append(out, Encode(hdr, m))
	}
	// Scope edge values: unscoped (0), last-hop (1), and saturated.
	for _, scope := range []uint8{0, 1, 255} {
		h := hdr
		h.Scope = scope
		out = append(out, Encode(h, &Data{Key: "s", Ver: 1, Value: []byte("v")}))
	}
	return append(out, Encode(hdr, &Data{Key: "k", Deleted: true}))
}

// FuzzDecode drives the decoder with arbitrary datagrams. The decoder
// must never panic, and any datagram it accepts must re-encode and
// re-decode to an identical message (round-trip stability).
func FuzzDecode(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x53, 0x54, 0x50})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, msg, err := Decode(data)
		if err != nil {
			return
		}
		// Accepted datagrams must round-trip exactly.
		re := Encode(h, msg)
		h2, msg2, err2 := Decode(re)
		if err2 != nil {
			t.Fatalf("re-decode failed: %v", err2)
		}
		if h2 != h {
			t.Fatalf("header changed: %+v -> %+v", h, h2)
		}
		if msg2.Type() != msg.Type() {
			t.Fatalf("type changed: %v -> %v", msg.Type(), msg2.Type())
		}
		re2 := Encode(h2, msg2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not stable:\n%x\n%x", re, re2)
		}
	})
}

// FuzzAppendEncode pins the AppendEncode/Encode equivalence: for every
// datagram the decoder accepts, AppendEncode of the decoded message —
// into an empty, a prefixed, and a reused buffer — must be
// byte-identical to Encode, and the re-encoded datagram must decode
// back to the same bytes (AppendEncode → Decode → re-encode is a
// fixed point).
func FuzzAppendEncode(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, msg, err := Decode(data)
		if err != nil {
			return
		}
		want := Encode(h, msg)
		if got := AppendEncode(nil, h, msg); !bytes.Equal(got, want) {
			t.Fatalf("AppendEncode(nil) differs from Encode:\n%x\n%x", got, want)
		}
		prefixed := AppendEncode([]byte{0xAA, 0xBB}, h, msg)
		if !bytes.Equal(prefixed[2:], want) || prefixed[0] != 0xAA || prefixed[1] != 0xBB {
			t.Fatalf("prefixed AppendEncode corrupt: %x", prefixed)
		}
		buf := make([]byte, 0, len(want))
		buf = AppendEncode(buf, h, msg)
		if !bytes.Equal(buf, want) {
			t.Fatalf("sized-buffer AppendEncode differs:\n%x\n%x", buf, want)
		}
		// Decode of the re-encoding must yield the same bytes again.
		h2, msg2, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again := AppendEncode(buf[:0], h2, msg2); !bytes.Equal(again, want) {
			t.Fatalf("re-encode not a fixed point:\n%x\n%x", again, want)
		}
	})
}

// FuzzDecoderReuse pins the live decode path against state left over
// from earlier datagrams: a long-lived Decoder that has just decoded a
// different datagram must return the same header, error and message
// as a fresh Decoder. The seeds cover all nine message types.
func FuzzDecoderReuse(f *testing.F) {
	seeds := fuzzSeeds()
	for _, b := range seeds {
		f.Add(b)
	}
	long := NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = long.Decode(seeds[len(data)%len(seeds)])
		h, msg, err := long.Decode(data)
		h2, msg2, err2 := NewDecoder().Decode(data)
		if h != h2 || err != err2 {
			t.Fatalf("reused decoder: %+v, %v; fresh decoder: %+v, %v", h, err, h2, err2)
		}
		if got, want := fmt.Sprintf("%+v", msg), fmt.Sprintf("%+v", msg2); got != want {
			t.Fatalf("reused decoder: %s\nfresh decoder:  %s", got, want)
		}
	})
}
