// Decoder: the package's one decode path, allocation-free in steady
// state.
//
// A receive loop decodes every datagram it hears, so a Decoder
// amortizes what a naive parse pays per datagram: message structs are
// reused across calls, key and path strings are interned in a bounded
// map (the map lookup on a []byte key compiles to zero allocations),
// and Data values are copied into an arena that is re-sliced per call.
// The returned Message and any values inside it are valid only until
// the next Decode call. The package-level Decode runs a throwaway
// Decoder for callers that keep what they decode.
package protocol

import "encoding/binary"

// internCap bounds the interning map: once this many distinct keys
// have been seen the map is dropped and rebuilt, so a hostile or
// churning sender cannot grow it without bound. At typical key sizes
// this caps interning memory around tens of MB.
const internCap = 1 << 20

// Decoder decodes datagrams without per-call allocations. It is not
// safe for concurrent use; each receive loop owns one.
type Decoder struct {
	data      Data
	batch     DataBatch
	summary   Summary
	nack      NACK
	query     Query
	digests   Digests
	report    Report
	goodbye   Goodbye
	heartbeat Heartbeat

	names map[string]string // interned keys and paths
	val   []byte            // value arena, re-sliced per Decode
}

// NewDecoder returns a ready Decoder.
func NewDecoder() *Decoder {
	return &Decoder{names: make(map[string]string)}
}

// intern returns the canonical string for b, allocating only the first
// time a distinct key is seen.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if len(d.names) >= internCap {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// Decode parses a datagram into its header and message, reusing the
// Decoder's internal structs and buffers. Every field is bounds-checked
// and the body must be consumed exactly, so a malformed datagram never
// panics or over-allocates. The returned Message (including key
// strings and value slices reachable from it) is only valid until the
// next call.
func (d *Decoder) Decode(b []byte) (Header, Message, error) {
	var hdr Header
	if len(b) < headerLen {
		return hdr, nil, ErrShort
	}
	if binary.BigEndian.Uint32(b) != Magic {
		return hdr, nil, ErrMagic
	}
	if b[4] != Version {
		return hdr, nil, ErrVersion
	}
	t := MsgType(b[5])
	hdr.Scope = b[6]
	hdr.Session = binary.BigEndian.Uint64(b[7:])
	hdr.Sender = binary.BigEndian.Uint64(b[15:])
	hdr.Seq = binary.BigEndian.Uint32(b[23:])
	body := b[headerLen:]

	// The arena is sized up-front to the whole datagram — an upper
	// bound on the sum of value lengths inside it — so appends during
	// a batch never reallocate and earlier records' subslices stay
	// valid.
	if cap(d.val) < len(b) {
		d.val = make([]byte, 0, len(b))
	}
	d.val = d.val[:0]

	switch t {
	case TypeData:
		if err := d.decodeData(&d.data, body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.data, nil
	case TypeDataBatch:
		if err := d.decodeBatch(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.batch, nil
	case TypeSummary:
		if err := d.decodeSummary(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.summary, nil
	case TypeQuery:
		if err := d.decodeQuery(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.query, nil
	case TypeNACK:
		if err := d.decodeNACK(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.nack, nil
	case TypeDigests:
		if err := d.decodeDigests(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.digests, nil
	case TypeReport:
		if err := d.report.decodeBody(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.report, nil
	case TypeGoodbye:
		if err := d.goodbye.decodeBody(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.goodbye, nil
	case TypeHeartbit:
		if err := d.heartbeat.decodeBody(body); err != nil {
			return hdr, nil, err
		}
		return hdr, &d.heartbeat, nil
	default:
		return hdr, nil, ErrType
	}
}

// decodeData parses a Data body into rec with the key interned and the
// value placed in the arena. It parses standalone Data datagrams and
// every record framed inside a DataBatch alike.
func (d *Decoder) decodeData(rec *Data, b []byte) error {
	if len(b) < 1 {
		return ErrShort
	}
	if b[0] > 1 {
		return ErrBadPayload
	}
	rec.Deleted = b[0] == 1
	b = b[1:]
	if len(b) < 2 {
		return ErrShort
	}
	klen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if klen > MaxKeyLen {
		return ErrOversize
	}
	if len(b) < klen {
		return ErrShort
	}
	if klen == 0 {
		return ErrBadPayload
	}
	rec.Key = d.intern(b[:klen])
	b = b[klen:]
	if len(b) < 24 {
		return ErrShort
	}
	rec.Ver = binary.BigEndian.Uint64(b)
	rec.TTLms = binary.BigEndian.Uint32(b[8:])
	rec.BornMs = binary.BigEndian.Uint64(b[12:])
	vlen := int(binary.BigEndian.Uint32(b[20:]))
	b = b[24:]
	if vlen > MaxValueLen {
		return ErrOversize
	}
	if len(b) < vlen {
		return ErrShort
	}
	if len(b) != vlen {
		return ErrTrailing
	}
	at := len(d.val)
	d.val = append(d.val, b[:vlen]...)
	rec.Value = d.val[at : at+vlen : at+vlen]
	return nil
}

// decodeBatch parses a DataBatch body reusing d.batch.Records and
// routing each record through decodeData.
func (d *Decoder) decodeBatch(b []byte) error {
	if len(b) < batchCountLen {
		return ErrShort
	}
	cnt := int(binary.BigEndian.Uint16(b))
	b = b[batchCountLen:]
	if cnt > MaxBatch {
		return ErrOversize
	}
	if cnt == 0 {
		return ErrBadPayload
	}
	if cap(d.batch.Records) >= cnt {
		d.batch.Records = d.batch.Records[:0]
	} else {
		d.batch.Records = make([]Data, 0, cnt)
	}
	for i := 0; i < cnt; i++ {
		if len(b) < 2 {
			return ErrShort
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return ErrShort
		}
		var rec Data
		if err := d.decodeData(&rec, b[:n]); err != nil {
			return err
		}
		d.batch.Records = append(d.batch.Records, rec)
		b = b[n:]
	}
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}

// readStringView reads a uint16-length-prefixed string of at most
// limit bytes and returns a view into b for the caller to intern, plus
// the rest of b.
func readStringView(b []byte, limit int) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrShort
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > limit {
		return nil, nil, ErrOversize
	}
	if len(b) < n {
		return nil, nil, ErrShort
	}
	return b[:n], b[n:], nil
}

// decodeNACK parses a NACK body reusing d.nack.Keys with every key
// interned: lost keys repeat across NACK rounds, so the sender's
// receive loop pays one string allocation per distinct key, not per
// datagram.
func (d *Decoder) decodeNACK(b []byte) error {
	if len(b) < 2 {
		return ErrShort
	}
	cnt := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if cnt > MaxBatch {
		return ErrOversize
	}
	if cap(d.nack.Keys) >= cnt {
		d.nack.Keys = d.nack.Keys[:0]
	} else {
		d.nack.Keys = make([]string, 0, cnt)
	}
	for i := 0; i < cnt; i++ {
		k, rest, err := readStringView(b, MaxKeyLen)
		if err != nil {
			return err
		}
		if len(k) == 0 {
			return ErrBadPayload
		}
		d.nack.Keys = append(d.nack.Keys, d.intern(k))
		b = rest
	}
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}

// decodeDigests parses a Digests body reusing d.digests.Children with
// the path and child names interned.
func (d *Decoder) decodeDigests(b []byte) error {
	p, rest, err := readStringView(b, MaxKeyLen)
	if err != nil {
		return err
	}
	d.digests.Path = d.intern(p)
	b = rest
	if len(b) < 2 {
		return ErrShort
	}
	cnt := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if cnt > MaxBatch {
		return ErrOversize
	}
	if cap(d.digests.Children) >= cnt {
		d.digests.Children = d.digests.Children[:0]
	} else {
		d.digests.Children = make([]ChildDigest, 0, cnt)
	}
	for i := 0; i < cnt; i++ {
		if len(b) < 1 {
			return ErrShort
		}
		var c ChildDigest
		if b[0] > 1 {
			return ErrBadPayload
		}
		c.Leaf = b[0] == 1
		name, rest, err := readStringView(b[1:], MaxKeyLen)
		if err != nil {
			return err
		}
		c.Name = d.intern(name)
		b = rest
		if len(b) < DigestLen {
			return ErrShort
		}
		copy(c.Digest[:], b[:DigestLen])
		b = b[DigestLen:]
		d.digests.Children = append(d.digests.Children, c)
	}
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}

// decodeSummary parses a Summary body with the path interned.
func (d *Decoder) decodeSummary(b []byte) error {
	if len(b) < 2 {
		return ErrShort
	}
	plen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if plen > MaxKeyLen {
		return ErrOversize
	}
	if len(b) < plen {
		return ErrShort
	}
	d.summary.Path = d.intern(b[:plen])
	b = b[plen:]
	if len(b) != DigestLen+4 {
		if len(b) < DigestLen+4 {
			return ErrShort
		}
		return ErrTrailing
	}
	copy(d.summary.Digest[:], b[:DigestLen])
	d.summary.Count = binary.BigEndian.Uint32(b[DigestLen:])
	return nil
}

// decodeQuery parses a Query body with the path interned.
func (d *Decoder) decodeQuery(b []byte) error {
	if len(b) < 2 {
		return ErrShort
	}
	plen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if plen > MaxKeyLen {
		return ErrOversize
	}
	if len(b) != plen {
		if len(b) < plen {
			return ErrShort
		}
		return ErrTrailing
	}
	d.query.Path = d.intern(b)
	return nil
}
