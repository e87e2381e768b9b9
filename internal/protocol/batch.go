// DataBatch: several record announcements coalesced into one datagram.
//
// The body is a uint16 record count followed by count frames, each a
// uint16 body length and then a Data body encoded exactly as a
// standalone TypeData datagram would encode it. Because every frame is
// a complete ADU, a receiver unpacks a batch into the same delivery
// sequence it would have seen from count single-record datagrams
// (pinned by test in the sstp package).
//
// Senders never build a DataBatch struct: a Packer appends frames
// incrementally with AppendBatchRecord as records are picked, then
// seals the datagram with AppendDataDatagram or AppendBatchDatagram.
// The result is byte-identical to AppendEncode(hdr, &Data{...}) or
// AppendEncode(hdr, &DataBatch{...}) (pinned by unit test).
package protocol

import "encoding/binary"

// MTU is the datagram size records are packed up to, conservatively
// under the common 1500-byte path MTU. A record whose frame alone
// exceeds the budget still travels whole in its own datagram (IP
// fragments it).
const MTU = 1400

// batchCountLen is the uint16 record count that opens a batch body.
const batchCountLen = 2

// DataBatch coalesces up to MaxBatch record announcements into one
// datagram, amortizing the header and the send syscall across records
// that are small relative to the path MTU.
type DataBatch struct {
	Records []Data
}

// Type implements Message.
func (*DataBatch) Type() MsgType { return TypeDataBatch }

func (d *DataBatch) encodeBody(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Records)))
	for i := range d.Records {
		dst = AppendBatchRecord(dst, &d.Records[i])
	}
	return dst
}

// BatchRecordSize returns the wire size one record contributes to a
// batch body (its frame-length prefix plus the Data body), so senders
// can budget a coalesced datagram against the MTU before encoding.
func BatchRecordSize(keyLen, valueLen int) int {
	return 2 + 1 + 2 + keyLen + 8 + 4 + 8 + 4 + valueLen
}

// AppendBatchRecord appends one framed record to an in-progress batch
// body: the uint16 body length followed by the Data body. It allocates
// nothing when dst has capacity.
func AppendBatchRecord(dst []byte, rec *Data) []byte {
	at := len(dst)
	dst = append(dst, 0, 0) // frame length back-patched below
	dst = rec.encodeBody(dst)
	binary.BigEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
	return dst
}

// AppendBatchDatagram frames a complete DataBatch datagram from
// records previously packed with AppendBatchRecord: the common header,
// the uint16 count, then the record frames verbatim. The output is
// byte-identical to AppendEncode(hdr, &DataBatch{...}) for the same
// records (pinned by unit test). It allocates nothing when dst has
// capacity.
func AppendBatchDatagram(dst []byte, hdr Header, count int, records []byte) []byte {
	dst = appendHeader(dst, hdr, TypeDataBatch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	return append(dst, records...)
}

// AppendDataDatagram frames a plain TypeData datagram from an
// already-encoded Data body (for example a batch frame minus its
// length prefix). A coalescing sender that ends up with a single
// record uses it to stay byte-identical to the pre-batching format.
func AppendDataDatagram(dst []byte, hdr Header, body []byte) []byte {
	dst = appendHeader(dst, hdr, TypeData)
	return append(dst, body...)
}

// packBudget is the room for record frames in one MTU datagram.
const packBudget = MTU - headerLen - batchCountLen

// Packer packs records into datagrams of at most MTU bytes and Max
// records, sealed in the order they were added: plain Data for one
// record, DataBatch for several. Steady state allocates nothing. The
// zero Packer packs one record per datagram.
type Packer struct {
	// Max caps the records in one datagram (1..MaxBatch).
	Max int

	frames []byte // frames[:fit] are sealed next; frames[fit:] is one carried frame
	fit    int
	count  int // records in frames[:fit]
}

// Add appends rec's frame and returns its size. A frame that finds
// the datagram at Max records or would overrun the budget is carried
// into the next datagram, and Full reports true; the first frame of a
// datagram always fits. Seal a Full packer before adding to it.
func (p *Packer) Add(rec *Data) int {
	mark := len(p.frames)
	p.frames = AppendBatchRecord(p.frames, rec)
	if p.count == 0 || (p.count < p.Max && len(p.frames) <= packBudget) {
		p.fit = len(p.frames)
		p.count++
	}
	return len(p.frames) - mark
}

// Len returns the number of records the next Seal emits.
func (p *Packer) Len() int { return p.count }

// Full reports whether the datagram takes no more records: it holds
// Max, its budget is used up, or a frame is carried.
func (p *Packer) Full() bool {
	return p.count >= p.Max || p.fit >= packBudget || len(p.frames) > p.fit
}

// Seal appends the packed records to dst as one datagram under hdr,
// or nothing if none is packed, and starts the next datagram with the
// carried frame.
func (p *Packer) Seal(dst []byte, hdr Header) []byte {
	switch p.count {
	case 0:
		return dst
	case 1:
		dst = AppendDataDatagram(dst, hdr, p.frames[2:p.fit])
	default:
		dst = AppendBatchDatagram(dst, hdr, p.count, p.frames[:p.fit])
	}
	carried := copy(p.frames, p.frames[p.fit:])
	p.frames = p.frames[:carried]
	p.fit, p.count = carried, min(carried, 1)
	return dst
}
