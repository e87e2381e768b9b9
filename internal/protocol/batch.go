// DataBatch: several record announcements coalesced into one datagram.
//
// The body is a uint16 record count followed by count frames, each a
// uint16 body length and then a Data body encoded exactly as a
// standalone TypeData datagram would encode it. Because every frame is
// a complete ADU, a receiver unpacks a batch into the same delivery
// sequence it would have seen from count single-record datagrams
// (pinned by test in the sstp package).
//
// Senders on the hot path never build a DataBatch struct: they append
// frames incrementally with AppendBatchRecord while walking the
// announcement queue, then close the datagram with AppendBatchDatagram.
// The result is byte-identical to AppendEncode(hdr, &DataBatch{...})
// (pinned by unit test).
package protocol

import "encoding/binary"

// MaxDataFrame is the largest possible encoded Data body plus its
// uint16 frame-length prefix: flag(1) + key(2+MaxKeyLen) + ver(8) +
// ttl(4) + born(8) + value(4+MaxValueLen). It fits a uint16 length
// with room to spare, which the frame format relies on.
const MaxDataFrame = 2 + 1 + 2 + MaxKeyLen + 8 + 4 + 8 + 4 + MaxValueLen

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
