package bft

// The wire codec: one hand-rolled, length-prefixed, big-endian binary
// layout for everything the package serialises — the twelve message types
// (nested certificates included), ReconfigOp, ReconfigResult and the state
// snapshot envelope — written by the append helpers and read by the
// bounds-checked wireReader below. DESIGN.md §8 tabulates the layout.
//
// A message carries the fields of its type and no others, and every
// value has exactly one encoding, so Encode(Decode(p)) == p for every p
// that decodes. The reader trusts no prefix: a length must fit in the
// bytes that remain, an element count in the bytes that remain divided
// by the element's smallest encoding, and messages nest no deeper than
// NEW-VIEW → VIEW-CHANGE → proof → vote needs.

import (
	"encoding/binary"
	"fmt"

	"lazarus/internal/transport"
)

// maxWireBytes bounds any single length prefix read from the wire
// (transport frames are capped at 16 MiB anyway).
const maxWireBytes = 16 << 20

// maxWireDepth is how deep messages may nest inside a message: a
// NEW-VIEW (depth 0) carries VIEW-CHANGEs (1) whose proofs carry votes (2).
const maxWireDepth = 2

// The smallest encodings of the repeated elements, which cap a claimed
// element count by the bytes that remain.
const (
	minRequestWire = 8 + 8 + 1 + 4 + 4
	minMessageWire = 1 + 4*8 + 4
	minProofWire   = 8 + 8 + 32 + 1 + 4
)

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBlob(b, p []byte) []byte {
	return append(appendU32(b, uint32(len(p))), p...)
}

func appendRequest(b []byte, req *Request) []byte {
	b = appendU64(b, uint64(req.Client))
	b = appendU64(b, req.Seq)
	b = appendBool(b, req.Order)
	b = appendBlob(b, req.Op)
	return appendBlob(b, req.Sig)
}

func appendBatch(b []byte, batch *Batch) []byte {
	b = appendU32(b, uint32(len(batch.Requests)))
	for i := range batch.Requests {
		b = appendRequest(b, &batch.Requests[i])
	}
	return b
}

// The three helpers below nest, and like the reader they fail once and
// for good: *err is set for the first message that cannot be encoded — one
// no decoder would accept back — and what is appended after that is moot.

func appendMessages(b []byte, msgs []Message, err *error) []byte {
	b = appendU32(b, uint32(len(msgs)))
	for i := range msgs {
		b = appendMessage(b, &msgs[i], err)
	}
	return b
}

func appendProofs(b []byte, proofs []PreparedProof, err *error) []byte {
	b = appendU32(b, uint32(len(proofs)))
	for i := range proofs {
		p := &proofs[i]
		b = appendU64(b, p.View)
		b = appendU64(b, p.SeqNo)
		b = append(b, p.BatchDigest[:]...)
		b = appendBool(b, p.Batch != nil)
		if p.Batch != nil {
			b = appendBatch(b, p.Batch)
		}
		b = appendMessages(b, p.Prepares, err)
	}
	return b
}

func appendMessage(b []byte, m *Message, err *error) []byte {
	b = append(b, byte(m.Type))
	b = appendU64(b, uint64(m.From))
	b = appendU64(b, m.View)
	b = appendU64(b, m.SeqNo)
	b = appendU64(b, m.Epoch)
	switch {
	case m.Type == MsgRequest && m.Request != nil:
		b = appendRequest(b, m.Request)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgPrePrepare && m.Batch != nil:
		// Unsigned: the primary's authenticated channel carries it.
		b = append(b, m.BatchDigest[:]...)
		b = appendBatch(b, m.Batch)
	case m.Type == MsgPrepare:
		b = append(b, m.BatchDigest[:]...)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgCommit:
		b = append(b, m.BatchDigest[:]...)
	case m.Type == MsgReply || m.Type == MsgReadReply:
		b = appendU64(b, m.ReplySeq)
		b = appendU64(b, uint64(m.ReplyClient))
		b = appendBlob(b, m.Result)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgCheckpoint:
		b = append(b, m.StateDigest[:]...)
		b = appendU64(b, m.LastStable)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgViewChange:
		b = appendU64(b, m.NewView)
		b = appendU64(b, m.LastStable)
		b = appendProofs(b, m.Prepared, err)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgNewView:
		b = appendU64(b, m.NewView)
		b = appendMessages(b, m.NewViewMsgs, err)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgStateRequest:
		b = appendBlob(b, m.Sig)
	case m.Type == MsgStateReply:
		b = appendU64(b, m.SnapSeqNo)
		b = append(b, m.StateDigest[:]...)
		b = appendBlob(b, m.Snapshot)
		b = appendBlob(b, m.Sig)
	case m.Type == MsgCatchUp:
		b = appendProofs(b, m.Prepared, err)
	default:
		if *err == nil {
			*err = fmt.Errorf("bft: encoding %v: unknown type, or its request or batch is missing", m.Type)
		}
	}
	return b
}

// The size helpers below return exactly the number of bytes the append
// helper of the same name appends, so Encode allocates its buffer once.

func sizeBlob(p []byte) int { return 4 + len(p) }

func sizeRequest(req *Request) int {
	return 8 + 8 + 1 + sizeBlob(req.Op) + sizeBlob(req.Sig)
}

func sizeBatch(batch *Batch) int {
	n := 4
	for i := range batch.Requests {
		n += sizeRequest(&batch.Requests[i])
	}
	return n
}

func sizeMessages(msgs []Message) int {
	n := 4
	for i := range msgs {
		n += sizeMessage(&msgs[i])
	}
	return n
}

func sizeProofs(proofs []PreparedProof) int {
	n := 4
	for i := range proofs {
		p := &proofs[i]
		n += 8 + 8 + len(p.BatchDigest) + 1 + sizeMessages(p.Prepares)
		if p.Batch != nil {
			n += sizeBatch(p.Batch)
		}
	}
	return n
}

func sizeMessage(m *Message) int {
	n := 1 + 4*8
	switch {
	case m.Type == MsgRequest && m.Request != nil:
		n += sizeRequest(m.Request) + sizeBlob(m.Sig)
	case m.Type == MsgPrePrepare && m.Batch != nil:
		n += len(m.BatchDigest) + sizeBatch(m.Batch)
	case m.Type == MsgPrepare:
		n += len(m.BatchDigest) + sizeBlob(m.Sig)
	case m.Type == MsgCommit:
		n += len(m.BatchDigest)
	case m.Type == MsgReply || m.Type == MsgReadReply:
		n += 8 + 8 + sizeBlob(m.Result) + sizeBlob(m.Sig)
	case m.Type == MsgCheckpoint:
		n += len(m.StateDigest) + 8 + sizeBlob(m.Sig)
	case m.Type == MsgViewChange:
		n += 8 + 8 + sizeProofs(m.Prepared) + sizeBlob(m.Sig)
	case m.Type == MsgNewView:
		n += 8 + sizeMessages(m.NewViewMsgs) + sizeBlob(m.Sig)
	case m.Type == MsgStateRequest:
		n += sizeBlob(m.Sig)
	case m.Type == MsgStateReply:
		n += 8 + len(m.StateDigest) + sizeBlob(m.Snapshot) + sizeBlob(m.Sig)
	case m.Type == MsgCatchUp:
		n += sizeProofs(m.Prepared)
	}
	return n
}

// Encode serializes the message for the transport into one buffer of
// exactly its size.
func Encode(m *Message) ([]byte, error) {
	var err error
	b := appendMessage(make([]byte, 0, sizeMessage(m)), m, &err)
	return b, err
}

// Decode deserializes a message. A payload that is truncated, carries
// trailing bytes, names an unknown type or claims more than it holds is
// an error.
//
// The message's byte fields alias the payload, which becomes the
// message's: a received payload belongs to its consumer, and nothing
// writes to a decoded field in place. Each field is capped at its own
// length, so appending to one reallocates instead of overwriting the bytes
// after it.
func Decode(payload []byte) (*Message, error) {
	r := wireReader{buf: payload, ok: true}
	m := &Message{}
	r.message(m, 0)
	if !r.done() {
		return nil, fmt.Errorf("bft: decoding %v: malformed payload", m.Type)
	}
	return m, nil
}

// wireReader is a bounds-checked cursor over an encoded payload. After
// any failed read, ok is false and every further read returns zero
// values, so decode paths check done once at the end.
type wireReader struct {
	buf     []byte
	off     int
	claimed int // bytes the element counts read so far lay claim to (see count)
	ok      bool
}

// done reports whether every read succeeded and consumed the payload
// exactly.
func (r *wireReader) done() bool { return r.ok && r.off == len(r.buf) }

// take returns the next n bytes of the payload, capped at n, or nil after
// failing the reader if fewer remain.
func (r *wireReader) take(n int) []byte {
	if !r.ok || n > len(r.buf)-r.off {
		r.ok = false
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *wireReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// bool reads a byte that must be 0 or 1: one encoding per value.
func (r *wireReader) bool() bool {
	v := r.u8()
	r.ok = r.ok && v <= 1
	return v == 1
}

func (r *wireReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (r *wireReader) digest() (d Digest) {
	copy(d[:], r.take(len(d)))
	return d
}

// blob reads a length-prefixed byte slice (nil when empty), where it lies
// in the payload (see Decode).
func (r *wireReader) blob() []byte {
	n := r.u32()
	if n == 0 || n > maxWireBytes {
		r.ok = r.ok && n == 0
		return nil
	}
	return r.take(int(n))
}

// count reads an element count and fails the reader if the bytes that
// remain could not hold that many elements of at least min bytes each, or
// if all counts so far claim more than the whole payload: a list is
// allocated before its elements are read, so nested lists could otherwise
// each claim the same trailing bytes. A min covers only bytes an element
// shares with no element nested in it, so a well-formed payload passes and
// allocation stays within its size times the largest struct-to-min ratio.
func (r *wireReader) count(min int) int {
	n := r.u32()
	need := uint64(n) * uint64(min)
	if need > uint64(len(r.buf)-r.off) || uint64(r.claimed)+need > uint64(len(r.buf)) {
		r.ok = false
		return 0
	}
	r.claimed += int(need)
	return int(n)
}

func (r *wireReader) request(req *Request) {
	req.Client = transport.NodeID(r.u64())
	req.Seq = r.u64()
	req.Order = r.bool()
	req.Op = r.blob()
	req.Sig = r.blob()
}

func (r *wireReader) batch() *Batch {
	batch := &Batch{}
	if n := r.count(minRequestWire); n > 0 {
		batch.Requests = make([]Request, n)
		for i := 0; i < n && r.ok; i++ {
			r.request(&batch.Requests[i])
		}
	}
	return batch
}

// messages reads the messages nested in a message at depth.
func (r *wireReader) messages(depth int) []Message {
	n := r.count(minMessageWire)
	if n == 0 || depth >= maxWireDepth {
		r.ok = r.ok && n == 0
		return nil
	}
	msgs := make([]Message, n)
	for i := 0; i < n && r.ok; i++ {
		r.message(&msgs[i], depth+1)
	}
	return msgs
}

// proofs reads the prepared certificates of a message at depth.
func (r *wireReader) proofs(depth int) []PreparedProof {
	n := r.count(minProofWire)
	if n == 0 || depth >= maxWireDepth {
		r.ok = r.ok && n == 0
		return nil
	}
	proofs := make([]PreparedProof, n)
	for i := 0; i < n && r.ok; i++ {
		p := &proofs[i]
		p.View = r.u64()
		p.SeqNo = r.u64()
		p.BatchDigest = r.digest()
		if r.bool() {
			p.Batch = r.batch()
		}
		p.Prepares = r.messages(depth)
	}
	return proofs
}

// message reads one message, the inverse of appendMessage.
func (r *wireReader) message(m *Message, depth int) {
	m.Type = MsgType(r.u8())
	m.From = transport.NodeID(r.u64())
	m.View = r.u64()
	m.SeqNo = r.u64()
	m.Epoch = r.u64()
	switch m.Type {
	case MsgRequest:
		m.Request = &Request{}
		r.request(m.Request)
		m.Sig = r.blob()
	case MsgPrePrepare:
		m.BatchDigest = r.digest()
		m.Batch = r.batch()
	case MsgPrepare:
		m.BatchDigest = r.digest()
		m.Sig = r.blob()
	case MsgCommit:
		m.BatchDigest = r.digest()
	case MsgReply, MsgReadReply:
		m.ReplySeq = r.u64()
		m.ReplyClient = transport.NodeID(r.u64())
		m.Result = r.blob()
		m.Sig = r.blob()
	case MsgCheckpoint:
		m.StateDigest = r.digest()
		m.LastStable = r.u64()
		m.Sig = r.blob()
	case MsgViewChange:
		m.NewView = r.u64()
		m.LastStable = r.u64()
		m.Prepared = r.proofs(depth)
		m.Sig = r.blob()
	case MsgNewView:
		m.NewView = r.u64()
		m.NewViewMsgs = r.messages(depth)
		m.Sig = r.blob()
	case MsgStateRequest:
		m.Sig = r.blob()
	case MsgStateReply:
		m.SnapSeqNo = r.u64()
		m.StateDigest = r.digest()
		m.Snapshot = r.blob()
		m.Sig = r.blob()
	case MsgCatchUp:
		m.Prepared = r.proofs(depth)
	default:
		r.ok = false
	}
}
