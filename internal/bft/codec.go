package bft

// The wire codec: one hand-rolled, length-prefixed, big-endian binary
// layout for everything the package serialises — the twelve message types
// (nested certificates included), ReconfigOp, ReconfigResult and the state
// snapshot envelope. Each layout is stated once, as a walk over its fields
// (wire.message, replicaSnapshot.walk, ReconfigOp.walk and
// ReconfigResult.walk), and one bounds-checked cursor runs every walk in
// one of three modes: it sizes an encoding, writes it into a buffer of
// exactly that size, or reads it back. DESIGN.md §8 tabulates the layout.
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

// The append helpers build the signed and digest inputs (message.go),
// which are a layout of their own.

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBlob(b, p []byte) []byte {
	return append(appendU32(b, uint32(len(p))), p...)
}

// Encode serializes the message for the transport into one buffer of
// exactly its size.
func Encode(m *Message) ([]byte, error) {
	var w wire
	w.message(m, 0)
	if w.failed {
		return nil, fmt.Errorf("bft: encoding %v: unknown type, or its request or batch is missing", m.Type)
	}
	w.writeAfter(nil)
	w.message(m, 0)
	return w.buf, nil
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
	m := &Message{}
	w := wire{mode: reading, buf: payload}
	w.message(m, 0)
	if !w.done() {
		return nil, fmt.Errorf("bft: decoding %v: malformed payload", m.Type)
	}
	return m, nil
}

// wireMode is what a walk does with each field it visits.
type wireMode uint8

const (
	sizing  wireMode = iota // count the bytes the field takes
	writing                 // put the field at the cursor
	reading                 // take the field from the cursor
)

// wire is the cursor a walk runs on; its zero value sizes. An encoder
// runs the walk twice, with writeAfter between the runs: the first sizes
// the encoding, the second writes it. A decoder runs it once on a reading
// cursor and checks done. Failure is sticky: after a read that does not
// fit, or a value no reader would accept back, failed is set and no
// further step reads or writes, so a caller checks once at the end. Only
// a reader writes to the walked value.
type wire struct {
	mode    wireMode
	buf     []byte
	off     int
	claimed int // bytes the element counts read so far lay claim to (see count)
	failed  bool
}

// writeAfter turns a cursor that has sized a walk into one that writes it
// after prefix, into a buffer of exactly that size.
func (w *wire) writeAfter(prefix []byte) {
	w.mode = writing
	w.buf = make([]byte, len(prefix)+w.off)
	w.off = copy(w.buf, prefix)
}

// done reports whether every step succeeded and the walk consumed the
// payload exactly.
func (w *wire) done() bool { return !w.failed && w.off == len(w.buf) }

// take moves the cursor n bytes on and returns those bytes, capped at n,
// to write or read; sizing, or once the walk has failed, it returns nil.
// Taking more bytes than remain fails the walk.
func (w *wire) take(n int) []byte {
	start := w.off
	w.off += n
	if w.mode == sizing {
		return nil
	}
	if w.failed || w.off > len(w.buf) {
		w.failed = true
		return nil
	}
	return w.buf[start:w.off:w.off]
}

func (w *wire) u8(v *uint8) {
	if p := w.take(1); p != nil {
		if w.mode == writing {
			p[0] = *v
		} else {
			*v = p[0]
		}
	}
}

// bool walks a byte that must be 0 or 1: one encoding per value.
func (w *wire) bool(v *bool) {
	if p := w.take(1); p != nil {
		switch {
		case w.mode == reading:
			*v, w.failed = p[0] == 1, p[0] > 1
		case *v:
			p[0] = 1
		default:
			p[0] = 0
		}
	}
}

func (w *wire) u32(v *uint32) {
	if p := w.take(4); p != nil {
		if w.mode == writing {
			binary.BigEndian.PutUint32(p, *v)
		} else {
			*v = binary.BigEndian.Uint32(p)
		}
	}
}

func (w *wire) u64(v *uint64) {
	if p := w.take(8); p != nil {
		if w.mode == writing {
			binary.BigEndian.PutUint64(p, *v)
		} else {
			*v = binary.BigEndian.Uint64(p)
		}
	}
}

func (w *wire) id(v *transport.NodeID) {
	if p := w.take(8); p != nil {
		if w.mode == writing {
			binary.BigEndian.PutUint64(p, uint64(*v))
		} else {
			*v = transport.NodeID(binary.BigEndian.Uint64(p))
		}
	}
}

func (w *wire) digest(d *Digest) {
	if p := w.take(len(d)); p != nil {
		if w.mode == writing {
			copy(p, d[:])
		} else {
			copy(d[:], p)
		}
	}
}

// blob walks a length-prefixed byte slice. A reader leaves it where it
// lies in the payload (see Decode), and nil when empty.
func (w *wire) blob(p *[]byte) {
	n := uint32(len(*p))
	w.u32(&n)
	if w.mode == reading && (n == 0 || n > maxWireBytes) {
		w.failed = w.failed || n != 0
		return
	}
	q := w.take(int(n))
	switch w.mode {
	case writing:
		copy(q, *p)
	case reading:
		*p = q
	}
}

// count walks an element count. A reader fails if the bytes that remain
// could not hold that many elements of at least min bytes each, or if all
// counts so far claim more than the whole payload: a list is allocated
// before its elements are read, so nested lists could otherwise each claim
// the same trailing bytes. A min covers only bytes an element shares with
// no element nested in it, so a well-formed payload passes and allocation
// stays within its size times the largest struct-to-min ratio.
func (w *wire) count(n, min int) int {
	v := uint32(n)
	w.u32(&v)
	if w.mode != reading {
		return n
	}
	need := uint64(v) * uint64(min)
	if w.failed || need > uint64(len(w.buf)-w.off) || uint64(w.claimed)+need > uint64(len(w.buf)) {
		w.failed = true
		return 0
	}
	w.claimed += int(need)
	return int(v)
}

// list walks the count of *s and returns how many elements follow; a
// reader allocates the list. A reader fails a non-empty list past the
// nesting limit: depth is that of the message holding a list of messages
// or certificates, and 0 for any other list.
func list[T any](w *wire, s *[]T, min, depth int) int {
	n := w.count(len(*s), min)
	if w.mode == reading && n > 0 {
		if depth >= maxWireDepth {
			w.failed = true
			return 0
		}
		*s = make([]T, n)
	}
	return n
}

// present reports whether the walk may go into *p: a reader allocates it,
// and a nil one fails a writer, since no reader would accept it back.
func present[T any](w *wire, p **T) bool {
	if w.mode == reading {
		*p = new(T)
	}
	w.failed = w.failed || *p == nil
	return !w.failed
}

func (w *wire) request(req *Request) {
	w.id(&req.Client)
	w.u64(&req.Seq)
	w.bool(&req.Order)
	w.blob(&req.Op)
	w.blob(&req.Sig)
}

func (w *wire) batch(b *Batch) {
	for i, n := 0, list(w, &b.Requests, minRequestWire, 0); i < n && !w.failed; i++ {
		w.request(&b.Requests[i])
	}
}

// messages walks the messages nested in a message at depth.
func (w *wire) messages(msgs *[]Message, depth int) {
	for i, n := 0, list(w, msgs, minMessageWire, depth); i < n && !w.failed; i++ {
		w.message(&(*msgs)[i], depth+1)
	}
}

// proofs walks the prepared certificates of a message at depth.
func (w *wire) proofs(proofs *[]PreparedProof, depth int) {
	for i, n := 0, list(w, proofs, minProofWire, depth); i < n && !w.failed; i++ {
		p := &(*proofs)[i]
		w.u64(&p.View)
		w.u64(&p.SeqNo)
		w.digest(&p.BatchDigest)
		hasBatch := p.Batch != nil
		w.bool(&hasBatch)
		if hasBatch && present(w, &p.Batch) {
			w.batch(p.Batch)
		}
		w.messages(&p.Prepares, depth)
	}
}

// message walks one message at depth: the header every type shares, then
// the fields of its type.
func (w *wire) message(m *Message, depth int) {
	typ := uint8(m.Type)
	w.u8(&typ)
	if w.mode == reading {
		m.Type = MsgType(typ)
	}
	w.id(&m.From)
	w.u64(&m.View)
	w.u64(&m.SeqNo)
	w.u64(&m.Epoch)
	switch m.Type {
	case MsgRequest:
		if present(w, &m.Request) {
			w.request(m.Request)
		}
		w.blob(&m.Sig)
	case MsgPrePrepare:
		// Unsigned: the primary's authenticated channel carries it.
		w.digest(&m.BatchDigest)
		if present(w, &m.Batch) {
			w.batch(m.Batch)
		}
	case MsgPrepare:
		w.digest(&m.BatchDigest)
		w.blob(&m.Sig)
	case MsgCommit:
		w.digest(&m.BatchDigest)
	case MsgReply, MsgReadReply:
		w.u64(&m.ReplySeq)
		w.id(&m.ReplyClient)
		w.blob(&m.Result)
		w.blob(&m.Sig)
	case MsgCheckpoint:
		w.digest(&m.StateDigest)
		w.u64(&m.LastStable)
		w.blob(&m.Sig)
	case MsgViewChange:
		w.u64(&m.NewView)
		w.u64(&m.LastStable)
		w.proofs(&m.Prepared, depth)
		w.blob(&m.Sig)
	case MsgNewView:
		w.u64(&m.NewView)
		w.messages(&m.NewViewMsgs, depth)
		w.blob(&m.Sig)
	case MsgStateRequest:
		w.blob(&m.Sig)
	case MsgStateReply:
		w.u64(&m.SnapSeqNo)
		w.digest(&m.StateDigest)
		w.blob(&m.Snapshot)
		w.blob(&m.Sig)
	case MsgCatchUp:
		w.proofs(&m.Prepared, depth)
	default:
		w.failed = true
	}
}
