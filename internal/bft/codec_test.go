package bft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"lazarus/internal/transport"
)

// hotMessages covers the five ordering-path types and the read reply,
// empty and populated, and a request with its Order bit set.
func hotMessages() []*Message {
	req := Request{Client: transport.ClientIDBase + 3, Seq: 42, Op: []byte("put k v"), Sig: make([]byte, 64)}
	for i := range req.Sig {
		req.Sig[i] = byte(i)
	}
	empty := Request{Client: transport.ClientIDBase, Seq: 1}
	ordered := Request{Client: transport.ClientIDBase + 3, Seq: 43, Op: []byte("get k"), Order: true, Sig: req.Sig}
	return []*Message{
		{Type: MsgRequest, From: transport.ClientIDBase + 3, Request: &req, Sig: make([]byte, 32)},
		{Type: MsgRequest, From: transport.ClientIDBase, Request: &empty},
		{Type: MsgRequest, From: transport.ClientIDBase + 3, Request: &ordered, Sig: make([]byte, 32)},
		{Type: MsgPrePrepare, From: 0, View: 3, SeqNo: 17, Epoch: 2,
			Batch: &Batch{Requests: []Request{req, empty}}, BatchDigest: Digest{9, 9}},
		{Type: MsgPrePrepare, From: 1, View: 0, SeqNo: 1, Batch: &Batch{}},
		{Type: MsgPrepare, From: 2, View: 1, SeqNo: 5, Epoch: 1, BatchDigest: Digest{1, 2, 3}, Sig: []byte("prepsig")},
		{Type: MsgPrepare, From: 3, View: 1, SeqNo: 6, BatchDigest: Digest{1}},
		{Type: MsgCommit, From: 3, View: 1, SeqNo: 5, Epoch: 1, BatchDigest: Digest{4, 5, 6}},
		{Type: MsgReply, From: 2, View: 1, Epoch: 1, ReplySeq: 42,
			ReplyClient: transport.ClientIDBase + 3, Result: []byte("ok"), Sig: make([]byte, 32)},
		{Type: MsgReply, From: 0},
		{Type: MsgReadReply, From: 1, View: 1, Epoch: 2, ReplySeq: 43,
			ReplyClient: transport.ClientIDBase + 3, Result: []byte("VALv"), Sig: make([]byte, 32)},
	}
}

// coldMessages covers the other six types — view change and new view
// (with nested prepared certificates), catch-up, checkpoint and state
// transfer. Reconfiguration rides inside requests, so a request whose Op
// is an encoded ReconfigOp is included too. No digest is computed on the
// values returned, so they compare equal to their decoded copies (which
// start with cold digest caches).
func coldMessages() []*Message {
	newBatch := func() *Batch {
		return &Batch{Requests: []Request{{Client: transport.ClientIDBase, Seq: 3, Op: []byte("put k v"), Sig: make([]byte, 64)}}}
	}
	digest := newBatch().Digest()
	prep := Message{Type: MsgPrepare, From: 1, View: 2, SeqNo: 9,
		BatchDigest: digest, Sig: make([]byte, 64)}
	proof := PreparedProof{View: 2, SeqNo: 9, BatchDigest: digest, Batch: newBatch(),
		Prepares: []Message{prep}}
	vc := &Message{Type: MsgViewChange, From: 1, NewView: 3, Epoch: 1, LastStable: 8,
		Prepared: []PreparedProof{proof, {View: 1, SeqNo: 10, BatchDigest: Digest{3}}}, Sig: make([]byte, 64)}
	nv := &Message{Type: MsgNewView, From: 2, NewView: 3, Epoch: 1,
		NewViewMsgs: []Message{*vc}, Sig: make([]byte, 64)}
	reconfigOp := EncodeReconfigOp(ReconfigOp{Add: true, Replica: 7, PubKey: make([]byte, 32)})
	return []*Message{
		vc,
		nv,
		// A catch-up response carries a single prepared certificate in
		// the same Prepared field view changes use; a checkpoint vote
		// additionally advertises the sender's stable point.
		{Type: MsgCatchUp, From: 2, SeqNo: 9, Epoch: 1, Prepared: []PreparedProof{proof}},
		{Type: MsgCheckpoint, From: 1, SeqNo: 16, Epoch: 1, StateDigest: Digest{5},
			LastStable: 8, Sig: make([]byte, 64)},
		{Type: MsgStateRequest, From: 3, SeqNo: 12, Epoch: 1, Sig: make([]byte, 64)},
		{Type: MsgStateReply, From: 3, SnapSeqNo: 16, StateDigest: Digest{6},
			Snapshot: []byte("snapshot-bytes"), Sig: make([]byte, 64)},
		{Type: MsgViewChange, From: 2, NewView: 1},
		{Type: MsgRequest, From: transport.ClientIDBase,
			Request: &Request{Client: transport.ClientIDBase, Seq: 4, Op: reconfigOp, Sig: make([]byte, 64)}},
	}
}

func allMessages() []*Message { return append(hotMessages(), coldMessages()...) }

// decodeAllocBudget is the most Decode may allocate for a payload of n
// bytes. The worst ratio is a list of 37-byte messages decoding to
// 384-byte structs, about 10.4×, a little more once the allocator rounds
// up; the reader charges every list at every nesting level against the
// one payload (wire.count), so the ratios of nested lists do not add.
// Hence sixteen times the input plus a page of slack — never what a length
// or count prefix claims.
func decodeAllocBudget(n int) uint64 { return uint64(16*n + 4096) }

// withinBudget runs decode and fails the test if it allocated more than
// the payload's size justifies. TotalAlloc counts the whole process, so a
// reading over budget is taken again: what decode allocates is the same
// every time, what the runtime adds is not.
func withinBudget(tb testing.TB, payload []byte, decode func()) {
	tb.Helper()
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= decodeAllocBudget(len(payload)) {
			return
		}
	}
	tb.Fatalf("decoding %d bytes allocated %d, budget %d: %x", len(payload), got, decodeAllocBudget(len(payload)), payload)
}

// inflations returns the payload with a 1 GiB claim written over every
// four bytes of it in turn, which covers every length and count prefix
// wherever the layout puts one.
func inflations(payload []byte) [][]byte {
	var out [][]byte
	for off := 0; off+4 <= len(payload); off++ {
		hostile := append([]byte(nil), payload...)
		binary.BigEndian.PutUint32(hostile[off:], 1<<30)
		out = append(out, hostile)
	}
	return out
}

// nestedInflation is a NEW-VIEW whose first message is a NEW-VIEW whose
// first message is a PRE-PREPARE, each claiming as many elements as the
// filler zero bytes that follow could hold: three lists over the same
// bytes, where inflations only ever inflates one.
func nestedInflation(filler int) []byte {
	header := func(typ MsgType) []byte { return append([]byte{byte(typ)}, make([]byte, 4*8)...) }
	tail := filler
	pp := appendU32(make([]byte, 32+4), uint32(tail/minRequestWire)) // digest, empty sig, batch count
	pp = append(header(MsgPrePrepare), pp...)
	tail += len(pp)
	inner := appendU32(make([]byte, 8), uint32(tail/minMessageWire)) // NewView, message count
	inner = append(header(MsgNewView), inner...)
	tail += len(inner)
	outer := appendU32(make([]byte, 8), uint32(tail/minMessageWire))
	outer = append(header(MsgNewView), outer...)
	return append(append(append(outer, inner...), pp...), make([]byte, filler)...)
}

// TestCodecNestedCountsShareOneBudget: element counts at every nesting
// level are charged against the one payload, so lists nested over the same
// bytes cannot each claim all of them.
func TestCodecNestedCountsShareOneBudget(t *testing.T) {
	for _, filler := range []int{0, 24, 2400, 1 << 16} {
		hostile := nestedInflation(filler)
		withinBudget(t, hostile, func() {
			if m, err := Decode(hostile); err == nil {
				t.Errorf("%d filler bytes claimed three times over decoded to %v", filler, m.Type)
			}
		})
	}
}

// TestCodecRoundTrip: Decode(Encode(m)) equals m for every type, and the
// encoding is canonical.
func TestCodecRoundTrip(t *testing.T) {
	for _, want := range allMessages() {
		payload, err := Encode(want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Type, err)
		}
		got, err := Decode(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
		if again, err := Encode(got); err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%v: re-encoding the decoded message gave different bytes (err %v)", want.Type, err)
		}
	}
}

// TestCodecHotSizes pins what the ordering path puts on the wire: the
// benchmark's codec.bytes.* rows read these.
func TestCodecHotSizes(t *testing.T) {
	sig := make([]byte, 64)
	for _, tc := range []struct {
		m    *Message
		want int
	}{
		{&Message{Type: MsgCommit}, 65},
		{&Message{Type: MsgPrepare, Sig: sig}, 133},
		{&Message{Type: MsgPrePrepare, Batch: &Batch{}}, 69},                          // unsigned: the channel authenticates it
		{&Message{Type: MsgRequest, Request: &Request{Sig: sig}, Sig: sig[:32]}, 158}, // signed and MAC'd
		{&Message{Type: MsgReply, Sig: sig[:32]}, 89},                                 // a MAC, not a signature
		{&Message{Type: MsgReadReply, Sig: sig[:32]}, 89},
	} {
		if got := len(mustEncode(t, tc.m)); got != tc.want {
			t.Errorf("%v encodes to %d bytes, want %d", tc.m.Type, got, tc.want)
		}
	}
}

// TestCodecRejectsWhatItCannotCarry: a message no decoder would accept
// back is an encoding error, not a payload.
func TestCodecRejectsWhatItCannotCarry(t *testing.T) {
	for _, m := range []*Message{
		{Type: MsgRequest},
		{Type: MsgPrePrepare},
		{Type: MsgReadReply + 1},
		{Type: MsgNewView, NewViewMsgs: []Message{{Type: MsgPrePrepare}}},
	} {
		if p, err := Encode(m); err == nil {
			t.Errorf("%v without its payload encoded to %x", m.Type, p)
		}
	}
}

// TestCodecDigestsSurviveRoundTrip: the digests protocol handlers
// compute from decoded messages must match the sender's, or quorums
// would never form.
func TestCodecDigestsSurviveRoundTrip(t *testing.T) {
	req := Request{Client: transport.ClientIDBase, Seq: 7, Op: []byte("add 1"), Sig: make([]byte, 64)}
	batch := &Batch{Requests: []Request{req}}
	m := &Message{Type: MsgPrePrepare, From: 0, SeqNo: 1, Batch: batch, BatchDigest: batch.Digest()}
	payload, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch.Digest() != m.BatchDigest {
		t.Error("batch digest changed across the wire")
	}
	if got.Batch.Requests[0].Digest() != req.Digest() {
		t.Error("request digest changed across the wire")
	}
}

// TestCodecRejectsTruncatedPayloads: every truncation of a valid payload
// of any type, and any trailing byte, must fail cleanly — never panic or
// decode to garbage silently.
func TestCodecRejectsTruncatedPayloads(t *testing.T) {
	for _, msg := range allMessages() {
		payload := mustEncode(t, msg)
		for cut := 0; cut < len(payload); cut++ {
			if m, err := Decode(payload[:cut]); err == nil {
				t.Fatalf("%v truncated to %d bytes decoded to %+v", msg.Type, cut, m)
			}
		}
		if m, err := Decode(append(payload, 0)); err == nil {
			t.Fatalf("%v with a trailing byte decoded to %+v", msg.Type, m)
		}
	}
}

// TestCodecRejectsHostileLengths: a length prefix claiming more bytes
// than the payload holds must fail without huge allocations.
func TestCodecRejectsHostileLengths(t *testing.T) {
	m := &Message{Type: MsgRequest, From: transport.ClientIDBase,
		Request: &Request{Client: transport.ClientIDBase, Seq: 1, Op: []byte("x")}}
	payload := mustEncode(t, m)
	// The Op length prefix sits after type+4 header fields+client+seq.
	off := 1 + 8*4 + 16
	hostile := append([]byte(nil), payload...)
	hostile[off] = 0xff // claim ~4 GiB of Op bytes
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile length prefix decoded successfully")
	}
	// Hostile pre-prepare batch count.
	pp := &Message{Type: MsgPrePrepare, From: 0, SeqNo: 1, Batch: &Batch{}}
	payload = mustEncode(t, pp)
	hostile = append([]byte(nil), payload...)
	hostile[len(hostile)-4] = 0xff // batch count is the trailing u32
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile batch count decoded successfully")
	}
}

// TestCodecRejectsDeepNesting: messages nest as deep as NEW-VIEW →
// VIEW-CHANGE → proof → vote and no deeper, whatever a payload claims.
func TestCodecRejectsDeepNesting(t *testing.T) {
	m := &Message{Type: MsgNewView}
	for i := 0; i < maxWireDepth+1; i++ {
		m = &Message{Type: MsgNewView, NewViewMsgs: []Message{*m}}
	}
	if got, err := Decode(mustEncode(t, m)); err == nil {
		t.Fatalf("a NEW-VIEW nested %d deep decoded to %+v", maxWireDepth+1, got)
	}
}

// TestCodecColdTypesSurviveHostileInputs attacks the nested message types
// the Byzantine attackers replay and corrupt: every truncation and every
// single-byte corruption of a valid payload must decode to an error or a
// message — never panic — and a length or count prefix inflated to claim
// a gigabyte, at every position one can sit, must fail without allocating
// more than the payload's size justifies. FuzzDecode searches the rest of
// the input space for the same properties.
func TestCodecColdTypesSurviveHostileInputs(t *testing.T) {
	for _, msg := range coldMessages() {
		payload := mustEncode(t, msg)
		for cut := 0; cut < len(payload); cut++ {
			_, _ = Decode(payload[:cut])
		}
		for off := 0; off < len(payload); off++ {
			hostile := append([]byte(nil), payload...)
			hostile[off] ^= 0xff
			_, _ = Decode(hostile)
		}
		for _, hostile := range inflations(payload) {
			withinBudget(t, hostile, func() { _, _ = Decode(hostile) })
		}
	}
}

func BenchmarkCodecDecodePrepare(b *testing.B) {
	payload, err := Encode(&Message{Type: MsgPrepare, From: 1, View: 0, SeqNo: 9, BatchDigest: Digest{1, 2, 3}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodePrePrepare16(b *testing.B) {
	batch := &Batch{}
	for i := 0; i < 16; i++ {
		batch.Requests = append(batch.Requests, Request{
			Client: transport.ClientIDBase, Seq: uint64(i), Op: []byte("put k v"), Sig: make([]byte, 64)})
	}
	payload, err := Encode(&Message{Type: MsgPrePrepare, From: 0, SeqNo: 9, Batch: batch, BatchDigest: batch.Digest()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// byteFields returns every exported byte slice reachable from v: a
// message's Sig, Result and Snapshot, its requests' Op and Sig, and the
// same in every message and certificate nested in it.
func byteFields(v reflect.Value) [][]byte {
	var out [][]byte
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = byteFields(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out = append(out, byteFields(v.Field(i))...)
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return [][]byte{v.Bytes()}
		}
		for i := 0; i < v.Len(); i++ {
			out = append(out, byteFields(v.Index(i))...)
		}
	}
	return out
}

// offsetIn returns where f's first byte lies in payload, or -1.
func offsetIn(payload, f []byte) int {
	for k := range payload {
		if &payload[k] == &f[0] {
			return k
		}
	}
	return -1
}

// TestDecodeAliasesPayload: the byte fields of a decoded REQUEST,
// PRE-PREPARE and REPLY lie in the payload they were decoded from, each
// capped at its length, so appending to one reallocates and leaves the
// payload as it was.
func TestDecodeAliasesPayload(t *testing.T) {
	for _, want := range []*Message{hotMessages()[0], hotMessages()[3], request4K(), reply4K()} {
		payload := mustEncode(t, want)
		orig := bytes.Clone(payload)
		m, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		aliased := 0
		for _, f := range byteFields(reflect.ValueOf(m)) {
			if len(f) == 0 {
				continue
			}
			off := offsetIn(payload, f)
			if off < 0 || off+len(f) > len(payload) || !bytes.Equal(payload[off:off+len(f)], f) {
				t.Fatalf("%v: a %d-byte field does not lie in its payload", want.Type, len(f))
			}
			if cap(f) != len(f) {
				t.Fatalf("%v: the field at %d has cap %d, len %d", want.Type, off, cap(f), len(f))
			}
			if grown := append(f, 0xee); &grown[0] == &f[0] {
				t.Fatalf("%v: appending to the field at %d grew it in place", want.Type, off)
			}
			aliased++
		}
		if aliased < 2 || !bytes.Equal(payload, orig) {
			t.Errorf("%v: %d fields aliased; payload unchanged: %v", want.Type, aliased, bytes.Equal(payload, orig))
		}
	}
}

// TestEncodeAllocatesOnce: every encoder sizes its buffer exactly, so a
// REQUEST, a PRE-PREPARE, a REPLY, a reconfiguration and a snapshot
// envelope each cost one allocation.
func TestEncodeAllocatesOnce(t *testing.T) {
	snap := pinnedSnapshotMeta()
	snap.AppState = make([]byte, 4096)
	encoders := map[string]func() []byte{
		"reconfiguration": func() []byte {
			return EncodeReconfigOp(ReconfigOp{Add: true, Replica: 7, PubKey: make([]byte, 32)})
		},
		"snapshot envelope": snap.encode,
	}
	for _, m := range []*Message{hotMessages()[0], hotMessages()[3], hotMessages()[8], request4K(), reply4K()} {
		encoders[m.Type.String()+fmt.Sprintf(" of %d bytes", len(mustEncode(t, m)))] = func() []byte { return mustEncode(t, m) }
	}
	for name, encode := range encoders {
		var p []byte
		if allocs := testing.AllocsPerRun(50, func() { p = encode() }); allocs != 1 {
			t.Errorf("encoding a %s allocated %v times, want once", name, allocs)
		}
		if cap(p) != len(p) {
			t.Errorf("a %s encodes to %d bytes in a buffer of %d", name, len(p), cap(p))
		}
	}
}

// pinnedSnapshotMeta is fixed protocol metadata: four members, two
// clients.
func pinnedSnapshotMeta() *replicaSnapshot {
	s := &replicaSnapshot{LastExec: 17, Epoch: 2}
	for id := transport.NodeID(0); id < 4; id++ {
		key := bytes.Repeat([]byte{byte(id + 1)}, 32)
		s.Members = append(s.Members, memberEntry{ID: id, Key: key})
	}
	s.Clients = []clientEntry{{ID: transport.ClientIDBase, LastSeq: 9}, {ID: transport.ClientIDBase + 3, LastSeq: 41}}
	return s
}

// TestStateDigestPinned: what a checkpoint vote attests to is hashed over
// the metadata's wire layout, so a change to that layout splits the votes
// of replicas that run different builds. The literal was computed before
// the codec was last restructured.
func TestStateDigestPinned(t *testing.T) {
	const want = "5e567f7e40c2074482b8378f28843cafc7168f1abf194099531c088bd29b7a36"
	d := stateDigest(Digest{1, 2, 3}, pinnedSnapshotMeta())
	if got := fmt.Sprintf("%x", d[:]); got != want {
		t.Errorf("stateDigest = %s, want %s", got, want)
	}
}

// request4K and reply4K are a KVS put of a 4 KiB value, signed and MAC'd,
// and the reply of a get that returns one.
func request4K() *Message {
	req := &Request{Client: transport.ClientIDBase, Seq: 7, Op: make([]byte, 4096+16), Sig: make([]byte, 64)}
	return &Message{Type: MsgRequest, From: transport.ClientIDBase, Request: req, Sig: make([]byte, 32)}
}

func reply4K() *Message {
	return &Message{Type: MsgReply, From: 2, View: 1, Epoch: 1, ReplySeq: 7,
		ReplyClient: transport.ClientIDBase, Result: make([]byte, 4096+3), Sig: make([]byte, 32)}
}

func benchmarkEncode(b *testing.B, m *Message) {
	b.SetBytes(int64(len(mustEncode(b, m))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecode(b *testing.B, m *Message) {
	payload := mustEncode(b, m)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeRequest4K(b *testing.B) { benchmarkEncode(b, request4K()) }
func BenchmarkCodecDecodeRequest4K(b *testing.B) { benchmarkDecode(b, request4K()) }
func BenchmarkCodecEncodeReply4K(b *testing.B)   { benchmarkEncode(b, reply4K()) }
func BenchmarkCodecDecodeReply4K(b *testing.B)   { benchmarkDecode(b, reply4K()) }
