package bft

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"lazarus/internal/transport"
)

// Tests of the authenticated inputs (message.go): what signatures, reply
// MACs and request digests cover. The layout is pinned by golden vectors;
// injectivity by a property over single-field changes.

// fill returns n bytes of b, for readable fixed test values.
func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func digestOf(b byte) (d Digest) {
	copy(d[:], fill(b, len(d)))
	return d
}

// goldenInputs is one message of each authenticated type with every field
// its type carries set, and the request a batch would carry.
func goldenInputs() map[string][]byte {
	req := Request{Client: transport.ClientIDBase + 7, Seq: 42, Op: []byte("put k v")}
	header := Message{From: 1, View: 2, SeqNo: 17, Epoch: 3}
	with := func(f func(m *Message)) []byte {
		m := header
		f(&m)
		return m.signedInput()
	}
	return map[string][]byte{
		"request": req.digestInput(),
		"ordered-request": func() []byte {
			r := req
			r.Order = true
			return r.digestInput()
		}(),
		"prepare": with(func(m *Message) {
			m.Type, m.BatchDigest = MsgPrepare, digestOf(0xb1)
		}),
		"checkpoint": with(func(m *Message) {
			m.Type, m.StateDigest, m.LastStable = MsgCheckpoint, digestOf(0x5d), 16
		}),
		"view-change": with(func(m *Message) {
			m.Type, m.NewView, m.LastStable = MsgViewChange, 3, 16
			m.Prepared = []PreparedProof{{
				View: 2, SeqNo: 17, BatchDigest: digestOf(0xb1),
				Prepares: []Message{{From: 1, Sig: fill(0xa1, 64)}, {From: 2, Sig: fill(0xa2, 64)}},
			}, {
				View: 2, SeqNo: 18, BatchDigest: digestOf(0xb2),
			}}
		}),
		"new-view": with(func(m *Message) {
			m.Type, m.NewView = MsgNewView, 3
		}),
		"state-request": with(func(m *Message) {
			m.Type = MsgStateRequest
		}),
		"state-reply": with(func(m *Message) {
			m.Type, m.SnapSeqNo, m.StateDigest = MsgStateReply, 16, digestOf(0x5d)
			m.Snapshot = []byte("snapshot bytes")
		}),
		"reply": with(func(m *Message) {
			m.Type, m.ReplySeq, m.ReplyClient = MsgReply, 42, transport.ClientIDBase+7
			m.Result = []byte("ok")
		}),
		"read-reply": with(func(m *Message) {
			m.Type, m.ReplySeq, m.ReplyClient = MsgReadReply, 42, transport.ClientIDBase+7
			m.Result = []byte("ok")
		}),
	}
}

// TestSignedInputGolden pins the authenticated-input layout: SHA-256 of
// each input, and its length. A change here changes every signature and
// MAC, so it must be deliberate.
func TestSignedInputGolden(t *testing.T) {
	type golden struct {
		size int
		sum  string
	}
	want := map[string]golden{
		// 12 B tag, client, seq, then the 7 B op behind its length. The
		// Order bit changes only the tag.
		"request":         {39, "da1046107d08770ebbe98fa0ec0e601e5a70c06855845f739f138d6d37a18ff4"},
		"ordered-request": {39, "49315bf6acce8d926f641f9e08510354f9e3413626327fd3ad98aadb87ca287b"},
		// signedInputFixed less the absent snapshot's 32 B sum.
		"prepare":       {165, "901e8a7084c3b3ff7e6c69cb96cb796d1a07b1cf7aa25f72a5aa400bc81e7071"},
		"checkpoint":    {165, "1422322bdc4e24a8e5096e05569aa97fe48b15ef1be6709cb5e7b65efa393240"},
		"new-view":      {165, "6506eaacfabd29028845b3113e93ee556f35f1eeb92fc784c845dd1d47abcf0f"},
		"state-request": {165, "1eebb855cb5057a46c7510e93a39b05321c4f11b9ca061f4b1c127916a05dcda"},
		// 165 + a proof with two prepares (204) + one with none (52).
		"view-change": {421, "44bb97a19cdd042730c59a925cd846d2311e0ded33f61bf3da8da4008940a6d9"},
		"state-reply": {197, "64591d7cb8514f95abfc40590ebc4035b4478507abd8118f764a25a4aae5155e"},
		"reply":       {167, "c030768e6d3eb97436622aeea7a15a89a671c5cc8e8eec0ee7d413169a4aa512"},
		"read-reply":  {167, "f9215a7cc730422f48cc62dc429a24f10d200b806c70fa0c327296881df4c51c"},
	}
	inputs := goldenInputs()
	if len(inputs) != len(want) {
		t.Fatalf("%d inputs, %d golden vectors", len(inputs), len(want))
	}
	for name, input := range inputs {
		sum := sha256.Sum256(input)
		got := golden{len(input), hex.EncodeToString(sum[:])}
		if got != want[name] {
			t.Errorf("%s: input of %d B hashing to %s, want %d B hashing to %s",
				name, got.size, got.sum, want[name].size, want[name].sum)
		}
	}
}

// TestSignedInputFixedSize: a message with no proofs and no result fills
// exactly the capacity signedInput allocates up front.
func TestSignedInputFixedSize(t *testing.T) {
	m := Message{Type: MsgStateReply, Snapshot: []byte("x")}
	if got := len(m.signedInput()); got != signedInputFixed {
		t.Errorf("signed input of %d B, want signedInputFixed = %d", got, signedInputFixed)
	}
}

// randomSig returns a signature-like blob of 1 to 8 bytes: short, so that
// moving a byte across a boundary changes lengths visibly.
func randomSig(rng *rand.Rand) []byte {
	b := make([]byte, 1+rng.Intn(8))
	rng.Read(b)
	return b
}

func randomDigest(rng *rand.Rand) (d Digest) {
	rng.Read(d[:])
	return d
}

// randomSigned draws a message setting every field signedInput covers. Its
// first proof always has at least two prepares, so every boundary between
// variable-length fields exists; later proofs vary.
func randomSigned(rng *rand.Rand) *Message {
	m := &Message{
		Type: MsgType(1 + rng.Intn(int(MsgCatchUp))), From: transport.NodeID(rng.Uint64()),
		View: rng.Uint64(), SeqNo: rng.Uint64(), Epoch: rng.Uint64(),
		BatchDigest: randomDigest(rng), StateDigest: randomDigest(rng),
		NewView: rng.Uint64(), LastStable: rng.Uint64(), SnapSeqNo: rng.Uint64(),
		ReplySeq: rng.Uint64(), ReplyClient: transport.NodeID(rng.Uint64()),
		Result: randomSig(rng),
	}
	if rng.Intn(2) == 0 {
		m.Snapshot = randomSig(rng)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		p := PreparedProof{View: rng.Uint64(), SeqNo: rng.Uint64(), BatchDigest: randomDigest(rng)}
		votes := rng.Intn(4)
		if i == 0 {
			votes += 2
		}
		for j := 0; j < votes; j++ {
			p.Prepares = append(p.Prepares, Message{From: transport.NodeID(rng.Uint64()), Sig: randomSig(rng)})
		}
		m.Prepared = append(m.Prepared, p)
	}
	return m
}

// cloneCovered deep-copies what signedInput reads, so that changing the
// copy leaves the original alone.
func cloneCovered(m *Message) *Message {
	c := *m
	c.snapSumSet = false
	c.Snapshot = bytes.Clone(m.Snapshot)
	c.Result = bytes.Clone(m.Result)
	c.Prepared = make([]PreparedProof, len(m.Prepared))
	for i, p := range m.Prepared {
		votes := make([]Message, len(p.Prepares))
		for j := range p.Prepares {
			votes[j] = Message{From: p.Prepares[j].From, Sig: bytes.Clone(p.Prepares[j].Sig)}
		}
		p.Prepares = votes
		c.Prepared[i] = p
	}
	return &c
}

// moveByte moves the last byte of *from to the front of *to: the bytes in
// sequence stay the same, the boundary between the two fields moves.
func moveByte(from, to *[]byte) {
	last := (*from)[len(*from)-1]
	*from = (*from)[:len(*from)-1]
	*to = append([]byte{last}, *to...)
}

func flipBit(rng *rand.Rand, b []byte) { b[rng.Intn(len(b))] ^= 1 << rng.Intn(8) }

// messageChanges each change exactly one field signedInput covers, or
// move one byte across a boundary between two variable-length fields.
var messageChanges = []func(rng *rand.Rand, m *Message){
	func(_ *rand.Rand, m *Message) { m.Type++ },
	func(_ *rand.Rand, m *Message) { m.From++ },
	func(_ *rand.Rand, m *Message) { m.View++ },
	func(_ *rand.Rand, m *Message) { m.SeqNo++ },
	func(_ *rand.Rand, m *Message) { m.Epoch++ },
	func(rng *rand.Rand, m *Message) { flipBit(rng, m.BatchDigest[:]) },
	func(rng *rand.Rand, m *Message) { flipBit(rng, m.StateDigest[:]) },
	func(_ *rand.Rand, m *Message) { m.NewView++ },
	func(_ *rand.Rand, m *Message) { m.LastStable++ },
	func(_ *rand.Rand, m *Message) { m.SnapSeqNo++ },
	func(rng *rand.Rand, m *Message) {
		if m.Snapshot == nil {
			m.Snapshot = randomSig(rng)
		} else {
			m.Snapshot = nil
		}
	},
	func(_ *rand.Rand, m *Message) { m.Snapshot = append(m.Snapshot, 0) },
	func(_ *rand.Rand, m *Message) { m.ReplySeq++ },
	func(_ *rand.Rand, m *Message) { m.ReplyClient++ },
	func(rng *rand.Rand, m *Message) { flipBit(rng, m.Result) },
	func(_ *rand.Rand, m *Message) { m.Result = m.Result[:len(m.Result)-1] },
	func(_ *rand.Rand, m *Message) { m.Prepared = m.Prepared[:len(m.Prepared)-1] },
	func(_ *rand.Rand, m *Message) { m.Prepared = append(m.Prepared, PreparedProof{}) },
	func(rng *rand.Rand, m *Message) { m.Prepared[rng.Intn(len(m.Prepared))].View++ },
	func(rng *rand.Rand, m *Message) { m.Prepared[rng.Intn(len(m.Prepared))].SeqNo++ },
	func(rng *rand.Rand, m *Message) { flipBit(rng, m.Prepared[rng.Intn(len(m.Prepared))].BatchDigest[:]) },
	func(_ *rand.Rand, m *Message) { m.Prepared[0].Prepares = m.Prepared[0].Prepares[1:] },
	func(rng *rand.Rand, m *Message) {
		p := &m.Prepared[rng.Intn(len(m.Prepared))]
		p.Prepares = append(p.Prepares, Message{})
	},
	func(rng *rand.Rand, m *Message) { m.Prepared[0].Prepares[rng.Intn(2)].From++ },
	func(rng *rand.Rand, m *Message) { flipBit(rng, m.Prepared[0].Prepares[rng.Intn(2)].Sig) },
	// A byte moved across a variable-length boundary: first prepare's
	// signature → second's.
	func(_ *rand.Rand, m *Message) {
		p := &m.Prepared[0]
		moveByte(&p.Prepares[0].Sig, &p.Prepares[1].Sig)
	},
}

// TestSignedInputInjective: two messages that differ in any one covered
// field — or only in where a boundary between two variable-length fields
// falls — have different signed inputs.
func TestSignedInputInjective(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSigned(rng)
		b := cloneCovered(a)
		change := int(which) % len(messageChanges)
		messageChanges[change](rng, b)
		if bytes.Equal(a.signedInput(), b.signedInput()) {
			t.Logf("change %d left the signed input unchanged", change)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50 * len(messageChanges), Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDigestInputInjective: the same property for the request input, whose
// one variable-length field is last.
func TestDigestInputInjective(t *testing.T) {
	changes := []func(r *Request){
		func(r *Request) { r.Client++ },
		func(r *Request) { r.Seq++ },
		func(r *Request) { r.Op = append(r.Op, 0) },
		func(r *Request) { r.Op[0] ^= 1 },
		func(r *Request) { r.Order = !r.Order },
	}
	f := func(client, seq uint64, op []byte, which uint8) bool {
		a := Request{Client: transport.NodeID(client), Seq: seq, Op: append([]byte{0}, op...)}
		b := a
		b.Op = bytes.Clone(a.Op)
		changes[int(which)%len(changes)](&b)
		return !bytes.Equal(a.digestInput(), b.digestInput())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestStreamedRequestInput: the request digest and the request MAC, which
// feed the request's input to the hash piecewise, equal the hash and the
// HMAC of the input built whole, for either Order bit; and a key reused
// for many MACs gives each the MAC a fresh key would.
func TestStreamedRequestInput(t *testing.T) {
	priv, peer := seededKey(0), seededKey(1).Public().(ed25519.PublicKey)
	reused, err := newReplyKey(priv, peer, true)
	if err != nil {
		t.Fatal(err)
	}
	f := func(client, seq uint64, op []byte, order bool) bool {
		req := Request{Client: transport.NodeID(client), Seq: seq, Op: op, Order: order}
		if req.Digest() != Digest(sha256.Sum256(req.digestInput())) {
			return false
		}
		fresh, err := newReplyKey(priv, peer, true)
		if err != nil {
			t.Fatal(err)
		}
		mac := hmac.New(sha256.New, fresh.mac[:])
		mac.Write(req.digestInput())
		msg := &Message{Type: MsgRequest, Request: &req}
		reused.Seal(msg)
		return bytes.Equal(msg.Sig, mac.Sum(nil)) && fresh.Verify(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// inputSink keeps the benchmarks' results alive, so the calls stay.
var inputSink []byte

// BenchmarkSignedInputPrepare builds the input of a prepare, the message
// every replica signs and verifies most often.
func BenchmarkSignedInputPrepare(b *testing.B) {
	m := &Message{Type: MsgPrepare, From: 1, View: 2, SeqNo: 17, Epoch: 3, BatchDigest: digestOf(0xb1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inputSink = m.signedInput()
	}
}

// BenchmarkSignedInputReply builds the MAC input of a 64-byte reply.
func BenchmarkSignedInputReply(b *testing.B) {
	m := &Message{Type: MsgReply, From: 1, Epoch: 3, ReplySeq: 42, ReplyClient: transport.ClientIDBase, Result: fill(0x11, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inputSink = m.signedInput()
	}
}

// BenchmarkDigestInput builds the signed input of a request with a 64-byte
// operation.
func BenchmarkDigestInput(b *testing.B) {
	req := &Request{Client: transport.ClientIDBase, Seq: 42, Op: fill(0x22, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inputSink = req.digestInput()
	}
}
