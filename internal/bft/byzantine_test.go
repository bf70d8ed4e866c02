package bft

import (
	"bytes"
	"crypto/ed25519"
	"testing"

	"lazarus/internal/transport"
)

func attackerForTest(t *testing.T, kind AttackKind) (*Attacker, ed25519.PublicKey) {
	t.Helper()
	pub, priv := keypair(t)
	return NewAttacker(0, priv, nil, kind, 99), pub
}

func mustEncode(t testing.TB, m *Message) []byte {
	t.Helper()
	p, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAttackerEquivocatesByDestination: the equivocating primary sends
// the genuine proposal to even peers and a well-formed conflicting one to
// odd peers — same (view, seq), different batch. Proposals are unsigned:
// the compromised primary's channel is all that vouches for either.
func TestAttackerEquivocatesByDestination(t *testing.T) {
	atk, _ := attackerForTest(t, AttackEquivocate)
	batch := &Batch{Requests: []Request{{Client: transport.ClientIDBase, Seq: 1, Op: []byte("add 1")}}}
	pp := &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 3, Batch: batch, BatchDigest: batch.Digest()}
	payload := mustEncode(t, pp)

	even := atk.Intercept(2, payload)
	if len(even) != 1 || !bytes.Equal(even[0], payload) {
		t.Fatal("even-numbered peer did not get the genuine proposal")
	}
	odd := atk.Intercept(1, payload)
	if len(odd) != 1 || bytes.Equal(odd[0], payload) {
		t.Fatal("odd-numbered peer did not get a conflicting proposal")
	}
	forged, err := Decode(odd[0])
	if err != nil {
		t.Fatal(err)
	}
	if forged.View != pp.View || forged.SeqNo != pp.SeqNo {
		t.Fatalf("forged proposal moved to (%d,%d), want same slot (%d,%d)",
			forged.View, forged.SeqNo, pp.View, pp.SeqNo)
	}
	if forged.BatchDigest == pp.BatchDigest {
		t.Fatal("forged proposal carries the same batch")
	}
	if forged.Batch.Digest() != forged.BatchDigest {
		t.Fatal("forged proposal's batch does not match its digest — it would be trivially rejected")
	}
}

// TestAttackerGarblesPrepareAheadOfGenuine: even-numbered peers get a
// copy of the prepare whose signature fails, then the genuine vote;
// odd-numbered peers get the digest-flipped vote alone.
func TestAttackerGarblesPrepareAheadOfGenuine(t *testing.T) {
	atk, pub := attackerForTest(t, AttackEquivocate)
	pm := &Message{Type: MsgPrepare, From: 0, View: 0, SeqNo: 3, BatchDigest: Digest{7}}
	pm.Sign(atk.key)
	payload := mustEncode(t, pm)

	even := atk.Intercept(2, payload)
	if len(even) != 2 || !bytes.Equal(even[1], payload) {
		t.Fatalf("even-numbered peer got %d payloads, want a garbled copy then the genuine vote", len(even))
	}
	garbled, err := Decode(even[0])
	if err != nil {
		t.Fatal(err)
	}
	if garbled.SeqNo != pm.SeqNo || garbled.BatchDigest != pm.BatchDigest || garbled.VerifySig(pub) {
		t.Fatal("the copy ahead of the genuine vote is not the same vote with a failing signature")
	}
	if odd := atk.Intercept(1, payload); len(odd) != 1 {
		t.Fatalf("odd-numbered peer got %d payloads, want the flipped vote alone", len(odd))
	}
	if st := atk.Stats(); st.Garbled != 1 || st.Equivocated != 1 {
		t.Fatalf("stats %+v, want one garbled and one equivocated send", st)
	}
}

// TestAttackerForgesValidlySealedReplies: holding a replica's key and the
// clients' public keys is holding its reply keys, so the forged result
// passes the client's MAC check — and only the f+1 rule keeps it out.
func TestAttackerForgesValidlySealedReplies(t *testing.T) {
	cid := transport.ClientIDBase
	cpub, cpriv := keypair(t)
	pubs, privs := replicaKeys(t, 4)
	atk := NewAttacker(0, privs[0], map[transport.NodeID]ed25519.PublicKey{cid: cpub}, AttackEquivocate, 99)
	clientKeys := deriveReplyKeys(cpriv, pubs, nil)

	replies := make(map[transport.NodeID]*Message)
	for id := transport.NodeID(0); id < 4; id++ {
		m := &Message{Type: MsgReply, From: id, ReplySeq: 1, ReplyClient: cid, Result: []byte("7")}
		replicaKey, err := newReplyKey(privs[id], cpub, false)
		if err != nil {
			t.Fatal(err)
		}
		replicaKey.Seal(m)
		replies[id] = m
	}
	out := atk.Intercept(cid, mustEncode(t, replies[0]))
	if len(out) != 1 {
		t.Fatalf("got %d payloads, want 1", len(out))
	}
	forged, err := Decode(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(forged.Result, replies[0].Result) {
		t.Fatal("reply result was not forged")
	}
	if !clientKeys[0].Verify(forged) {
		t.Fatal("forged reply fails the client's MAC check — it would be trivially rejected")
	}

	votes := newTally([]transport.NodeID{0, 1, 2, 3}, 1, nil, 0)
	if res, ok := votes.add(0, forged); ok {
		t.Fatalf("one forged vote completed %q", res)
	}
	var (
		res []byte
		ok  bool
	)
	for id := transport.NodeID(1); id < 4; id++ {
		if !clientKeys[id].Verify(replies[id]) {
			t.Fatalf("genuine reply from %d rejected", id)
		}
		res, ok = votes.add(id, replies[id])
		if id == 1 && ok {
			t.Fatalf("one forged and one genuine vote reached f+1 on %q", res)
		}
	}
	if !ok || !bytes.Equal(res, replies[1].Result) {
		t.Fatalf("tally = %q, %v; want the genuine result", res, ok)
	}
}

// TestAttackerReplayIsSeededDeterministic: identical seeds and inputs
// yield identical replay schedules, so chaos runs reproduce.
func TestAttackerReplayIsSeededDeterministic(t *testing.T) {
	_, priv := keypair(t)
	run := func() [][]byte {
		atk := NewAttacker(0, priv, nil, AttackReplay, 7)
		var out [][]byte
		for seq := uint64(1); seq <= 20; seq++ {
			m := &Message{Type: MsgPrepare, From: 0, View: 0, SeqNo: seq, BatchDigest: Digest{byte(seq)}}
			m.Sign(priv)
			out = append(out, atk.Intercept(1, mustEncode(t, m))...)
		}
		if atk.Stats().Replayed == 0 {
			t.Fatal("20 intercepted prepares produced no replays")
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("replay schedules diverged: %d vs %d payloads", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("payload %d diverged between identically seeded attackers", i)
		}
	}
}

// TestAttackerAnswersReadsFromFrozenState: a replay attacker given a
// frozen state answers the reads its replica was sent from that state,
// validly sealed, and passes every other reply through.
func TestAttackerAnswersReadsFromFrozenState(t *testing.T) {
	cid := transport.ClientIDBase
	cpub, cpriv := keypair(t)
	pubs, privs := replicaKeys(t, 4)
	atk := NewAttacker(0, privs[0], map[transport.NodeID]ed25519.PublicKey{cid: cpub}, AttackReplay, 99)
	frozen := newRegisterApp()
	frozen.regs["k"] = "old"
	atk.FreezeReads(frozen)
	read := Request{Client: cid, Seq: 5, Op: []byte("r k")}
	atk.Observe(cid, mustEncode(t, &Message{Type: MsgRequest, From: cid, Request: &read}))

	replicaKey, err := newReplyKey(privs[0], cpub, false)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(typ MsgType, seq uint64) *Message {
		t.Helper()
		m := &Message{Type: typ, From: 0, Epoch: 2, ReplySeq: seq, ReplyClient: cid, Result: []byte("new")}
		replicaKey.Seal(m)
		got, err := Decode(atk.Intercept(cid, mustEncode(t, m))[0])
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	stale := answer(MsgReadReply, 5)
	if string(stale.Result) != "old" || stale.Epoch != 2 || !deriveReplyKeys(cpriv, pubs, nil)[0].Verify(stale) {
		t.Fatalf("read answered %q at epoch %d (sealed: %v), want the frozen state's \"old\", validly sealed",
			stale.Result, stale.Epoch, deriveReplyKeys(cpriv, pubs, nil)[0].Verify(stale))
	}
	if got := answer(MsgReadReply, 6); string(got.Result) != "new" {
		t.Errorf("reply to a read the attacker never saw became %q", got.Result)
	}
	if got := answer(MsgReply, 5); string(got.Result) != "new" {
		t.Errorf("ordered reply became %q", got.Result)
	}
	if n := atk.Stats().StaleReads; n != 1 {
		t.Errorf("StaleReads = %d, want 1", n)
	}
}

// TestAttackerCorruptsSnapshotsValidlySigned: the poisoned snapshot
// differs from the original but still verifies against the compromised
// replica's key — only f+1 matching-copy counting can keep it out.
func TestAttackerCorruptsSnapshotsValidlySigned(t *testing.T) {
	atk, pub := attackerForTest(t, AttackCorruptState)
	reply := &Message{Type: MsgStateReply, From: 0, SnapSeqNo: 16, Snapshot: bytes.Repeat([]byte("state"), 20)}
	reply.Sign(atk.key)

	out := atk.Intercept(1, mustEncode(t, reply))
	if len(out) != 1 {
		t.Fatalf("got %d payloads, want 1", len(out))
	}
	forged, err := Decode(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(forged.Snapshot, reply.Snapshot) {
		t.Fatal("snapshot was not corrupted")
	}
	if !forged.VerifySig(pub) {
		t.Fatal("corrupted snapshot is not validly signed")
	}
}

// TestAttackerCensorsPrimaryTraffic: pre-prepares and replies vanish,
// everything else passes — the stall that must cost the attacker its
// primaryship.
func TestAttackerCensorsPrimaryTraffic(t *testing.T) {
	atk, _ := attackerForTest(t, AttackCensor)
	pp := &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: &Batch{}}
	pp.BatchDigest = pp.Batch.Digest()
	pp.Sign(atk.key)
	if out := atk.Intercept(1, mustEncode(t, pp)); len(out) != 0 {
		t.Fatalf("censored pre-prepare was delivered (%d payloads)", len(out))
	}
	vc := &Message{Type: MsgViewChange, From: 0, NewView: 1}
	vc.Sign(atk.key)
	if out := atk.Intercept(1, mustEncode(t, vc)); len(out) != 1 {
		t.Fatal("non-censored traffic did not pass through")
	}
	if atk.Stats().Censored != 1 {
		t.Fatalf("censored count %d, want 1", atk.Stats().Censored)
	}
}
