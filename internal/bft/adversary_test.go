package bft

// White-box regression tests for the protocol holes the Byzantine chaos
// attackers (byzantine.go, controlplane/chaos.go) flushed out. Each test
// fails on the pre-fix code; together they pin the validation gaps shut:
// forged prepared proofs in view changes, stale-epoch view-change and
// new-view replay, certificate stripping, executed-instance digest
// rebinding, epoch-probe pinning, lying state-transfer vouchers and
// unauthenticated state requests.

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/gob"
	"testing"
	"time"

	"lazarus/internal/transport"
)

// TestNewViewRequiresPreparedCertificates: a prepared proof carried by a
// view change used to be trusted on its word — any single Byzantine
// member could fabricate a high-view proof and steer the new primary
// into re-proposing a batch that never prepared, overriding the genuine
// prepared batch at the same sequence number. Proofs must now carry a
// certificate (2f signed matching prepares from non-primary members) to
// be considered at all.
func TestNewViewRequiresPreparedCertificates(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 7")}}
	d := batch.Digest()
	// Genuine certificate for view 0: 2f=2 signed prepares from
	// non-primary members 1 and 2.
	pr1 := signedMsg(c, &Message{Type: MsgPrepare, From: 1, View: 0, SeqNo: 1, BatchDigest: d})
	pr2 := signedMsg(c, &Message{Type: MsgPrepare, From: 2, View: 0, SeqNo: 1, BatchDigest: d})
	genuine := PreparedProof{View: 0, SeqNo: 1, BatchDigest: d, Batch: batch,
		Prepares: []Message{*pr1, *pr2}}

	// Forged proof from Byzantine member 3: a *higher* view (so the
	// highest-view-wins rule would pick it) binding a different batch to
	// the same sequence number, with no certificate at all.
	forgedBatch := &Batch{}
	forged := PreparedProof{View: 5, SeqNo: 1, BatchDigest: forgedBatch.Digest(), Batch: forgedBatch}

	vcs := []Message{
		{Type: MsgViewChange, From: 1, NewView: 6, Prepared: []PreparedProof{genuine}},
		{Type: MsgViewChange, From: 2, NewView: 6},
		{Type: MsgViewChange, From: 3, NewView: 6, Prepared: []PreparedProof{forged}},
	}
	out := buildNewViewProposals(6, 0, vcs, c.membership)
	if len(out) != 1 {
		t.Fatalf("got %d re-proposals, want 1", len(out))
	}
	if out[0].BatchDigest != d {
		t.Fatalf("forged certificate-free proof won the re-proposal (digest %v, want %v)", out[0].BatchDigest, d)
	}

	// A certificate padded with garbage prepares must not validate either:
	// lenient counting skips them, leaving fewer than 2f valid ones.
	padded := forged
	padded.Prepares = []Message{
		{Type: MsgPrepare, From: 2, View: 5, SeqNo: 1, BatchDigest: forgedBatch.Digest(), Sig: make([]byte, 64)},
		{Type: MsgPrepare, From: 3, View: 5, SeqNo: 1, BatchDigest: forgedBatch.Digest(), Sig: make([]byte, 64)},
	}
	if validPreparedProof(&padded, c.membership) {
		t.Fatal("proof with garbage prepares validated")
	}
	if !validPreparedProof(&genuine, c.membership) {
		t.Fatal("genuine certificate rejected")
	}
}

// TestViewChangeSignatureCoversCertificates: the view-change signature
// must bind the embedded certificates — otherwise a Byzantine new
// primary could strip the certificates out of honest view changes nested
// in its NEW-VIEW, turning valid prepared proofs into discardable ones
// (and the genuinely prepared batch into a null re-proposal).
func TestViewChangeSignatureCoversCertificates(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 1")}}
	d := batch.Digest()
	pr := signedMsg(c, &Message{Type: MsgPrepare, From: 2, View: 0, SeqNo: 1, BatchDigest: d})
	vc := &Message{Type: MsgViewChange, From: 1, NewView: 2, Prepared: []PreparedProof{{
		View: 0, SeqNo: 1, BatchDigest: d, Batch: batch, Prepares: []Message{*pr},
	}}}
	vc.Sign(c.keys[1])
	if !vc.VerifySig(c.pubs[1]) {
		t.Fatal("signed view change does not verify")
	}
	stripped := *vc
	stripped.Prepared = []PreparedProof{{View: 0, SeqNo: 1, BatchDigest: d, Batch: batch}}
	if stripped.VerifySig(c.pubs[1]) {
		t.Fatal("signature still verifies after the certificate was stripped")
	}
}

// TestViewChangeRejectsStaleEpoch: a view change signed under another
// membership configuration must not count toward this epoch's quorum —
// replayed pre-reconfiguration view changes could otherwise assemble a
// NEW-VIEW whose re-proposals predate the reconfiguration.
func TestViewChangeRejectsStaleEpoch(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	stale := &Message{Type: MsgViewChange, From: 2, NewView: 1, Epoch: 7}
	stale.Sign(c.keys[2])
	r.onViewChange(stale)
	if r.viewChanges[1][2] != nil {
		t.Fatal("view change from another epoch was recorded")
	}

	fresh := &Message{Type: MsgViewChange, From: 2, NewView: 1, Epoch: r.membership.Epoch}
	fresh.Sign(c.keys[2])
	r.onViewChange(fresh)
	if r.viewChanges[1][2] == nil {
		t.Fatal("current-epoch view change was not recorded")
	}
}

// TestViewChangeJoinsOthersHigherView: a replica already volunteering for
// a low view — it lagged, or its timer fired just before the others'
// votes arrived — joins the view f+1 others volunteered for, instead of
// escalating one view per timeout while the group waits for its vote.
func TestViewChangeJoinsOthersHigherView(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[3]
	r.startViewChange(1)
	for _, from := range []transport.NodeID{1, 2} {
		vc := &Message{Type: MsgViewChange, From: from, NewView: 6, Epoch: r.membership.Epoch}
		vc.Sign(c.keys[from])
		r.onViewChange(vc)
	}
	if r.vcTarget != 6 || r.viewChanges[6][r.cfg.ID] == nil {
		t.Fatalf("volunteering for view %d, want view 6, which two others volunteered for", r.vcTarget)
	}
}

// TestNewViewRejectsStaleEpoch: a NEW-VIEW replayed from before a
// reconfiguration must not install a view.
func TestNewViewRejectsStaleEpoch(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[2]
	r.membership.Epoch = 1 // the replica moved on; epoch-0 traffic is stale

	var vcs []Message
	for _, from := range []transport.NodeID{0, 2, 3} {
		vc := Message{Type: MsgViewChange, From: from, NewView: 1, Epoch: 0}
		vc.Sign(c.keys[from])
		vcs = append(vcs, vc)
	}
	nv := &Message{Type: MsgNewView, From: 1, NewView: 1, Epoch: 0, NewViewMsgs: vcs}
	nv.Sign(c.keys[1])
	r.onNewView(nv)
	if r.view != 0 {
		t.Fatalf("stale-epoch NEW-VIEW installed view %d", r.view)
	}
}

// TestPrepareFromEarlierViewDoesNotCount documents the replay guard on
// the prepare path: a (correctly signed) prepare vote from an old view
// re-sent after a view change must not register in the new view.
func TestPrepareFromEarlierViewDoesNotCount(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[2]
	r.view = 1 // the replica installed view 1

	stale := signedMsg(c, &Message{Type: MsgPrepare, From: 3, View: 0, SeqNo: 1, BatchDigest: badDigest})
	r.onPrepare(stale)
	if in, ok := r.log[1]; ok && len(in.prepares) > 0 {
		t.Fatal("old-view prepare was counted in the new view")
	}

	fresh := signedMsg(c, &Message{Type: MsgPrepare, From: 3, View: 1, SeqNo: 1, BatchDigest: badDigest})
	r.onPrepare(fresh)
	if in, ok := r.log[1]; !ok || len(in.prepares) == 0 {
		t.Fatal("current-view prepare was not buffered")
	}
}

// TestExecutedInstanceDigestImmutable: once an instance executed, no
// later proposal — not even a new-view re-proposal — may rebind its
// sequence number to a different batch.
func TestExecutedInstanceDigestImmutable(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 3")}}
	good := batch.Digest()
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
		Batch: batch, BatchDigest: good}))
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: 1, BatchDigest: good}))
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: good})
	}
	if in := r.log[1]; in == nil || !in.executed {
		t.Fatal("instance did not execute")
	}

	evil := &Batch{}
	r.acceptPrePrepare(&Message{Type: MsgPrePrepare, From: 0, View: 3, SeqNo: 1,
		Batch: evil, BatchDigest: evil.Digest()})
	in := r.log[1]
	if in.digest != good {
		t.Fatal("executed instance's digest was rebound to a different batch")
	}
}

// TestEpochSyncRequiresQuorumOfClaimants: a single member claiming a
// (possibly absurd) higher epoch used to trigger a state transfer and pin
// epochProbe at the claimed value, keeping the replica in perpetual
// state-transfer noise. f+1 distinct claimants are required now.
func TestEpochSyncRequiresQuorumOfClaimants(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	r.dispatch(&Message{Type: MsgCommit, From: 2, View: 0, SeqNo: 1, Epoch: 1 << 40, BatchDigest: badDigest})
	if r.epochProbe != 0 {
		t.Fatalf("single claimant pinned epochProbe at %d", r.epochProbe)
	}
	// A second distinct claimant (f+1 = 2 at n=4) with a lower claim:
	// the sync triggers at the smallest claimed epoch, the value f+1
	// members actually back.
	r.dispatch(&Message{Type: MsgCommit, From: 3, View: 0, SeqNo: 1, Epoch: 3, BatchDigest: badDigest})
	if r.epochProbe != 3 {
		t.Fatalf("epochProbe %d after f+1 claimants, want the smallest claim 3", r.epochProbe)
	}
}

// evilSnapshot builds a decodable replica snapshot with attacker-chosen
// application state, claiming the given sequence number under the
// replica's current membership, and the state reply a voucher would sign
// for it (digest included: the vouchers lie consistently).
func evilSnapshot(t *testing.T, r *Replica, seq uint64, value int64) *Message {
	t.Helper()
	var app bytes.Buffer
	if err := gob.NewEncoder(&app).Encode(value); err != nil {
		t.Fatal(err)
	}
	snap := replicaSnapshot{LastExec: seq, Epoch: r.membership.Epoch}
	for _, id := range r.membership.Replicas {
		snap.Members = append(snap.Members, memberEntry{ID: id, Key: append([]byte(nil), r.membership.Keys[id]...)})
	}
	digest := stateDigest(sha256.Sum256(app.Bytes()), &snap)
	snap.AppState = app.Bytes()
	return &Message{Type: MsgStateReply, SnapSeqNo: seq, Snapshot: snap.encode(), StateDigest: digest}
}

// vouch delivers reply to r as if each of the given members had signed it.
func vouch(c *cluster, r *Replica, reply *Message, from ...transport.NodeID) {
	for _, id := range from {
		m := *reply
		m.From = id
		m.Sign(c.keys[id])
		r.onStateReply(&m)
	}
}

// TestStateReplyRejectsRemovedVoucher is the lying-voucher regression:
// snapshot vouchers used to authenticate against boot OR current
// membership, so a replica removed from the group (removed precisely
// because it is suspected compromised) still counted toward the f+1
// restore quorum — one removed boot member plus one compromised current
// member beat f=1 and fed the replica fabricated state. Vouchers must be
// current members.
func TestStateReplyRejectsRemovedVoucher(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	// The group swapped boot member 0 out for 4 (r's view of it).
	pub4, _ := keypair(t)
	withAdd, err := r.membership.WithAdded(4, pub4)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := withAdd.WithRemoved(0)
	if err != nil {
		t.Fatal(err)
	}
	r.membership = cur // n=4, f=1: restore needs f+1 = 2 matching vouchers

	evil := evilSnapshot(t, r, 50, 666)
	vouch(c, r, evil, 0, 2) // removed ex-member + one compromised member
	if r.lastExec != 0 || c.apps[1].Value() != 0 {
		t.Fatalf("removed boot member's voucher counted: restored to seq %d value %d",
			r.lastExec, c.apps[1].Value())
	}

	// Control: two current members vouching the same snapshot restore it
	// (the f+1 counting itself still works).
	vouch(c, r, evil, 2, 3)
	if r.lastExec != 50 {
		t.Fatalf("current-member vouchers did not restore (lastExec %d)", r.lastExec)
	}
}

// TestStateRestoreFailureEvictsLyingGroup: when an f+1-vouched snapshot
// fails to restore (it cannot come from f+1 honest replicas — an honest
// snapshot always decodes), every voucher of that snapshot must be
// evicted so the retry re-forms the quorum from other peers; the lying
// replies used to linger in stReplies forever.
func TestStateRestoreFailureEvictsLyingGroup(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	vouch(c, r, &Message{Type: MsgStateReply, SnapSeqNo: 40, Snapshot: []byte("not a snapshot envelope")}, 2, 3)
	if r.lastExec != 0 {
		t.Fatalf("undecodable snapshot restored (lastExec %d)", r.lastExec)
	}
	for _, from := range []transport.NodeID{2, 3} {
		if _, ok := r.stReplies[from]; ok {
			t.Fatalf("lying voucher %d still in stReplies after failed restore", from)
		}
	}

	// The honest quorum restores on retry.
	vouch(c, r, evilSnapshot(t, r, 50, 9), 0, 2)
	if r.lastExec != 50 {
		t.Fatalf("honest snapshot did not restore after eviction (lastExec %d)", r.lastExec)
	}
}

// TestStateRequestRequiresAuthentication: serving snapshots to
// unauthenticated requesters made state requests a free amplification
// lever (tiny request in, multi-KB snapshot out) for anyone who could
// name a replica id.
func TestStateRequestRequiresAuthentication(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	r.lastExec, r.lowWater = 20, 20
	var err error
	if r.lastSnap, err = r.freeze(); err != nil {
		t.Fatal(err)
	}

	ep, err := c.net.Endpoint(3) // replica 3 is unstarted; drain its inbox directly
	if err != nil {
		t.Fatal(err)
	}

	unsigned := &Message{Type: MsgStateRequest, From: 3, SeqNo: 0, Epoch: 0}
	r.onStateRequest(unsigned)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	if env, err := ep.Recv(ctx); err == nil {
		cancel()
		t.Fatalf("unauthenticated state request was served (%d bytes)", len(env.Payload))
	}
	cancel()

	signed := &Message{Type: MsgStateRequest, From: 3, SeqNo: 0, Epoch: 0}
	signed.Sign(c.keys[3])
	r.onStateRequest(signed)
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	env, err := ep.Recv(ctx)
	if err != nil {
		t.Fatal("authenticated state request got no reply")
	}
	reply, err := Decode(env.Payload)
	if err != nil || reply.Type != MsgStateReply || reply.SnapSeqNo != 20 {
		t.Fatalf("got %v / %v, want the stable snapshot at seq 20", reply, err)
	}
}

// TestPreparedRequiresSameViewCertificate: the prepared predicate used
// to fire on the raw 2f+1 digest tally. Vote tallies are retained across
// a view change (that is what un-strands stragglers), so after a
// re-proposal the tally holds the OLD primary's implicit pre-prepare
// vote, the NEW primary's implicit vote and the replica's own — 2f+1
// with f=1 and zero signed prepares from the re-proposal's view. A
// replica that declared prepared on that tally voted commit while
// holding a certificate validPreparedProof discards, so the next view
// change could re-propose a null batch over a sequence number the group
// had already executed: the safety divergence the Byzantine chaos
// harness caught. Prepared must wait for 2f same-view signed prepares.
func TestPreparedRequiresSameViewCertificate(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[2]

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 3")}}
	d := batch.Digest()

	// View 0: replica 2 accepts primary 0's proposal. Tally: self + the
	// primary's implicit vote — two of three, not prepared.
	pp := signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
		Batch: batch, BatchDigest: d})
	r.onPrePrepare(pp)
	if in := r.log[1]; in == nil || in.prepared {
		t.Fatalf("setup: instance missing or already prepared after lone pre-prepare")
	}

	// View change to view 1 (primary 1), re-proposing the same batch: a
	// genuine certificate from view 0 rides in member 1's view change.
	cert := PreparedProof{View: 0, SeqNo: 1, BatchDigest: d, Batch: batch,
		Prepares: []Message{
			*signedMsg(c, &Message{Type: MsgPrepare, From: 1, View: 0, SeqNo: 1, BatchDigest: d}),
			*signedMsg(c, &Message{Type: MsgPrepare, From: 3, View: 0, SeqNo: 1, BatchDigest: d}),
		}}
	vcs := []Message{
		*signedMsg(c, &Message{Type: MsgViewChange, From: 0, NewView: 1}),
		*signedMsg(c, &Message{Type: MsgViewChange, From: 1, NewView: 1, Prepared: []PreparedProof{cert}}),
		*signedMsg(c, &Message{Type: MsgViewChange, From: 3, NewView: 1}),
	}
	reproposals := buildNewViewProposals(1, 0, vcs, c.membership)
	if len(reproposals) != 1 || reproposals[0].BatchDigest != d {
		t.Fatalf("setup: want one re-proposal of the genuine batch, got %v", reproposals)
	}
	nv := signedMsg(c, &Message{Type: MsgNewView, From: 1, NewView: 1,
		NewViewMsgs: vcs})
	r.onNewView(nv)

	in := r.log[1]
	if in == nil {
		t.Fatal("instance dropped across the view change despite a matching re-proposal")
	}
	if r.view != 1 {
		t.Fatalf("view = %d, want 1", r.view)
	}
	// The tally now spans views: old primary 0, new primary 1, self. The
	// only signed prepare from view 1 is the replica's own — one short of
	// the 2f the certificate needs, so prepared must NOT fire yet.
	if in.prepared {
		t.Fatalf("prepared fired on a cross-view tally: certificate holds %d same-view prepares, need %d",
			len(in.cert.Prepares), 2*c.membership.F())
	}

	// A fresh same-view prepare from member 3 completes the certificate.
	r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: 3, View: 1, SeqNo: 1, BatchDigest: d}))
	in = r.log[1]
	if in == nil || !in.prepared {
		t.Fatal("prepared did not fire once 2f same-view signed prepares arrived")
	}
	if in.cert == nil || !validPreparedProof(in.cert, c.membership) {
		t.Fatal("prepared fired but the snapshotted certificate does not validate")
	}
}

// TestQuorumIntersectionHoldsForAllGroupSizes: Quorum() was hardcoded
// 2f+1, which is quorum-safe only at exactly n=3f+1. The add-then-remove
// reconfiguration runs the group at n=3f+2 between the ADD and the
// REMOVE, where two 2f+1 quorums of a 5-member group can intersect in a
// single — possibly Byzantine — replica: the chaos harness caught a
// batch committing through one 3-of-5 quorum while a view change built
// from a mostly-disjoint 3-of-5 quorum saw no certificate for it and
// nulled out the executed sequence number. Any two quorums must
// intersect in at least f+1 replicas at EVERY size the group passes
// through.
func TestQuorumIntersectionHoldsForAllGroupSizes(t *testing.T) {
	for n := 4; n <= 13; n++ {
		ids := make([]transport.NodeID, n)
		pubs := make(map[transport.NodeID]ed25519.PublicKey, n)
		for i := range ids {
			ids[i] = transport.NodeID(i)
			pubs[ids[i]], _ = keypair(t)
		}
		mem, err := NewMembership(ids, pubs)
		if err != nil {
			t.Fatal(err)
		}
		f, q := mem.F(), mem.Quorum()
		if q > n {
			t.Errorf("n=%d: quorum %d exceeds the group", n, q)
		}
		// Two quorums overlap in at least 2q-n members; safety needs an
		// honest replica in every overlap even with f compromised.
		if 2*q-n < f+1 {
			t.Errorf("n=%d f=%d: quorums of %d can intersect in %d members, need >= %d",
				n, f, q, 2*q-n, f+1)
		}
		if n == 3*f+1 && q != 2*f+1 {
			t.Errorf("n=%d (steady state 3f+1): quorum %d, want the classic %d", n, q, 2*f+1)
		}
	}
}

// TestReconfigFencesPipelinedInstances: an instance pipelined past a
// reconfiguration was proposed — and certified — under the OLD epoch's
// membership. A view change in the new epoch cannot validate that
// certificate (different quorum thresholds and view→primary mapping),
// so it would discard it and re-propose a null batch over a sequence
// number other replicas executed for real, splitting the group.
// Executing a reconfiguration must therefore fence the pipeline: drop
// every in-flight instance above it, requeue their requests, and rewind
// the proposal counter so the new epoch reuses those sequence numbers.
func TestReconfigFencesPipelinedInstances(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // backup of view 0; unstarted, driven directly

	// Seq 1: a controller-signed reconfiguration (ADD replica 9).
	newPub, _ := keypair(t)
	op := EncodeReconfigOp(ReconfigOp{Add: true, Replica: 9, PubKey: newPub})
	recReq := Request{Client: transport.ClientIDBase + 999, Seq: 1, Op: op}
	recReq.Sign(c.ctrlPriv)
	recBatch := &Batch{Requests: []Request{recReq}}

	// Seq 2: a normal request the primary pipelined past the reconfig.
	userReq := signedReq(c, transport.ClientIDBase, 1, "add 3")
	userBatch := &Batch{Requests: []Request{userReq}}

	for seq, b := range []*Batch{recBatch, userBatch} {
		r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0,
			SeqNo: uint64(seq + 1), Batch: b, BatchDigest: b.Digest()}))
	}

	// Drive ONLY seq 1 (the reconfiguration) to execution.
	rd := recBatch.Digest()
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: 1, BatchDigest: rd}))
	}
	for _, from := range []transport.NodeID{0, 2} {
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: rd})
	}

	if r.lastExec != 1 {
		t.Fatalf("reconfiguration did not execute (lastExec %d)", r.lastExec)
	}
	if r.membership.Epoch != 1 {
		t.Fatalf("epoch %d after reconfiguration, want 1", r.membership.Epoch)
	}
	if in := r.log[2]; in != nil {
		t.Fatal("instance pipelined past the reconfiguration survived the epoch fence")
	}
	if r.seq != r.lastExec {
		t.Fatalf("proposal counter %d not rewound to lastExec %d: the dropped "+
			"sequence number would never be re-proposed and execution would stall", r.seq, r.lastExec)
	}
	if !r.pendingSet[userReq.Digest()] {
		t.Fatal("fenced instance's request was not requeued")
	}
}

// TestCatchUpCertificateHealsEquivocatedStraggler: a straggler fed the
// minority variant by an equivocating primary can never assemble a
// same-view prepare quorum for it, and commit votes for the majority
// digest used to be discarded as mismatched — wedging the replica
// forever. The fix is two-sided: mismatched commit votes are buffered
// (digest filtering happens at tally time), and a caught-up peer answers
// with a MsgCatchUp carrying the full prepared certificate, which the
// straggler validates on its own merits and adopts wholesale.
func TestCatchUpCertificateHealsEquivocatedStraggler(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[3] // the equivocation victim; unstarted, driven directly

	minority := &Batch{}
	majority := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 5")}}
	md := majority.Digest()

	// Equivocating primary 0 fed this replica the empty variant.
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
		Batch: minority, BatchDigest: minority.Digest()}))

	// The honest quorum's commit votes arrive carrying the majority
	// digest. They conflict with our instance's digest but MUST be
	// buffered: once the certificate below proves the quorum went the
	// other way, these are exactly the votes that complete commitment.
	for _, from := range []transport.NodeID{1, 2} {
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: md})
	}
	if r.lastExec != 0 {
		t.Fatalf("executed prematurely (lastExec %d)", r.lastExec)
	}

	// A caught-up peer answers with the prepared certificate: quorum-1
	// signed same-view prepares.
	pr1 := signedMsg(c, &Message{Type: MsgPrepare, From: 1, View: 0, SeqNo: 1, BatchDigest: md})
	pr2 := signedMsg(c, &Message{Type: MsgPrepare, From: 2, View: 0, SeqNo: 1, BatchDigest: md})
	r.onCatchUp(&Message{Type: MsgCatchUp, From: 1, SeqNo: 1, Prepared: []PreparedProof{{
		View: 0, SeqNo: 1, BatchDigest: md, Batch: majority, Prepares: []Message{*pr1, *pr2},
	}}})

	if in := r.log[1]; in == nil || in.digest != md {
		t.Fatal("certificate was not adopted over the minority proposal")
	}
	if r.lastExec != 1 {
		t.Fatal("buffered majority commits + adopted certificate did not execute: straggler stays wedged")
	}
	if got := c.apps[3].Value(); got != 5 {
		t.Fatalf("executed the wrong batch: counter %d, want 5", got)
	}
}

// TestNewViewRewindsPhantomPipeline: installNewView discards in-flight
// instances not re-proposed in O, but it used to only ever RAISE the
// proposal counter. The counter then pointed past instances that no
// longer exist, so the primary counted r.seq-r.lastExec ghosts against
// PipelineDepth and — with the pipeline "full" of phantoms — never
// proposed again: a permanent, view-change-storm-shaped livelock. The
// counter must be re-anchored to the reconciled log.
func TestNewViewRewindsPhantomPipeline(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // primary of view 1; unstarted, driven directly

	// Four in-flight proposals from view 0; none prepared.
	batches := make([]*Batch, 5)
	for seq := uint64(1); seq <= 4; seq++ {
		b := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, seq, "add 1")}}
		batches[seq] = b
		r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0,
			SeqNo: seq, Batch: b, BatchDigest: b.Digest()}))
	}
	r.seq = 4 // where a primary's counter stands with four in flight

	// The view change's O re-proposes only seq 1 (nothing else prepared).
	r.installNewView(1, []Message{{Type: MsgPrePrepare, View: 1, SeqNo: 1,
		Batch: batches[1], BatchDigest: batches[1].Digest()}}, 0)

	if r.seq != 1 {
		t.Fatalf("proposal counter %d after new view, want 1: the %d phantom instances "+
			"would permanently exhaust the pipeline", r.seq, r.seq-1)
	}
	for seq := uint64(2); seq <= 4; seq++ {
		if r.log[seq] != nil {
			t.Fatalf("discarded instance %d still in the log", seq)
		}
		if !r.pendingSet[batches[seq].Requests[0].Digest()] {
			t.Fatalf("request from discarded instance %d was not requeued", seq)
		}
	}
}

// drainInbox empties the transport inbox of an UNSTARTED replica,
// decoding each frame and stamping the transport-layer sender the way
// the replica's pump does. Delivery in the test Memory network is
// synchronous, so everything already sent is already queued.
func drainInbox(t *testing.T, c *cluster, id transport.NodeID) []*Message {
	t.Helper()
	ep, err := c.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Message
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		env, err := ep.Recv(ctx)
		cancel()
		if err != nil {
			return out
		}
		m, err := Decode(env.Payload)
		if err != nil {
			continue
		}
		m.From = env.From
		out = append(out, m)
	}
}

// TestCheckpointStragglerRescue: checkpoint votes are broadcast exactly
// once, so a replica whose copies were lost (mid-state-transfer, or
// garbled by a Byzantine peer) could never stabilize its own checkpoint.
// Its window then jams against the stale low watermark
// (seq == lowWater+WindowSize), it stops accepting proposals, and during
// the reconfiguration window's n=3f+2 quorums that one silent replica
// wedges the whole group. The rescue protocol pinned here: every replica
// retains its newest signed vote past garbage collection, advertises its
// stable point on the vote (and on view changes), re-advertises the vote
// on progress timeouts while it is unstabilized, answers senders whose
// advertised stable point trails its own, and re-signs the retained
// vote's advertisement when the watermark advances.
func TestCheckpointStragglerRescue(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	straggler := c.replicas[1]
	helper := c.replicas[2]

	// Both executed through seq 8 and checkpointed — but every peer vote
	// the straggler should have received was lost in transit.
	straggler.lastExec, straggler.seq = 8, 8
	helper.lastExec, helper.seq = 8, 8
	straggler.takeCheckpoint(8)
	helper.takeCheckpoint(8)

	d := helper.ckpts[8].snapshot.digest
	if straggler.ckpts[8].snapshot.digest != d {
		t.Fatal("identical states hashed to different checkpoint digests")
	}
	if v := straggler.lastCkptVote; v == nil || v.SeqNo != 8 || v.LastStable != 0 {
		t.Fatalf("retained vote %+v, want seq 8 advertising stable point 0", v)
	}

	// The helper stabilizes checkpoint 8 with votes from 1 and 3.
	for _, from := range []transport.NodeID{1, 3} {
		helper.onCheckpoint(signedMsg(c, &Message{Type: MsgCheckpoint, From: from,
			SeqNo: 8, StateDigest: d}))
	}
	if helper.lowWater != 8 {
		t.Fatalf("helper low watermark %d, want 8", helper.lowWater)
	}
	// The retained vote's advertisement must track the new watermark AND
	// stay verifiable (the signature covers LastStable): a stale
	// advertisement would make two healthy replicas answer each other's
	// rescue votes forever.
	if helper.lastCkptVote.LastStable != 8 {
		t.Fatalf("retained vote advertises stable point %d after advance, want 8", helper.lastCkptVote.LastStable)
	}
	if !helper.lastCkptVote.VerifySig(c.pubs[2]) {
		t.Fatal("retained vote was not re-signed after its advertisement changed")
	}

	// The straggler's progress timer fires: it must re-advertise its
	// unstabilized vote (plus a view-change volunteer — both carry the
	// stale stable point and both channels must draw an answer).
	drainInbox(t, c, 2) // discard the original broadcasts
	straggler.onProgressTimeout()
	var readvert, volunteer *Message
	for _, m := range drainInbox(t, c, 2) {
		switch m.Type {
		case MsgCheckpoint:
			readvert = m
		case MsgViewChange:
			volunteer = m
		}
	}
	if readvert == nil || readvert.SeqNo != 8 || readvert.LastStable != 0 {
		t.Fatalf("progress timeout did not re-advertise the unstabilized vote (got %+v)", readvert)
	}
	if volunteer == nil || volunteer.LastStable != 0 {
		t.Fatalf("view-change volunteer does not advertise the stable point (got %+v)", volunteer)
	}

	// Each channel must draw the helper's retained vote as an answer.
	for name, deliver := range map[string]func(){
		"checkpoint": func() { helper.onCheckpoint(readvert) },
		"viewchange": func() { helper.onViewChange(volunteer) },
	} {
		drainInbox(t, c, 1)
		deliver()
		var answered bool
		for _, m := range drainInbox(t, c, 1) {
			if m.Type == MsgCheckpoint && m.From == 2 && m.SeqNo == 8 && m.LastStable == 8 {
				answered = true
			}
		}
		if !answered {
			t.Fatalf("%s channel: helper did not answer the straggler with its retained vote", name)
		}
	}

	// The answers re-supply the lost quorum: helper's vote plus one more
	// peer's unjams the straggler.
	straggler.onCheckpoint(helper.lastCkptVote)
	straggler.onCheckpoint(signedMsg(c, &Message{Type: MsgCheckpoint, From: 3,
		SeqNo: 8, StateDigest: d, LastStable: 8}))
	if straggler.lowWater != 8 {
		t.Fatalf("straggler low watermark %d after rescue, want 8: its window stays jammed", straggler.lowWater)
	}
}

// TestReconfigCheckpointMatchesExecutedState: applyReconfig used to take
// its checkpoint mid-request — before executeRequest recorded the
// reconfiguration's own reply, which is part of the snapshot — so the
// vote it broadcast carried a digest no peer's interval checkpoint at
// the same seq could match (and at interval-coinciding seqs the replica
// broadcast a SECOND, different digest moments later). Honest votes
// split between the two digests, and one vote-garbling attacker was
// then enough to keep either from reaching quorum. The checkpoint is
// now deferred to executeReady: one vote per seq, snapshotting the
// fully-executed state.
func TestReconfigCheckpointMatchesExecutedState(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // backup of view 0; unstarted, driven directly

	newPub, _ := keypair(t)
	op := EncodeReconfigOp(ReconfigOp{Add: true, Replica: 9, PubKey: newPub})
	recReq := Request{Client: transport.ClientIDBase + 999, Seq: 1, Op: op}
	recReq.Sign(c.ctrlPriv)
	b := &Batch{Requests: []Request{recReq}}
	bd := b.Digest()
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0,
		SeqNo: 1, Batch: b, BatchDigest: bd}))
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: 1, BatchDigest: bd}))
	}
	for _, from := range []transport.NodeID{0, 2} {
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: bd})
	}
	if r.lastExec != 1 {
		t.Fatalf("reconfiguration did not execute (lastExec %d)", r.lastExec)
	}
	if r.lastCkptVote == nil || r.lastCkptVote.SeqNo != 1 {
		t.Fatalf("no checkpoint vote at the reconfiguration seq (got %+v)", r.lastCkptVote)
	}
	now, err := r.freeze()
	if err != nil {
		t.Fatal(err)
	}
	if want := now.digest; r.lastCkptVote.StateDigest != want {
		t.Fatalf("checkpoint vote digest %x does not match the post-execution state %x: "+
			"the snapshot was taken mid-request, before the reconfig's reply record",
			r.lastCkptVote.StateDigest[:4], want[:4])
	}
	// Exactly one vote went out at this seq: a second (divergent) vote
	// would re-open the split-digest hole.
	votes := 0
	for _, m := range drainInbox(t, c, 2) {
		if m.Type == MsgCheckpoint && m.From == 1 && m.SeqNo == 1 {
			votes++
		}
	}
	if votes != 1 {
		t.Fatalf("%d checkpoint votes broadcast at the reconfiguration seq, want exactly 1", votes)
	}
}

// TestStateTransferredReplicaVotesAtRestorePoint: a replica that reaches
// seq S by state transfer never executed S, so it used to cast no
// checkpoint vote there — even though the f+1-vouched snapshot it holds
// is exactly what a vote attests to. Freshly swapped-in members are the
// common case; their silence left post-reconfiguration groups a vote
// short at the reconfig checkpoint, and one vote-garbling attacker then
// jammed every straggler's window until the attack relented.
func TestStateTransferredReplicaVotesAtRestorePoint(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	helper := c.replicas[1]
	straggler := c.replicas[3]

	// A peer that genuinely executed through seq 8 supplies the snapshot.
	helper.lastExec, helper.seq = 8, 8
	at8, err := helper.freeze()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := helper.stateReply(at8)
	if err != nil {
		t.Fatal(err)
	}
	want := at8.digest

	vouch(c, straggler, reply, 1, 2) // f+1 = 2 vouchers
	if straggler.lastExec != 8 {
		t.Fatalf("state transfer did not restore (lastExec %d)", straggler.lastExec)
	}
	if straggler.lastCkptVote == nil || straggler.lastCkptVote.SeqNo != 8 ||
		straggler.lastCkptVote.StateDigest != want {
		t.Fatalf("restored replica retained no checkpoint vote at the restore point (got %+v)",
			straggler.lastCkptVote)
	}
	found := false
	for _, m := range drainInbox(t, c, 1) {
		if m.Type == MsgCheckpoint && m.From == 3 && m.SeqNo == 8 && m.StateDigest == want {
			found = true
		}
	}
	if !found {
		t.Fatal("restored replica did not broadcast its checkpoint vote: " +
			"peers counting toward stability at seq 8 stay one vote short")
	}
}
