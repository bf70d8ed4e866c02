package bft

import (
	"context"
	"sync"
	"testing"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// White-box tests for the prepare gate (verify.go): a replica verifies the
// prepares its certificate needs, parks the rest unverified, and falls
// back on a parked one when a verification fails.

// holdPool gives an unstarted replica a verify pool with no workers, so
// offloaded messages wait in the channel until drainPool plays the worker.
// 64 slots hold more than any test here offloads before draining.
func holdPool(r *Replica) { r.verifyJobs = make(chan *Message, 64) }

// drainPool verifies every offloaded message, in offload order, and feeds
// it back through dispatch as a worker would, until the pool is empty.
func drainPool(r *Replica) {
	for {
		select {
		case msg := <-r.verifyJobs:
			r.authMessage(msg)
			r.dispatch(msg)
		default:
			return
		}
	}
}

// gateCluster is a metered cluster of n unstarted replicas.
func gateCluster(t *testing.T, n int) (*cluster, *metrics.Registry) {
	reg := metrics.NewRegistry()
	return newCluster(t, n, 1, func(cfg *ReplicaConfig) { cfg.Metrics = reg }), reg
}

// propose has primary r propose one request and returns its instance.
func propose(t *testing.T, c *cluster, r *Replica, op string) *instance {
	t.Helper()
	req := signedReq(c, transport.ClientIDBase, r.seq+1, op)
	r.onRequest(&Message{Type: MsgRequest, From: req.Client, Request: &req})
	in := r.log[r.seq]
	if in == nil || in.prePrepare == nil {
		t.Fatal("primary did not propose")
	}
	return in
}

func prepareFrom(c *cluster, from transport.NodeID, view, seq uint64, d Digest) *Message {
	return signedMsg(c, &Message{Type: MsgPrepare, From: from, View: view, SeqNo: seq, BatchDigest: d})
}

// TestPrimaryVerifiesOnlyTheQuorumsPrepares: at n = 4 the primary's
// certificate needs 2 of the 3 prepares it receives; the third is never
// verified, whether the first two are verified inline or at the pool.
func TestPrimaryVerifiesOnlyTheQuorumsPrepares(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		c, reg := gateCluster(t, 4)
		r := c.replicas[0] // primary of view 0; unstarted, driven directly
		if pooled {
			holdPool(r)
		}
		in := propose(t, c, r, "add 1")
		verifies := reg.Counter("bft.verify_ops")
		before := verifies.Value()
		for _, from := range []transport.NodeID{1, 2, 3} {
			r.dispatch(prepareFrom(c, from, 0, 1, in.digest))
		}
		drainPool(r)
		if !in.prepared {
			t.Fatalf("pooled=%v: instance did not prepare", pooled)
		}
		if got := verifies.Value() - before; got != 2 {
			t.Errorf("pooled=%v: %d prepare verifications, want 2", pooled, got)
		}
		if got := reg.Counter("bft.votes_unverified").Value(); got != 1 {
			t.Errorf("pooled=%v: %d prepares left unverified, want 1", pooled, got)
		}
		if n := len(in.cert.Prepares); n != 2 {
			t.Errorf("pooled=%v: certificate carries %d prepares, want quorum-1 = 2", pooled, n)
		}
		c.stop()
	}
}

// TestBadSignaturePrepareRefillsFromParked: a prepare whose signature
// fails takes a verification slot; when its verdict comes back the
// sender's parked genuine vote is verified in its place and the instance
// prepares in the same view.
func TestBadSignaturePrepareRefillsFromParked(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	r := c.replicas[0]
	holdPool(r)
	in := propose(t, c, r, "add 1")
	before := reg.Counter("bft.verify_ops").Value()

	bad := prepareFrom(c, 1, 0, 1, in.digest)
	bad.Sig = append([]byte(nil), bad.Sig...)
	bad.Sig[0] ^= 0xff
	r.dispatch(bad)                                // at the pool
	r.dispatch(prepareFrom(c, 2, 0, 1, in.digest)) // at the pool: supply 2 = need
	r.dispatch(prepareFrom(c, 3, 0, 1, in.digest)) // parked
	r.dispatch(prepareFrom(c, 1, 0, 1, in.digest)) // parked, sender 1's genuine vote
	if got := len(in.gate.parked); got != 2 {
		t.Fatalf("%d prepares parked, want 2", got)
	}
	drainPool(r)

	if !in.prepared {
		t.Fatal("instance did not prepare after the bad vote failed")
	}
	if r.view != 0 || r.inViewChange {
		t.Fatalf("view %d (changing: %v): a bad vote cost a view change", r.view, r.inViewChange)
	}
	if got := reg.Counter("bft.vote_refills").Value(); got != 1 {
		t.Errorf("%d refills, want 1", got)
	}
	if got := reg.Counter("bft.verify_ops").Value() - before; got != 3 {
		t.Errorf("%d verifications, want 3 (the bad vote, then the two the quorum needs)", got)
	}
	if got := in.cert.Prepares; len(got) != 2 || got[0].From != 1 || got[1].From != 2 {
		t.Errorf("certificate carries %d prepares, want sender 1's genuine vote and sender 2's", len(got))
	}
	if !validPreparedProof(in.cert, c.membership) {
		t.Error("certificate does not validate")
	}
}

// TestNewViewPrepareIsNotParkedAsDuplicate: parking is view-scoped. A
// sender whose prepare was parked in view 0 votes again in view 1, and
// that vote is a new one the certificate needs, not a duplicate.
func TestNewViewPrepareIsNotParkedAsDuplicate(t *testing.T) {
	c, _ := gateCluster(t, 4)
	defer c.stop()
	r := c.replicas[2] // a backup in views 0 and 1
	holdPool(r)

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 3")}}
	d := batch.Digest()
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: batch, BatchDigest: d}))
	r.dispatch(prepareFrom(c, 1, 0, 1, d)) // at the pool: a backup needs 1
	r.dispatch(prepareFrom(c, 3, 0, 1, d)) // parked
	in := r.log[1]
	if in.gate.parked[3] == nil {
		t.Fatal("setup: sender 3's view-0 prepare was not parked")
	}

	// View 1 (primary 1) re-proposes the batch; the view-0 verification
	// is still at the pool.
	re := signedMsg(c, &Message{Type: MsgPrePrepare, From: 1, View: 1, SeqNo: 1, Batch: batch, BatchDigest: d})
	r.installNewView(1, []Message{*re}, 0)
	if in = r.log[1]; in == nil || in.prepared {
		t.Fatal("setup: instance missing or prepared without a view-1 vote")
	}
	r.dispatch(prepareFrom(c, 3, 1, 1, d))
	if got := len(r.verifyJobs); got != 2 {
		t.Fatalf("sender 3's view-1 prepare was not sent to be verified (%d at the pool, want 2)", got)
	}
	drainPool(r)
	if !in.prepared || in.cert.View != 1 {
		t.Fatal("view-1 prepare did not complete the view-1 certificate")
	}
	if !validPreparedProof(in.cert, c.membership) {
		t.Error("view-1 certificate does not validate")
	}
	if in.gate.flying != 0 {
		t.Errorf("gate counts %d prepares in flight after the pool drained", in.gate.flying)
	}
}

// TestCertificateCarriesExactlyQuorumMinusOneAtFive: in the swap
// window's n = 5 the quorum is 4, so the primary needs 3 prepares from
// others and a backup 2 besides its own. Prepares that reach a backup
// before the pre-prepare used to be verified and kept alike, and its
// certificate carried all of them.
func TestCertificateCarriesExactlyQuorumMinusOneAtFive(t *testing.T) {
	c, reg := gateCluster(t, 5)
	defer c.stop()
	if q := c.membership.Quorum(); q != 4 {
		t.Fatalf("setup: quorum %d at n=5, want 4", q)
	}

	primary := c.replicas[0]
	holdPool(primary)
	in := propose(t, c, primary, "add 1")
	before := reg.Counter("bft.verify_ops").Value()
	for from := transport.NodeID(1); from <= 4; from++ {
		primary.dispatch(prepareFrom(c, from, 0, 1, in.digest))
	}
	drainPool(primary)
	if got := reg.Counter("bft.verify_ops").Value() - before; got != 3 {
		t.Errorf("primary: %d prepare verifications, want 3", got)
	}

	backup := c.replicas[1]
	holdPool(backup)
	for from := transport.NodeID(2); from <= 4; from++ {
		backup.dispatch(prepareFrom(c, from, 0, 1, in.digest))
	}
	drainPool(backup)
	backup.dispatch(in.prePrepare)
	drainPool(backup)

	for name, r := range map[string]*Replica{"primary": primary, "backup": backup} {
		bin := r.log[1]
		if bin == nil || !bin.prepared {
			t.Fatalf("%s: instance did not prepare", name)
		}
		if n := len(bin.cert.Prepares); n != 3 {
			t.Errorf("%s: certificate carries %d prepares, want quorum-1 = 3", name, n)
		}
		if !validPreparedProof(bin.cert, c.membership) {
			t.Errorf("%s: certificate does not validate", name)
		}
	}
}

// executedAtBackup has backup 1 execute seq 1 on the primary's proposal and
// the votes of replicas 2 and 3, handed to the handlers directly so that no
// prepare of theirs is on record as dispatched, then empties the inboxes of
// 0 and 2. It returns the backup and the executed digest.
func executedAtBackup(t *testing.T, c *cluster) (*Replica, Digest) {
	t.Helper()
	r := c.replicas[1]
	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 3")}}
	d := batch.Digest()
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: batch, BatchDigest: d}))
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(prepareFrom(c, from, 0, 1, d))
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: d})
	}
	if in := r.log[1]; in == nil || !in.executed {
		t.Fatal("setup: instance did not execute")
	}
	drainInbox(t, c, 0)
	drainInbox(t, c, 2)
	return r, d
}

// answeredTypes returns the types of the messages replica from sent.
func answeredTypes(msgs []*Message, from transport.NodeID) map[MsgType]bool {
	types := make(map[MsgType]bool)
	for _, m := range msgs {
		if m.From == from {
			types[m.Type] = true
		}
	}
	return types
}

// TestExecutedInstancePrepareVerifiedOnlyWhenAnswered: a prepare for an
// executed instance matters only to the catch-up responder, and the
// responder answers only a sender that is stuck. It stays silent, without
// verifying, when it holds the sender's commit for the executed digest or
// when the prepare is the sender's first in the responder's view: that
// sender is merely late. The sender's repeat — what its progress timer
// re-sends when it is stuck — is verified and answered.
func TestExecutedInstancePrepareVerifiedOnlyWhenAnswered(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	r, d := executedAtBackup(t, c)
	verifies := reg.Counter("bft.verify_ops")
	unverified := reg.Counter("bft.votes_unverified")

	// Sender 2's commit is held: nothing to answer, nothing to verify.
	before := verifies.Value()
	r.dispatch(prepareFrom(c, 2, 0, 1, d))
	if got := verifies.Value() - before; got != 0 {
		t.Errorf("prepare from a sender whose commit is held cost %d verifications, want 0", got)
	}
	if got := unverified.Value(); got != 1 {
		t.Errorf("votes_unverified %d, want 1", got)
	}
	if got := drainInbox(t, c, 2); len(got) != 0 {
		t.Errorf("responder answered a sender whose commit it holds (%d messages)", len(got))
	}

	// Sender 0's commit is missing, and this is its first prepare in view
	// 0: it is late, not stuck.
	before = verifies.Value()
	r.dispatch(prepareFrom(c, 0, 0, 1, d))
	if got := verifies.Value() - before; got != 0 {
		t.Errorf("a late sender's first prepare cost %d verifications, want 0", got)
	}
	if got := unverified.Value(); got != 2 {
		t.Errorf("votes_unverified %d, want 2", got)
	}
	if got := drainInbox(t, c, 0); len(got) != 0 {
		t.Errorf("responder answered a late sender's first prepare (%d messages)", len(got))
	}

	// Its repeat: verified once, answered with commit, prepare and
	// certificate.
	before = verifies.Value()
	r.dispatch(prepareFrom(c, 0, 0, 1, d))
	if got := verifies.Value() - before; got != 1 {
		t.Errorf("a stuck sender's repeated prepare cost %d verifications, want 1", got)
	}
	got := answeredTypes(drainInbox(t, c, 0), 1)
	for _, typ := range []MsgType{MsgCommit, MsgPrepare, MsgCatchUp} {
		if !got[typ] {
			t.Errorf("responder's answer to a repeated prepare lacks a %v", typ)
		}
	}
}

// TestExecutedInstanceOlderViewPrepareAnswered: a prepare cast in another
// view than the responder's comes from a sender still rebuilding the
// instance, and is answered the first time.
func TestExecutedInstanceOlderViewPrepareAnswered(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	r, d := executedAtBackup(t, c)
	r.view = 1 // the group moved on; sender 0 still votes in view 0
	verifies := reg.Counter("bft.verify_ops")

	before := verifies.Value()
	r.dispatch(prepareFrom(c, 0, 0, 1, d))
	if got := verifies.Value() - before; got != 1 {
		t.Errorf("an older view's prepare cost %d verifications, want 1", got)
	}
	got := answeredTypes(drainInbox(t, c, 0), 1)
	for _, typ := range []MsgType{MsgCommit, MsgPrepare, MsgCatchUp} {
		if !got[typ] {
			t.Errorf("responder's answer to an older view's prepare lacks a %v", typ)
		}
	}
}

// batchOf builds a batch of n signed requests, one per client sequence
// number, and the backup-bound pre-prepare that proposes it at seq 1.
func batchOf(c *cluster, n int) (*Batch, *Message) {
	batch := &Batch{}
	for i := 1; i <= n; i++ {
		batch.Requests = append(batch.Requests, signedReq(c, transport.ClientIDBase, uint64(i), "add 1"))
	}
	pp := signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: batch, BatchDigest: batch.Digest()})
	return batch, pp
}

// TestPartlyCachedBatchVerifiesOnlyTheRest: a pre-prepare whose batch is
// partly in the verdict cache verifies only the requests that are not. It
// used to verify every request of a batch that was not wholly cached.
func TestPartlyCachedBatchVerifiesOnlyTheRest(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	r := c.replicas[1]
	batch, pp := batchOf(c, 3)
	first := batch.Requests[0]
	r.dispatch(&Message{Type: MsgRequest, From: first.Client, Request: &first})
	verifies, hits := reg.Counter("bft.verify_ops"), reg.Counter("bft.verify_cache_hits")
	before, hitsBefore := verifies.Value(), hits.Value()

	r.dispatch(pp)
	if in := r.log[1]; in == nil || in.prePrepare == nil {
		t.Fatal("pre-prepare was not accepted")
	}
	if got := verifies.Value() - before; got != 2 {
		t.Errorf("%d verifications, want 2: the 2 uncached requests", got)
	}
	if got := hits.Value() - hitsBefore; got != 1 {
		t.Errorf("%d cache hits, want 1", got)
	}
}

// TestForgedRequestAtPoolDoesNotFailGenuinePrePrepare: a copy of a request
// with a garbled signature at the pool does not fail the pre-prepare that
// carries the genuine copy: the proposal verifies its own copy and is
// accepted.
func TestForgedRequestAtPoolDoesNotFailGenuinePrePrepare(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	r := c.replicas[1]
	holdPool(r)
	batch, pp := batchOf(c, 1)
	forged := batch.Requests[0]
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 0xff
	verifies := reg.Counter("bft.verify_ops")
	before := verifies.Value()

	r.dispatch(&Message{Type: MsgRequest, From: forged.Client, Request: &forged}) // at the pool
	r.dispatch(pp)
	drainPool(r)
	if in := r.log[1]; in == nil || in.prePrepare == nil {
		t.Fatal("a forged REQUEST at the pool failed the genuine pre-prepare")
	}
	if got := verifies.Value() - before; got != 2 {
		t.Errorf("%d verifications, want 2: the forged copy and the genuine one", got)
	}
	if !r.verified.has(batch.Requests[0].Digest()) {
		t.Error("the genuine request's verdict did not reach the cache")
	}
}

// TestGateUnderGarblingAttacker runs load past an attacker that sends
// garbled-signature prepares ahead of its genuine ones, then checks the
// gate's invariant on every honest replica: every prepare in a tally or
// certificate verifies.
func TestGateUnderGarblingAttacker(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newCluster(t, 4, 2, func(cfg *ReplicaConfig) { cfg.Metrics = reg })
	atk := c.attack(3, AttackEquivocate)
	c.start()

	const perClient = 10
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.client(i)
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < perClient; j++ {
				if _, err := cl.Invoke(ctx, []byte("add 1")); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	c.stop() // the loops are gone: their state can be read

	if atk.Stats().Garbled == 0 {
		t.Fatal("attacker sent no garbled prepares")
	}
	for id, r := range c.replicas {
		if id == 3 {
			continue
		}
		for seq, in := range r.log {
			for from, pm := range in.prepareMsgs {
				if !pm.VerifySig(c.pubs[from]) {
					t.Errorf("replica %d seq %d: unverified prepare from %d in the tally", id, seq, from)
				}
			}
			if in.cert != nil && !validPreparedProof(in.cert, c.membership) {
				t.Errorf("replica %d seq %d: certificate does not validate", id, seq)
			}
		}
	}
	t.Logf("unverified %d, refills %d, garbled %d", reg.Counter("bft.votes_unverified").Value(),
		reg.Counter("bft.vote_refills").Value(), atk.Stats().Garbled)
}

// TestRetransmitOfInFlightRequestIsNotReordered: propose takes a request
// out of the pending set, so a client's retransmit of a request still in
// flight used to be queued and ordered a second time. A request is
// proposed once per view; only abandoning its instance revives it.
func TestRetransmitOfInFlightRequestIsNotReordered(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[0] // primary of views 0 and 4
	req := signedReq(c, transport.ClientIDBase, 1, "add 1")
	submit := func() {
		again := req
		r.onRequest(&Message{Type: MsgRequest, From: req.Client, Request: &again})
		r.proposeAll()
	}

	submit()
	if r.seq != 1 {
		t.Fatalf("setup: request not proposed (seq %d)", r.seq)
	}
	submit()
	if r.seq != 1 || len(r.pending) != 0 {
		t.Fatalf("retransmit of an in-flight request was ordered again (seq %d, %d pending)", r.seq, len(r.pending))
	}

	// A new view that does not re-propose seq 1 abandons the instance: its
	// request goes back to pending and the new view's primary orders it.
	r.installNewView(4, nil, 0)
	in := r.log[1]
	if in == nil || in.prePrepare == nil || in.prePrepare.View != 4 || in.batch.Requests[0].Digest() != req.Digest() {
		t.Fatal("abandoned request was not re-proposed in the new view")
	}
	submit()
	if r.seq != 1 || len(r.pending) != 0 {
		t.Fatalf("retransmit was ordered a second time in view 4 (seq %d, %d pending)", r.seq, len(r.pending))
	}
}

// BenchmarkPrepareQuorum is the primary's prepare phase for one instance
// at n = 4: three prepares decoded and dispatched, signatures verified
// inline, until the certificate forms. verifies/op is the ed25519 work
// that took.
func BenchmarkPrepareQuorum(b *testing.B) {
	reg := metrics.NewRegistry()
	c := newCluster(b, 4, 1, func(cfg *ReplicaConfig) { cfg.Metrics = reg })
	defer c.stop()
	r := c.replicas[0]
	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 1")}}
	d := batch.Digest()
	pp := signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: batch, BatchDigest: d})
	var votes [][]byte
	for from := transport.NodeID(1); from <= 3; from++ {
		votes = append(votes, mustEncode(b, prepareFrom(c, from, 0, 1, d)))
	}
	verifies := reg.Counter("bft.verify_ops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete(r.log, 1)
		r.acceptPrePrepare(pp)
		for _, p := range votes {
			m, err := Decode(p)
			if err != nil {
				b.Fatal(err)
			}
			r.dispatch(m)
		}
		if !r.log[1].prepared {
			b.Fatal("instance did not prepare")
		}
	}
	b.ReportMetric(float64(verifies.Value())/float64(b.N), "verifies/op")
}
