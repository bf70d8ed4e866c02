package bft

import (
	"context"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// badDigest is a digest no honest proposal hashes to.
var badDigest = Digest(sha256.Sum256([]byte("equivocating-proposal")))

// signedReq builds a client-signed request.
func signedReq(c *cluster, client transport.NodeID, seq uint64, op string) Request {
	req := Request{Client: client, Seq: seq, Op: []byte(op)}
	req.Sign(c.clientPriv[client])
	return req
}

// signedMsg signs a hand-crafted replica message with its sender's key
// (prepares are signature-checked before votes count; a pre-prepare's
// signature is ignored).
func signedMsg(c *cluster, m *Message) *Message {
	m.Sign(c.keys[m.From])
	return m
}

// TestPrepareQuorumIgnoresMismatchedDigests is the digest-blind vote
// counting regression: prepare votes arriving before the pre-prepare
// used to be buffered without the digest they voted for, so votes for a
// *different* proposal counted toward this instance's quorum once the
// pre-prepare landed. Two Byzantine early votes plus the primary and
// self must NOT reach the 2f+1 quorum.
func TestPrepareQuorumIgnoresMismatchedDigests(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // backup of view 0; unstarted, driven directly

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 7")}}
	good := batch.Digest()

	// Byzantine peers 2 and 3 vote early — before the pre-prepare — for a
	// different digest.
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: 1, BatchDigest: badDigest}))
	}
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
		Batch: batch, BatchDigest: good}))

	in := r.log[1]
	if in == nil {
		t.Fatal("no instance registered for seq 1")
	}
	if in.prepared {
		t.Fatal("prepared: early votes for a different digest counted toward the quorum")
	}
	// Positive control: one matching vote completes the quorum (self +
	// primary + one peer = 2f+1 = 3), so the digest filter is not simply
	// rejecting everything.
	r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: 2, View: 0, SeqNo: 1, BatchDigest: good}))
	if !in.prepared {
		t.Fatal("matching prepare votes did not reach quorum")
	}
}

// TestCommitQuorumIgnoresMismatchedDigests is the commit-phase half of
// the digest-blind regression: early commit votes for a different digest
// must not commit (and execute) the instance.
func TestCommitQuorumIgnoresMismatchedDigests(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, "add 3")}}
	good := batch.Digest()

	for _, from := range []transport.NodeID{2, 3} {
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: badDigest})
	}
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
		Batch: batch, BatchDigest: good}))
	for _, from := range []transport.NodeID{2, 3} {
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: 1, BatchDigest: good}))
	}

	in := r.log[1]
	if in == nil || !in.prepared {
		t.Fatal("instance did not prepare on matching votes")
	}
	if in.committed {
		t.Fatal("committed: early commit votes for a different digest counted toward the quorum")
	}
	if got := c.apps[1].Value(); got != 0 {
		t.Fatalf("executed on a mismatched commit quorum (value %d)", got)
	}
	// Positive control: matching commits from the same peers commit and
	// execute.
	for _, from := range []transport.NodeID{2, 3} {
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: 1, BatchDigest: good})
	}
	if !in.committed {
		t.Fatal("matching commit votes did not reach quorum")
	}
	if got := c.apps[1].Value(); got != 3 {
		t.Fatalf("value %d after commit, want 3", got)
	}
}

// TestReplyCacheRequiresAuthenticatedRetransmit: onRequest used to serve
// the cached reply before verifying the request signature, letting
// anyone who could name a client id trigger reply traffic toward it.
// The cache must only answer authenticated retransmissions.
func TestReplyCacheRequiresAuthenticatedRetransmit(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]
	cid := transport.ClientIDBase

	// Pretend request 5 executed and its reply is cached.
	cached := &Message{Type: MsgReply, From: 1, ReplySeq: 5, ReplyClient: cid, Result: []byte("cached")}
	r.clients[cid] = &clientRecord{lastSeq: 5, lastReply: cached}

	ep, err := c.net.Endpoint(cid)
	if err != nil {
		t.Fatal(err)
	}

	// Unauthenticated retransmission: correct client id, no signature.
	forged := Request{Client: cid, Seq: 5, Op: []byte("get")}
	r.onRequest(&Message{Type: MsgRequest, From: cid, Request: &forged})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	if env, err := ep.Recv(ctx); err == nil {
		cancel()
		t.Fatalf("unauthenticated retransmission was answered from the reply cache (%d bytes)", len(env.Payload))
	}
	cancel()

	// Authenticated retransmission gets the cached reply.
	genuine := signedReq(c, cid, 5, "get")
	r.onRequest(&Message{Type: MsgRequest, From: cid, Request: &genuine})
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	env, err := ep.Recv(ctx)
	if err != nil {
		t.Fatal("authenticated retransmission got no cached reply")
	}
	reply, err := Decode(env.Payload)
	if err != nil || reply.Type != MsgReply || string(reply.Result) != "cached" {
		t.Fatalf("got %v / %v, want the cached reply", reply, err)
	}
}

// TestPipelinedCommitsExecuteInOrder drives three pipelined instances on
// a backup and commits them out of order: nothing may execute until the
// earliest instance commits, and then everything executes in sequence
// order.
func TestPipelinedCommitsExecuteInOrder(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]
	cid := transport.ClientIDBase

	digests := make(map[uint64]Digest)
	ops := map[uint64]string{1: "add 1", 2: "add 10", 3: "add 100"}
	for seq := uint64(1); seq <= 3; seq++ {
		batch := &Batch{Requests: []Request{signedReq(c, cid, seq, ops[seq])}}
		digests[seq] = batch.Digest()
		r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: seq,
			Batch: batch, BatchDigest: batch.Digest()}))
	}
	commit := func(seq uint64) {
		for _, from := range []transport.NodeID{2, 3} {
			r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: seq, BatchDigest: digests[seq]}))
			r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: seq, BatchDigest: digests[seq]})
		}
	}

	commit(3)
	commit(2)
	if r.lastExec != 0 || c.apps[1].Value() != 0 {
		t.Fatalf("executed ahead of sequence order (lastExec %d, value %d)", r.lastExec, c.apps[1].Value())
	}
	commit(1)
	if r.lastExec != 3 {
		t.Fatalf("lastExec %d after all commits, want 3", r.lastExec)
	}
	if got := c.apps[1].Value(); got != 111 {
		t.Fatalf("value %d, want 111", got)
	}
}

// TestFullBatchProposesWithoutTick: with the pipeline busy, a batch that
// fills must be proposed immediately, never waiting out the BatchDelay
// tick (which this test sets far beyond its own runtime).
func TestFullBatchProposesWithoutTick(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		cfg.BatchDelay = time.Hour // a tick never fires
	})
	defer c.stop()
	r := c.replicas[0] // primary of view 0; unstarted, so no ticker runs

	var sent uint64
	sendReq := func() {
		sent++
		req := signedReq(c, transport.ClientIDBase, sent, "add 1")
		r.onRequest(&Message{Type: MsgRequest, From: req.Client, Request: &req})
	}
	sendReq()
	if r.seq != 1 {
		t.Fatalf("idle primary did not propose immediately (seq %d)", r.seq)
	}
	for i := 0; i < batchSize-1; i++ {
		sendReq()
	}
	if r.seq != 1 {
		t.Fatalf("partial batch proposed into a busy pipeline (seq %d)", r.seq)
	}
	sendReq()
	if r.seq != 2 {
		t.Fatalf("full batch waited for the BatchDelay tick (seq %d)", r.seq)
	}
	if len(r.pending) != 0 {
		t.Fatalf("%d requests left pending after full-batch proposal", len(r.pending))
	}
}

// TestEagerProposeCutsIdleLatency is the end-to-end latency regression:
// with a long BatchDelay, sequential requests must still commit in
// milliseconds because an idle primary proposes on arrival. The old
// tick-gated path added up to a full BatchDelay per operation.
func TestEagerProposeCutsIdleLatency(t *testing.T) {
	const delay = 200 * time.Millisecond
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		cfg.BatchDelay = delay
		cfg.ViewChangeTimeout = 2 * time.Second // latency assertions must not race the suspicion timer
	})
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()

	invoke(t, cl, "add 1") // warm up connections and client records
	const ops = 5
	start := time.Now()
	for i := 0; i < ops; i++ {
		invoke(t, cl, "add 1")
	}
	elapsed := time.Since(start)
	// Tick-gated proposals average delay/2 per op (≈500ms for 5 ops);
	// eager proposals finish in a few ms each.
	if elapsed >= ops*delay/2 {
		t.Fatalf("%d ops took %v; proposals are waiting for the %v batch tick", ops, elapsed, delay)
	}
}

// TestVerifyPoolConvergesAndCachesVerdicts runs real load through the
// async verification pool and checks (a) determinism — every replica
// executes the same history and converges on the same state — and (b)
// amortization — the digest-keyed verdict cache absorbs re-verification
// when a request seen at submission reappears inside a batch.
func TestVerifyPoolConvergesAndCachesVerdicts(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newCluster(t, 4, 2, func(cfg *ReplicaConfig) {
		cfg.Metrics = reg
	})
	c.start()
	defer c.stop()

	const perClient = 15
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

	total := int64(2 * perClient)
	eventually(t, 5*time.Second, "replica convergence", func() bool {
		for _, app := range c.apps {
			if app.Value() != total {
				return false
			}
		}
		return true
	})
	if hits := reg.Counter("bft.verify_cache_hits").Value(); hits == 0 {
		t.Error("verdict cache never hit: batched requests are re-verified from scratch")
	}
	if macs := reg.Counter("bft.request_macs").Value(); macs == 0 {
		t.Error("no backup accepted a request on its MAC: the clients' MACs do not verify")
	}
	if off := reg.Counter("bft.verify_offloaded").Value(); off == 0 {
		t.Error("no message was ever offloaded to the verify pool")
	}
}
