package bft

import (
	"testing"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// Byzantine clients against the two grades of request authentication
// (verify.go): a backup accepts a REQUEST on its own MAC, and only the
// primary verifies the signature before proposing.

// requestTo is the copy of req a client sends replica to: MAC'd under the
// key the two share, as Client.Invoke seals it.
func requestTo(t testing.TB, c *cluster, req Request, to transport.NodeID) *Message {
	t.Helper()
	key, err := newReplyKey(c.clientPriv[req.Client], c.pubs[to], true)
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{Type: MsgRequest, From: req.Client, Request: &req}
	key.Seal(m)
	return m
}

// badSignature returns req with its signature garbled.
func badSignature(req Request) Request {
	req.Sig = append([]byte(nil), req.Sig...)
	req.Sig[0] ^= 0xff
	return req
}

// deliverAll plays the pumps of an unstarted cluster: it hands every
// queued frame to its replica's dispatch, in replica order, until no
// frame is left.
func deliverAll(t *testing.T, c *cluster) {
	t.Helper()
	for moved := true; moved; {
		moved = false
		for id := transport.NodeID(0); int(id) < len(c.replicas); id++ {
			for _, m := range drainInbox(t, c, id) {
				c.replicas[id].dispatch(m)
				moved = true
			}
		}
	}
}

// TestWrongMACAtOneBackupCostsOneVerification: a copy whose MAC fails at a
// backup is not rejected but checked by its signature, at the price of
// one verification there; the request commits everywhere without a view
// change.
func TestWrongMACAtOneBackupCostsOneVerification(t *testing.T) {
	regs := make(map[transport.NodeID]*metrics.Registry)
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		regs[cfg.ID] = metrics.NewRegistry()
		cfg.Metrics = regs[cfg.ID]
	})
	defer c.stop()
	verifies := func(id transport.NodeID) int64 { return regs[id].Counter("bft.verify_ops").Value() }
	req := signedReq(c, transport.ClientIDBase, 1, "add 4")
	d := req.Digest()

	for _, id := range []transport.NodeID{1, 2, 3} {
		m := requestTo(t, c, req, id)
		if id == 3 {
			m.Sig[0] ^= 0xff
		}
		before := verifies(id)
		c.replicas[id].dispatch(m)
		want := int64(0)
		if id == 3 {
			want = 1
		}
		if got := verifies(id) - before; got != want {
			t.Errorf("backup %d: the REQUEST cost %d verifications, want %d", id, got, want)
		}
		if got, want := regs[id].Counter("bft.request_macs").Value(), 1-want; got != want {
			t.Errorf("backup %d: %d requests accepted on a MAC, want %d", id, got, want)
		}
		if !c.replicas[id].pendingSet[d] {
			t.Errorf("backup %d did not queue the request", id)
		}
	}
	c.replicas[0].dispatch(requestTo(t, c, req, 0))
	if c.replicas[0].seq != 1 {
		t.Fatal("the primary did not propose the request")
	}
	deliverAll(t, c)

	for id, r := range c.replicas {
		if r.lastExec != 1 || c.apps[id].Value() != 4 {
			t.Errorf("replica %d: lastExec %d, value %d; want the request executed", id, r.lastExec, c.apps[id].Value())
		}
		if r.view != 0 || r.Stats().ViewChanges != 0 {
			t.Errorf("replica %d: view %d after %d view changes", id, r.view, r.Stats().ViewChanges)
		}
	}
	if got, want := verifies(3), verifies(2)+1; got != want {
		t.Errorf("backup 3 verified %d signatures in all, want backup 2's %d plus the one its MAC cost", got, want-1)
	}
}

// TestValidMACsBadSignatureNeverDeposePrimary: a client whose copies carry
// valid MACs and a bad signature gets every backup to queue its request,
// and a correct primary to refuse it. The backups check the signature
// before their progress timers blame the primary, drop the request, and
// leave the view alone.
func TestValidMACsBadSignatureNeverDeposePrimary(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) { cfg.Metrics = reg })
	c.start()
	defer c.stop()
	cid := transport.ClientIDBase
	req := badSignature(signedReq(c, cid, 1, "add 9"))
	sent := time.Now()
	for id := range c.replicas {
		sendRaw(t, c, cid, id, requestTo(t, c, req, id))
	}
	eventually(t, 5*time.Second, "every backup's progress timer firing", func() bool {
		return reg.Counter("bft.progress_timeouts").Value() >= 3
	})
	time.Sleep(time.Until(sent.Add(3 * c.replicas[0].cfg.ViewChangeTimeout)))

	for id, r := range c.replicas {
		s := r.Stats()
		if s.ViewChanges != 0 || s.CurrentView != 0 {
			t.Errorf("replica %d: %d view changes, view %d", id, s.ViewChanges, s.CurrentView)
		}
		if s.SeqHead != 0 || s.Executed != 0 || c.apps[id].Value() != 0 {
			t.Errorf("replica %d: proposed up to %d, executed %d batches: the request was ordered", id, s.SeqHead, s.Executed)
		}
		if s.PendingRequests != 0 {
			t.Errorf("replica %d still holds the request", id)
		}
	}
	if got := reg.Counter("bft.request_macs").Value(); got != 3 {
		t.Errorf("%d requests accepted on a MAC, want one at each backup", got)
	}
}

// TestCertifiedBatchWithBadSignatureInstallsNewView: a Byzantine primary
// commits a request whose MACs are valid and whose signature is not, at
// the backups that hold the MACs. A replica that never saw the request
// installs the next view all the same: the batch comes with a prepared
// certificate, and its requests are not checked again.
func TestCertifiedBatchWithBadSignatureInstallsNewView(t *testing.T) {
	c := newCluster(t, 4, 2, nil)
	c.start()
	defer c.stop()
	cid := transport.ClientIDBase
	bad := badSignature(signedReq(c, cid, 1, "add 5"))
	for _, id := range []transport.NodeID{1, 2} {
		sendRaw(t, c, cid, id, requestTo(t, c, bad, id))
	}
	eventually(t, 2*time.Second, "the MAC'd request queued at backups 1 and 2", func() bool {
		return c.replicas[1].Stats().PendingRequests == 1 && c.replicas[2].Stats().PendingRequests == 1
	})

	// The primary proposes it, and votes to commit it.
	batch := &Batch{Requests: []Request{bad}}
	pp := signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1, Batch: batch, BatchDigest: batch.Digest()})
	for _, id := range []transport.NodeID{1, 2, 3} {
		sendRaw(t, c, 0, id, pp)
	}
	for _, id := range []transport.NodeID{1, 2, 3} {
		sendRaw(t, c, 0, id, &Message{Type: MsgCommit, From: 0, View: 0, SeqNo: 1, BatchDigest: batch.Digest()})
	}
	eventually(t, 2*time.Second, "backups 1 and 2 executing the request", func() bool {
		return c.apps[1].Value() == 5 && c.apps[2].Value() == 5
	})
	if got := c.apps[3].Value(); got != 0 {
		t.Fatalf("setup: backup 3 executed a request it could only check by its bad signature (value %d)", got)
	}

	// The primary goes silent; the next request needs a new view.
	c.mute(0)
	cl := c.client(1)
	defer cl.Close()
	invoke(t, cl, "add 1")
	eventually(t, 5*time.Second, "every correct replica in a new view with both requests executed", func() bool {
		for _, id := range []transport.NodeID{1, 2, 3} {
			if c.replicas[id].Stats().CurrentView == 0 || c.apps[id].Value() != 6 {
				return false
			}
		}
		return true
	})
	// Backup 3 executed the certified batch in view 1: it installed the
	// first NEW-VIEW rather than wait for a view whose primary it is.
	for _, rec := range c.replicas[3].ExecTrace() {
		if rec.Seq == 1 && rec.View != 1 {
			t.Errorf("backup 3 executed seq 1 in view %d, want 1: it refused the NEW-VIEW that re-proposed it", rec.View)
		}
	}
}

// TestRequestWithoutMACIsOrdered: a copy that carries no MAC — one a
// backup forwarded, or one whose client holds no key for the replica — is
// checked by its signature. The primary orders it, and a backup queues it.
func TestRequestWithoutMACIsOrdered(t *testing.T) {
	c, reg := gateCluster(t, 4)
	defer c.stop()
	req := signedReq(c, transport.ClientIDBase, 1, "add 2")
	forwarded := func() *Message {
		cp := req
		return &Message{Type: MsgRequest, From: 2, Request: &cp}
	}

	primary := c.replicas[0]
	primary.dispatch(forwarded())
	if in := primary.log[1]; in == nil || in.prePrepare == nil || in.batch.Requests[0].Digest() != req.Digest() {
		t.Fatal("the primary did not propose a forwarded copy")
	}
	backup := c.replicas[1]
	before := reg.Counter("bft.verify_ops").Value()
	backup.dispatch(forwarded())
	if !backup.pendingSet[req.Digest()] {
		t.Fatal("a backup did not queue a copy without its MAC")
	}
	if got := reg.Counter("bft.verify_ops").Value() - before; got != 1 {
		t.Errorf("a copy without a MAC cost the backup %d verifications, want 1", got)
	}
	if got := reg.Counter("bft.request_macs").Value(); got != 0 {
		t.Errorf("%d requests accepted on a MAC, want 0", got)
	}
}

// TestNewPrimaryVerifiesMACdRequestsAtPool: a backup that becomes primary
// holding requests it accepted on their MACs proposes none of them until
// the verify pool checked its signature, and drops the one whose
// signature fails.
func TestNewPrimaryVerifiesMACdRequestsAtPool(t *testing.T) {
	c := newCluster(t, 4, 2, nil)
	defer c.stop()
	r := c.replicas[1] // primary of view 1
	holdPool(r)
	good := signedReq(c, transport.ClientIDBase, 1, "add 3")
	bad := badSignature(signedReq(c, transport.ClientIDBase+1, 1, "add 8"))
	for _, req := range []Request{good, bad} {
		r.dispatch(requestTo(t, c, req, 1))
	}
	if len(r.pending) != 2 || len(r.verifyJobs) != 0 {
		t.Fatalf("setup: %d requests queued, %d at the pool; want both queued on their MACs", len(r.pending), len(r.verifyJobs))
	}

	r.installNewView(1, nil, 0)
	if r.seq != 0 {
		t.Fatal("the new primary proposed a request whose signature it never checked")
	}
	if got := len(r.verifyJobs); got != 2 {
		t.Fatalf("%d requests at the pool, want both", got)
	}
	drainPool(r)
	in := r.log[1]
	if in == nil || in.prePrepare == nil || len(in.batch.Requests) != 1 || in.batch.Requests[0].Digest() != good.Digest() {
		t.Fatal("the new primary did not propose the signed request alone")
	}
	if r.pendingSet[bad.Digest()] || len(r.pending) != 0 {
		t.Errorf("%d requests still queued: the badly signed one was not dropped", len(r.pending))
	}
}

// BenchmarkRequestAuth is what a backup pays to accept a client's REQUEST:
// the ed25519 signature check it used to make, and the MAC check it makes
// now.
func BenchmarkRequestAuth(b *testing.B) {
	c := newCluster(b, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]
	req := signedReq(c, transport.ClientIDBase, 1, "put k v")
	msg := requestTo(b, c, req, 1)
	b.Run("ed25519", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !r.verifyRequest(msg.Request) {
				b.Fatal("signature rejected")
			}
		}
	})
	b.Run("mac", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !r.requestMACOK(msg) {
				b.Fatal("MAC rejected")
			}
		}
	})
}

// BenchmarkFastRead is what a replica pays to answer a read off the
// ordering path: the request's MAC check, the query and the sealed reply.
func BenchmarkFastRead(b *testing.B) {
	c := newCluster(b, 4, 1, func(cfg *ReplicaConfig) { cfg.App = newRegisterApp() })
	defer c.stop()
	r := c.replicas[1]
	r.querier.(*registerApp).regs["k"] = string(make([]byte, 64))
	msg := requestTo(b, c, Request{Client: transport.ClientIDBase, Seq: 1, Op: []byte("r k")}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.dispatch(msg)
	}
	if got := r.ins.reads.Value(); got != int64(b.N) {
		b.Fatalf("%d reads answered of %d", got, b.N)
	}
}
