package bft

import (
	"testing"
	"time"

	"lazarus/internal/transport"
)

// sendRaw injects a raw protocol message into the cluster from a spoofing
// endpoint.
func sendRaw(t *testing.T, c *cluster, from transport.NodeID, to transport.NodeID, msg *Message) {
	t.Helper()
	ep, err := c.net.Endpoint(from)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(to, payload); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsPrePrepareFromNonPrimary: a backup replica forging proposals
// must not get anything executed.
func TestRejectsPrePrepareFromNonPrimary(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	// Replica 2 (not the view-0 primary) "proposes" a batch carrying a
	// forged request.
	forged := Request{Client: transport.ClientIDBase, Seq: 1, Op: []byte("add 999")}
	batch := &Batch{Requests: []Request{forged}}
	pp := &Message{
		Type:        MsgPrePrepare,
		View:        0,
		SeqNo:       1,
		Batch:       batch,
		BatchDigest: batch.Digest(),
	}
	for _, id := range []transport.NodeID{0, 1, 3} {
		sendRaw(t, c, 2, id, pp)
	}
	time.Sleep(300 * time.Millisecond)
	for id, app := range c.apps {
		if app.Value() != 0 {
			t.Errorf("replica %d executed a forged proposal", id)
		}
	}
}

// TestRejectsBatchWithUnsignedRequest: even the real primary cannot smuggle
// operations no client signed.
func TestRejectsBatchWithUnsignedRequest(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	forged := Request{Client: transport.ClientIDBase, Seq: 1, Op: []byte("add 999")}
	batch := &Batch{Requests: []Request{forged}} // no signature
	pp := &Message{
		Type:        MsgPrePrepare,
		View:        0,
		SeqNo:       1,
		Batch:       batch,
		BatchDigest: batch.Digest(),
	}
	// Spoof the primary's node id 0 at the transport level.
	for _, id := range []transport.NodeID{1, 2, 3} {
		sendRaw(t, c, 0, id, pp)
	}
	time.Sleep(300 * time.Millisecond)
	for id, app := range c.apps {
		if app.Value() != 0 {
			t.Errorf("replica %d executed an unsigned request", id)
		}
	}
}

// TestRejectsForgedNewView: a NEW-VIEW without a valid quorum of signed
// view changes must not install.
func TestRejectsForgedNewView(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	// Replica 1 is the legitimate primary of view 1 — but this NEW-VIEW
	// carries no view-change quorum.
	nv := &Message{
		Type:    MsgNewView,
		NewView: 1,
	}
	nv.Sign(c.keys[1])
	for _, id := range []transport.NodeID{0, 2, 3} {
		sendRaw(t, c, 1, id, nv)
	}
	time.Sleep(300 * time.Millisecond)
	for id, r := range c.replicas {
		if id == 1 {
			continue
		}
		if r.Stats().CurrentView != 0 {
			t.Errorf("replica %d installed a forged new view", id)
		}
	}
}

// TestRejectsCheckpointWithBadSignature: unsigned checkpoint votes must not
// count toward stability.
func TestRejectsCheckpointWithBadSignature(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	cp := &Message{
		Type:        MsgCheckpoint,
		SeqNo:       8,
		StateDigest: Digest{1, 2, 3},
		// no signature
	}
	for from := transport.NodeID(1); from <= 3; from++ {
		sendRaw(t, c, from, 0, cp)
	}
	time.Sleep(200 * time.Millisecond)
	// Replica 0 must not have advanced its stable checkpoint.
	if got := c.replicas[0].Stats().LastExecuted; got != 0 {
		t.Errorf("executed %d without any requests", got)
	}
}

// TestWindowBackpressure: the primary must not run more than a window
// (two checkpoint intervals) of instances ahead of the last stable
// checkpoint, even under continuous load from a client that never reads
// replies.
func TestWindowBackpressure(t *testing.T) {
	// Checkpoints disabled from stabilizing by silencing two replicas:
	// with 2 of 4 silent there is no ordering quorum at all, so nothing
	// executes; the primary may propose at most a window of instances.
	// K = 2 puts the window (4) below the pipeline depth, so the window
	// is what binds.
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		cfg.CheckpointInterval = 2
	})
	c.mute(2, 3)
	c.start()
	defer c.stop()

	id := transport.ClientIDBase
	ep, err := c.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		req := Request{Client: id, Seq: uint64(i), Op: []byte("add 1")}
		req.Sign(c.clientPriv[id])
		payload, _ := Encode(&Message{Type: MsgRequest, From: id, Request: &req})
		ep.Send(0, payload)
	}
	time.Sleep(500 * time.Millisecond)
	// No quorum -> nothing executes; the window bounds optimistic work.
	for id, app := range c.apps {
		if app.Value() != 0 {
			t.Errorf("replica %d executed without a quorum", id)
		}
	}
	if st := c.replicas[0].Stats(); st.SeqHead == 0 || st.SeqHead > st.LowWater+4 {
		t.Errorf("primary proposed up to seq %d over low water %d, want 1..4 (the window)", st.SeqHead, st.LowWater)
	}
}

// TestStateOfReplicaStatsObservable: stats reflect protocol activity.
func TestReplicaStatsObservable(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	for i := 0; i < 10; i++ {
		invoke(t, cl, "add 1")
	}
	eventually(t, 5*time.Second, "stats", func() bool {
		st := c.replicas[0].Stats()
		return st.Executed >= 10 && st.LastExecuted >= 10 && st.MembershipSize == 4 && st.Checkpoints >= 1
	})
}

// TestLogBoundedByCheckpoints: sustained load must not grow the in-memory
// log without bound — stable checkpoints truncate it.
func TestLogBoundedByCheckpoints(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		cfg.CheckpointInterval = 8
	})
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	for i := 0; i < 120; i++ {
		invoke(t, cl, "add 1")
	}
	eventually(t, 5*time.Second, "log truncation", func() bool {
		for _, r := range c.replicas {
			st := r.Stats()
			if st.LogInstances > 40 || st.CheckpointStates > 10 {
				return false
			}
		}
		return true
	})
}
