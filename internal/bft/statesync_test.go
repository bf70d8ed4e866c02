package bft

import (
	"testing"

	"lazarus/internal/transport"
)

// decide walks an unstarted backup of view 0 through the whole agreement
// on one "add 1" request at seq: the primary's pre-prepare, then prepares
// and commits from the other two backups.
func decide(c *cluster, r *Replica, seq uint64) {
	batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, seq, "add 1")}}
	d := batch.Digest()
	r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: seq, Batch: batch, BatchDigest: d}))
	for from := transport.NodeID(1); from <= 3; from++ {
		if from == r.cfg.ID {
			continue
		}
		r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: seq, BatchDigest: d}))
		r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: seq, BatchDigest: d})
	}
}

// stateRequests counts the STATE-REQUESTs from r sitting in the inbox of
// the (unstarted) replica to, emptying it.
func stateRequests(t *testing.T, c *cluster, r *Replica, to transport.NodeID) int {
	t.Helper()
	n := 0
	for _, m := range drainInbox(t, c, to) {
		if m.Type == MsgStateRequest && m.From == r.cfg.ID {
			n++
		}
	}
	return n
}

// TestBehindReplicaExecutesToStableCheckpoint: a quorum of checkpoint
// votes reaching a replica that is a few instances short of that
// checkpoint used to trigger a full state transfer on the spot ("behind
// stable checkpoint"), every time a slow replica lost the race to a
// checkpoint. The votes must wait: the checkpoint stabilizes when the
// replica executes up to it, and only a digest that then differs from the
// quorum's — divergence — asks for state.
func TestBehindReplicaExecutesToStableCheckpoint(t *testing.T) {
	const ckpt = 8 // the harness's CheckpointInterval
	for name, tc := range map[string]struct {
		diverged bool
	}{
		"same state":     {false},
		"diverged state": {true},
	} {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 4, 1, nil)
			defer c.stop()
			r, ahead := c.replicas[1], c.replicas[2]
			for seq := uint64(1); seq <= ckpt; seq++ {
				decide(c, ahead, seq)
			}
			voted := ahead.ckpts[ckpt].snapshot.digest
			if tc.diverged {
				voted = badDigest
			}

			for seq := uint64(1); seq <= 5; seq++ {
				decide(c, r, seq)
			}
			for _, from := range []transport.NodeID{0, 2, 3} { // 2f+1
				r.onCheckpoint(signedMsg(c, &Message{Type: MsgCheckpoint, From: from, SeqNo: ckpt, StateDigest: voted}))
			}
			if n := stateRequests(t, c, r, 3); n != 0 {
				t.Fatalf("replica 3 instances behind a stable checkpoint sent %d state requests", n)
			}
			if r.lowWater != 0 || r.stableSeen != ckpt {
				t.Fatalf("low water %d, known stable %d; want 0 and %d", r.lowWater, r.stableSeen, ckpt)
			}

			for seq := uint64(6); seq <= ckpt; seq++ {
				decide(c, r, seq)
			}
			requests := stateRequests(t, c, r, 3)
			if tc.diverged {
				if requests != 1 || r.ins.transferReason[transferDiverged].Value() != 1 || r.lowWater != 0 {
					t.Fatalf("digest mismatch at an executed checkpoint: %d state requests, %d counted as diverged, low water %d",
						requests, r.ins.transferReason[transferDiverged].Value(), r.lowWater)
				}
				return
			}
			if requests != 0 || r.lowWater != ckpt {
				t.Fatalf("after executing up to the checkpoint: %d state requests, low water %d; want 0 and %d",
					requests, r.lowWater, ckpt)
			}
			if len(r.ckpts) != 0 || r.lastSnap == nil || r.lastSnap.digest != voted {
				t.Fatal("the stabilized checkpoint did not become the replica's stable state")
			}
		})
	}
}

// TestRestoreKeepsLogAboveRestorePoint: restoring used to replace the log
// with an empty one, discarding buffered pre-prepares and votes above the
// restore point that nobody sends twice — so a replica that transferred
// once could not execute on its own again and transferred at every
// checkpoint after. Committed instances above the restore point must
// survive the restore and execute straight after it; across an epoch
// change they must not (the reconfiguration fence).
func TestRestoreKeepsLogAboveRestorePoint(t *testing.T) {
	const ckpt = 8
	for name, tc := range map[string]struct {
		epochChange bool
		wantExec    uint64
	}{
		"same epoch":   {false, ckpt + 3},
		"epoch change": {true, ckpt},
	} {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 4, 1, nil)
			defer c.stop()
			r, ahead := c.replicas[1], c.replicas[2]
			for seq := uint64(1); seq <= ckpt; seq++ {
				decide(c, ahead, seq)
			}
			if tc.epochChange {
				ahead.membership.Epoch++
			}
			at, err := ahead.freeze()
			if err != nil {
				t.Fatal(err)
			}
			reply, err := ahead.stateReply(at)
			if err != nil {
				t.Fatal(err)
			}

			// r executed 1 and 2, missed 3..8, and holds 9..11 committed.
			for _, seq := range []uint64{1, 2, ckpt + 1, ckpt + 2, ckpt + 3} {
				decide(c, r, seq)
			}
			if r.lastExec != 2 {
				t.Fatalf("setup: lastExec %d, want 2", r.lastExec)
			}
			drainInbox(t, c, 3)
			vouch(c, r, reply, 2, 3)

			if r.lowWater != ckpt || r.lastExec != tc.wantExec {
				t.Fatalf("restored to low water %d, executed %d; want %d and %d", r.lowWater, r.lastExec, ckpt, tc.wantExec)
			}
			if got := c.apps[1].Value(); got != int64(tc.wantExec) {
				t.Fatalf("application value %d, want %d", got, tc.wantExec)
			}
			if n := stateRequests(t, c, r, 3); n != 0 {
				t.Fatalf("%d more state requests after the restore", n)
			}
			if got := r.Stats().StateTransfers; got != 1 {
				t.Fatalf("%d state transfers, want 1", got)
			}
		})
	}
}

// TestStateRestoreRejectsDigestMismatch: f+1 vouchers agree on the bytes
// and on the digest they claim to have voted for them, but the bytes do
// not restore to a state with that digest. The replica must end up
// exactly as it was — application included — with the lying group
// evicted, and an honest group must still get through afterwards.
func TestStateRestoreRejectsDigestMismatch(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]
	decide(c, r, 1)

	lie := evilSnapshot(t, r, 40, 666)
	lie.StateDigest = badDigest
	vouch(c, r, lie, 2, 3)
	if r.lastExec != 1 || c.apps[1].Value() != 1 {
		t.Fatalf("mismatching snapshot took effect: lastExec %d, value %d", r.lastExec, c.apps[1].Value())
	}
	if len(r.stReplies) != 0 {
		t.Fatalf("%d lying vouchers still held after the rejected restore", len(r.stReplies))
	}

	vouch(c, r, evilSnapshot(t, r, 50, 9), 0, 2)
	if r.lastExec != 50 || c.apps[1].Value() != 9 {
		t.Fatalf("consistent snapshot did not restore after the eviction: lastExec %d, value %d", r.lastExec, c.apps[1].Value())
	}
}
