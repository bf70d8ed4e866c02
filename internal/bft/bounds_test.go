package bft

// White-box regression tests for the holes lazlint v2's interprocedural
// rules flushed out of this package (see DESIGN.md §"Invariants and
// lint rules"). Each test fails on the pre-fix code:
//
//   - onCatchUp allocated a log instance before validating the carried
//     certificate (auth-before-use): any member could spray garbage
//     CATCH-UPs across the window and grow agreement state no valid
//     certificate backs.
//   - recordViewChange allocated a vote table per attacker-chosen
//     NewView with no bound (unbounded-remote-map).
//   - onRequest queued signed requests with no cap on the pending
//     queue (unbounded-remote-map): a runaway client could sign
//     requests faster than a stalled primary orders them.

import (
	"fmt"
	"testing"

	"lazarus/internal/transport"
)

// TestCatchUpDoesNotAllocateBeforeValidation: a CATCH-UP whose prepared
// proof carries no certificate must leave no trace in the log. Pre-fix,
// onCatchUp called r.inst before validPreparedProof, so one garbage
// message per in-window sequence number allocated a full window of
// instances on the say-so of a single (possibly Byzantine) member.
func TestCatchUpDoesNotAllocateBeforeValidation(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // unstarted, driven directly

	for seq := uint64(1); seq <= r.window(); seq++ {
		r.onCatchUp(&Message{
			Type: MsgCatchUp, From: 3, SeqNo: seq, Epoch: r.membership.Epoch,
			Prepared: []PreparedProof{{
				View: 0, SeqNo: seq, BatchDigest: badDigest, Batch: &Batch{},
				// Right shape, right epoch, no signatures anywhere: the
				// proof passes every cheap field check and fails only
				// certificate validation.
				Prepares: []Message{{Type: MsgPrepare, From: 2, View: 0,
					SeqNo: seq, Epoch: r.membership.Epoch, BatchDigest: badDigest}},
			}},
		})
	}
	if len(r.log) != 0 {
		t.Fatalf("certificate-free CATCH-UPs allocated %d log instances, want 0", len(r.log))
	}
}

// TestViewChangeTrackerBounded: NewView is attacker-chosen, so the vote
// tracker must stay bounded no matter how many distinct future views
// one member votes for. Eviction must shed the farthest-future views
// (the ones least likely to be installed next) and must never drop this
// replica's own escalation vote.
func TestViewChangeTrackerBounded(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	for nv := uint64(1); nv <= 4*vcTrackCap; nv++ {
		r.onViewChange(signedMsg(c, &Message{
			Type: MsgViewChange, From: 3, NewView: nv, Epoch: r.membership.Epoch,
		}))
	}
	if len(r.viewChanges) > vcTrackCap {
		t.Fatalf("tracking %d view-change vote tables, want <= %d", len(r.viewChanges), vcTrackCap)
	}
	if _, ok := r.viewChanges[1]; !ok {
		t.Fatal("lowest tracked view was shed; eviction must drop the farthest-future view")
	}
	own := &Message{Type: MsgViewChange, From: r.cfg.ID, NewView: 1 << 20, Epoch: r.membership.Epoch}
	r.recordViewChange(own)
	if _, ok := r.viewChanges[1<<20]; !ok {
		t.Fatal("own view-change vote dropped at the tracking cap")
	}
}

// TestPendingQueueBounded: every pending entry is client-signed, but
// signatures bound who may enqueue, not how much. The queue must cap
// out (the client retransmits; a full queue means ordering is already
// the bottleneck), not grow with every fresh sequence number.
func TestPendingQueueBounded(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // backup: nothing drains the queue

	client := transport.ClientIDBase
	for seq := uint64(1); seq <= maxPending+8; seq++ {
		req := signedReq(c, client, seq, fmt.Sprintf("add %d", seq))
		r.onRequest(&Message{Type: MsgRequest, Request: &req})
	}
	if len(r.pending) != maxPending {
		t.Fatalf("pending queue grew to %d, want capped at %d", len(r.pending), maxPending)
	}
}
