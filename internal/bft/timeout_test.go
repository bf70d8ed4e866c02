package bft

import (
	"testing"

	"lazarus/internal/transport"
)

// TestProgressTimerNotArmedByExecutedProposal: votes can reach a backup
// before the proposal they vote on (the proposal takes a detour through
// the verify pool), and then accepting the proposal executes it on the
// spot. onPrePrepare used to arm the progress timer after that anyway; the
// next execution reset it, so under load nobody noticed, but whenever the
// load paused the timer ran out with nothing owed, the replica volunteered
// for a view change alone, refused proposals from then on, and came back
// only by state transfer — the view changes and transfers of fault-free
// runs.
func TestProgressTimerNotArmedByExecutedProposal(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	batch := func(seq uint64) (*Batch, Digest) {
		b := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, seq, "add 1")}}
		return b, b.Digest()
	}
	votes := func(seq uint64, d Digest) {
		for _, from := range []transport.NodeID{2, 3} {
			r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: seq, BatchDigest: d}))
			r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: seq, BatchDigest: d})
		}
	}
	propose := func(seq uint64, b *Batch, d Digest) {
		r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: seq, Batch: b, BatchDigest: d}))
	}

	b1, d1 := batch(1)
	votes(1, d1)
	propose(1, b1, d1)
	if r.lastExec != 1 {
		t.Fatalf("setup: lastExec %d, want 1", r.lastExec)
	}
	if r.vcArmed {
		t.Fatal("progress timer armed by a proposal that had already executed")
	}

	// The usual order still owes progress until the instance executes.
	b2, d2 := batch(2)
	propose(2, b2, d2)
	if !r.vcArmed {
		t.Fatal("progress timer not armed by an accepted, unexecuted proposal")
	}
	votes(2, d2)
	if r.lastExec != 2 || r.vcArmed {
		t.Fatalf("after executing: lastExec %d, timer armed %v; want 2 and false", r.lastExec, r.vcArmed)
	}
}
