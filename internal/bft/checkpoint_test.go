package bft

import (
	"testing"

	"lazarus/internal/transport"
)

// TestCheckpointSpamBounded feeds a replica a flood of signed checkpoint
// votes from one faulty member at ever-growing future sequence numbers.
// Before the high-water bound, every distinct SeqNo allocated a tracking
// entry in r.ckpts, so a single member could grow it without limit; now
// beyond-window claims fold into the per-member ckptAhead map instead.
// The replica is never started: onCheckpoint is called directly on the
// (otherwise idle) event-loop state, which is the single-goroutine
// discipline the handler assumes.
func TestCheckpointSpamBounded(t *testing.T) {
	c := newCluster(t, 4, 0, nil)
	defer c.net.Close()
	r := c.replicas[0]

	vote := func(from transport.NodeID, seq uint64) {
		msg := &Message{
			Type:        MsgCheckpoint,
			From:        from,
			SeqNo:       seq,
			Epoch:       0,
			StateDigest: Digest{1},
		}
		msg.Sign(c.keys[from])
		r.onCheckpoint(msg)
	}

	interval := r.cfg.CheckpointInterval
	window := r.window()
	for i := uint64(1); i <= 1000; i++ {
		vote(1, window+i*interval)
	}
	// The window holds at most window/CheckpointInterval checkpoint
	// points (plus reconfig checkpoints at odd offsets, none here).
	maxEntries := int(window/interval) + 1
	if got := len(r.ckpts); got > maxEntries {
		t.Errorf("ckpts grew to %d entries under spam, want <= %d", got, maxEntries)
	}
	if got := len(r.ckptAhead); got > 1 {
		t.Errorf("ckptAhead holds %d entries for one spamming member", got)
	}

	// Legitimate in-window votes are still tracked.
	vote(1, interval)
	if cs, ok := r.ckpts[interval]; !ok || len(cs.votes) != 1 {
		t.Error("in-window checkpoint vote was not recorded")
	}

	// A second member claiming beyond-window state makes f+1 distinct
	// claims: the replica concludes it fell behind and resets the claim
	// map (requesting a state transfer as recovery).
	vote(2, window+5*interval)
	if got := len(r.ckptAhead); got != 0 {
		t.Errorf("ckptAhead not reset after f+1 beyond-window claims (len %d)", got)
	}
}

// TestCheckStableTieBelowQuorum pins the tally hardening: two digests
// splitting the votes evenly below quorum must never stabilize the
// checkpoint, regardless of the order the tally map is iterated in.
// (n=4 needs 2f+1=3 matching votes; a 2/2 split has no winner.)
func TestCheckStableTieBelowQuorum(t *testing.T) {
	// A handful of iterations crosses several randomized map orders.
	for i := 0; i < 8; i++ {
		c := newCluster(t, 4, 0, nil)
		r := c.replicas[0]
		seq := r.cfg.CheckpointInterval

		cs := r.ckpt(seq)
		cs.votes[0] = Digest{1}
		cs.votes[1] = Digest{1}
		cs.votes[2] = Digest{2}
		cs.votes[3] = Digest{2}
		r.checkStable(seq)

		if cs.stable {
			t.Fatalf("iteration %d: checkpoint stabilized on a 2/2 digest split below quorum", i)
		}
		if r.lowWater != 0 {
			t.Fatalf("iteration %d: lowWater advanced to %d on an unstable checkpoint", i, r.lowWater)
		}
		c.net.Close()
	}
}

// TestCheckStableQuorumWithDissent checks that a quorum of matching
// votes stabilizes the checkpoint and advances the watermark even with
// a dissenting vote present, and that the dissenting digest never wins.
func TestCheckStableQuorumWithDissent(t *testing.T) {
	c := newCluster(t, 4, 0, nil)
	defer c.net.Close()
	r := c.replicas[0]
	seq := r.cfg.CheckpointInterval

	cs := r.ckpt(seq)
	cs.snapshot = &frozenState{digest: Digest{2}}
	cs.votes[0] = Digest{2}
	cs.votes[1] = Digest{2}
	cs.votes[2] = Digest{2}
	cs.votes[3] = Digest{1}
	r.checkStable(seq)

	if !cs.stable {
		t.Fatal("checkpoint with 3/4 matching votes (quorum) did not stabilize")
	}
	if r.lowWater != seq {
		t.Fatalf("lowWater = %d, want %d after stabilizing", r.lowWater, seq)
	}
}

// TestAdvanceLowWaterGC checks that installing a stable checkpoint
// garbage-collects every checkpoint entry at or below it, including the
// stable entry itself (votes at or below lowWater are rejected on
// arrival, so the entry can never be consulted again).
func TestAdvanceLowWaterGC(t *testing.T) {
	c := newCluster(t, 4, 0, nil)
	defer c.net.Close()
	r := c.replicas[0]

	interval := r.cfg.CheckpointInterval
	for _, seq := range []uint64{interval, 2 * interval} {
		cs := r.ckpt(seq)
		cs.votes[0] = Digest{1}
	}
	r.ckptAhead[2] = 10 * interval
	r.advanceLowWater(2*interval, &frozenState{})

	if len(r.ckpts) != 0 {
		t.Errorf("ckpts holds %d entries after advancing past them", len(r.ckpts))
	}
	if len(r.ckptAhead) != 0 {
		t.Error("ckptAhead survived a watermark advance")
	}
	if r.lowWater != 2*interval {
		t.Errorf("lowWater = %d, want %d", r.lowWater, 2*interval)
	}
}
