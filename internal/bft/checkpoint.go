package bft

import (
	"bytes"
	"sort"

	"lazarus/internal/transport"
)

// ckpt returns (creating if needed) the checkpoint state at seq.
func (r *Replica) ckpt(seq uint64) *checkpointState {
	cs, ok := r.ckpts[seq]
	if !ok {
		cs = &checkpointState{votes: make(map[transport.NodeID]Digest)}
		r.ckpts[seq] = cs
	}
	return cs
}

// takeCheckpoint freezes the replica state at seq and broadcasts a signed
// CHECKPOINT vote for its digest. Replicas checkpoint every
// CheckpointInterval executions and immediately after a membership
// change. Nothing is serialized here: the frozen state turns into bytes
// only if a peer asks for it once the checkpoint is stable.
func (r *Replica) takeCheckpoint(seq uint64) {
	stop := r.ins.checkpointUS.Timer()
	snap, err := r.freeze()
	stop()
	if err != nil {
		r.cfg.Logf("replica %d: checkpoint at %d failed: %v", r.cfg.ID, seq, err)
		return
	}
	cs := r.ckpt(seq)
	cs.snapshot = snap
	cs.votes[r.cfg.ID] = snap.digest
	msg := &Message{
		Type:        MsgCheckpoint,
		SeqNo:       seq,
		Epoch:       r.membership.Epoch,
		StateDigest: snap.digest,
		// LastStable advertises our stable point so peers can tell a
		// straggler's vote (see onCheckpoint) from routine traffic.
		LastStable: r.lowWater,
	}
	msg.From = r.cfg.ID
	msg.Sign(r.cfg.Key)
	r.lastCkptVote = msg
	r.broadcast(msg)
	r.updateStats(func(s *ReplicaStats) { s.Checkpoints++ })
	r.ins.checkpoints.Inc()
	r.checkStable(seq)
}

// onCheckpoint records a checkpoint vote. Votes are only tracked inside
// the high-water window: r.ckpts is keyed by the vote's SeqNo, so
// without the bound a single faulty member could spam arbitrary future
// SeqNos and grow it without limit. Beyond-window claims are instead
// folded into a per-member map (bounded by membership size); f+1
// distinct members claiming checkpoints past our window prove the group
// left us behind, and we state-transfer rather than tracking votes we
// could never stabilize locally.
func (r *Replica) onCheckpoint(msg *Message) {
	if !r.fromMember(msg) || !r.verifySigned(msg) {
		return
	}
	// Straggler rescue: the sender's stable point trails ours, so it may
	// be missing the quorum votes that stabilized our checkpoint — votes
	// are broadcast exactly once, and a member whose copies were garbled
	// by a faulty peer has no other way to re-collect them. Its window
	// then jams against the stale low watermark and it stops proposing;
	// during the reconfiguration window's n=3f+2 quorums that one silent
	// replica stalls the whole group. Answer with our newest signed vote.
	// No ping-pong: we only answer senders strictly behind our stable
	// point, and our answer carries a LastStable at least theirs.
	if msg.LastStable < r.lowWater && r.lastCkptVote != nil {
		r.cfg.Logf("replica %d: answering straggler %d (stable %d < %d) with checkpoint vote at %d",
			r.cfg.ID, msg.From, msg.LastStable, r.lowWater, r.lastCkptVote.SeqNo)
		r.send(msg.From, r.lastCkptVote)
	}
	if msg.SeqNo <= r.lowWater {
		return // already stable
	}
	if msg.SeqNo > r.lowWater+r.window() {
		r.ckptAhead[msg.From] = msg.SeqNo        //lazlint:allow epoch-guard(checkpoint votes tally cross-epoch by design: they are how a replica stranded in an old epoch learns the group moved on and triggers state transfer)
		if len(r.ckptAhead) > r.membership.F() { //lazlint:allow digest-blind-tally(deliberately digest-blind: f+1 DISTINCT members claiming any checkpoint beyond our window proves at least one honest replica is ahead; which digest each claims is settled by the f+1-matching state transfer that follows)
			r.ckptAhead = make(map[transport.NodeID]uint64)
			r.requestStateTransfer(transferBeyondWindow)
		}
		return
	}
	cs := r.ckpt(msg.SeqNo)
	cs.votes[msg.From] = msg.StateDigest
	r.checkStable(msg.SeqNo)
}

// checkStable declares a checkpoint stable on a quorum of matching votes
// and truncates the log below it. A quorum for a checkpoint this replica
// has not executed up to yet changes nothing: the votes stay, and when
// execution gets there takeCheckpoint calls in again with the replica's
// own digest to compare.
func (r *Replica) checkStable(seq uint64) {
	cs := r.ckpt(seq)
	if cs.stable {
		return
	}
	counts := make(map[Digest]int)
	for _, d := range cs.votes {
		counts[d]++
	}
	// Collect every digest at quorum and take the byte-wise smallest.
	// With honest vote accounting two digests can never both reach 2f+1
	// votes, but the winner must not depend on map iteration order: all
	// replicas must agree on which state became stable even if vote
	// bookkeeping is ever wrong.
	var candidates []Digest
	for d, n := range counts {
		if n >= r.membership.Quorum() {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		r.noteSplit(seq, cs, counts)
		return
	}
	sort.Slice(candidates, func(i, j int) bool {
		return bytes.Compare(candidates[i][:], candidates[j][:]) < 0
	})
	winner := candidates[0]
	if winner.IsZero() {
		return
	}
	if cs.snapshot == nil && seq > r.lastExec {
		// Behind is not lost. The pre-prepares and votes that get this
		// replica to seq are in its log or on their way (seq is inside its
		// window, or the votes would not have been tallied), and executing
		// them is cheaper for everyone than shipping the state. If they
		// never come, the progress timer finds lastExec below stableSeen.
		r.stableSeen = max(r.stableSeen, seq)
		return
	}
	cs.stable = true
	lag := int64(r.lastExec) - int64(seq)
	r.ins.ckptStabilityLag.Observe(lag)
	if cs.snapshot == nil || cs.snapshot.digest != winner {
		// This replica executed seq and holds a different state from the
		// one a quorum agreed on (or none): it diverged, and only the
		// group's state can repair it.
		r.requestStateTransfer(transferDiverged)
		return
	}
	r.advanceLowWater(seq, cs.snapshot)
}

// noteSplit reports a checkpoint no digest can make stable any more: the
// largest tally plus the members not heard from yet fall short of a
// quorum. Replicas that executed the same batches vote the same digest, so
// a split means the application's state is not deterministic, or more
// than f members are faulty. The window then jams at this checkpoint.
// Counted and logged once per seq.
func (r *Replica) noteSplit(seq uint64, cs *checkpointState, counts map[Digest]int) {
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if cs.split || top+r.membership.N()-len(cs.votes) >= r.membership.Quorum() {
		return
	}
	cs.split = true
	r.ins.checkpointSplits.Inc()
	r.cfg.Logf("replica %d: checkpoint digests split at seq %d: own %v, tally %v",
		r.cfg.ID, seq, cs.votes[r.cfg.ID], counts)
}

// advanceLowWater installs a new stable checkpoint and garbage-collects.
func (r *Replica) advanceLowWater(seq uint64, snapshot *frozenState) {
	if seq <= r.lowWater {
		return
	}
	r.lowWater = seq
	r.lastSnap.release()
	r.lastSnap = snapshot
	// Keep the retained vote's advertised stable point current (re-sign:
	// the signature covers LastStable). Two replicas answer each other's
	// votes only when each advertises a stable point strictly behind the
	// other's — impossible when advertisements are truthful — so a stale
	// advertisement here could turn straggler rescue into a message loop.
	if r.lastCkptVote != nil && r.lastCkptVote.LastStable != seq {
		r.lastCkptVote.LastStable = seq
		r.lastCkptVote.Sign(r.cfg.Key)
	}
	for s := range r.log {
		if s <= seq {
			delete(r.log, s)
		}
	}
	// The stable entry itself goes too: votes at or below lowWater are
	// rejected on arrival, so it can never be consulted again.
	for s, cs := range r.ckpts {
		if s <= seq {
			if cs.snapshot != snapshot {
				cs.snapshot.release()
			}
			delete(r.ckpts, s)
		}
	}
	// Beyond-window claims may now be in (or behind) the moved window;
	// members still ahead will say so again.
	r.ckptAhead = make(map[transport.NodeID]uint64)
	if r.seq < seq {
		r.seq = seq
	}
	// The window just slid forward: a primary that stalled against the
	// high watermark can propose again immediately.
	r.maybePropose()
}
