package bft

import (
	"fmt"
	"sort"

	"lazarus/internal/transport"
)

// Why a replica asks for state. A replica that is merely behind executes
// its way forward; it asks only when its log cannot get it there.
const (
	// transferJoin: a joining (or removed) replica polling for the state
	// that makes it a member.
	transferJoin = "join"
	// transferBeyondWindow: f+1 members checkpointed past this replica's
	// log window, so it has been dropping the group's proposals.
	transferBeyondWindow = "beyond_window"
	// transferEpoch: f+1 members run a higher epoch; the ordering
	// handlers drop their messages.
	transferEpoch = "epoch"
	// transferTimeoutBehindStable: the progress timer fired with lastExec
	// below a checkpoint known to be stable — peers have truncated the
	// instances this replica is missing.
	transferTimeoutBehindStable = "timeout_behind_stable"
	// transferDiverged: this replica's digest at a checkpoint it executed
	// differs from the one a quorum agreed on.
	transferDiverged = "diverged"
)

var transferReasons = []string{
	transferJoin, transferBeyondWindow, transferEpoch, transferTimeoutBehindStable, transferDiverged,
}

// requestStateTransfer asks the group for its latest stable state.
func (r *Replica) requestStateTransfer(reason string) {
	r.ins.transferReason[reason].Inc()
	detail := fmt.Sprintf("%s: executed %d, low water %d, known stable %d, epoch probe %d",
		reason, r.lastExec, r.lowWater, r.stableSeen, r.epochProbe)
	r.cfg.Logf("replica %d: requesting state (%s) at epoch %d", r.cfg.ID, detail, r.membership.Epoch)
	r.stReplies = make(map[transport.NodeID]*Message)
	req := &Message{Type: MsgStateRequest, SeqNo: r.lastExec, Epoch: r.membership.Epoch}
	// Signed once and reused: servers authenticate requesters before
	// spending snapshot work on them. From must be set before Sign (send
	// re-stamps it with the same id).
	req.From = r.cfg.ID
	req.Sign(r.cfg.Key)
	for _, id := range r.cfg.Membership.Replicas {
		if id != r.cfg.ID {
			r.send(id, req)
		}
	}
	// Also ask the current membership, which may differ from the boot
	// configuration after reconfigurations.
	for _, id := range r.membership.Replicas {
		if id != r.cfg.ID && !r.cfg.Membership.Contains(id) {
			r.send(id, req)
		}
	}
	r.armProgressTimer() // retry if no usable replies arrive
}

// maybeEpochSync triggers a state transfer after an authenticated member
// advertised a higher epoch than ours — at most once per observed epoch
// value; the progress timer retries if it does not complete.
func (r *Replica) maybeEpochSync(epoch uint64) {
	if epoch <= r.epochProbe {
		return
	}
	r.epochProbe = epoch
	r.requestStateTransfer(transferEpoch)
}

// onStateRequest serves state to a lagging replica. Two cases:
//
//   - The requester is behind our stable checkpoint: serve the stable
//     snapshot (the classic PBFT path).
//   - The requester is at an older epoch but at (or past) our stable
//     checkpoint: the stable snapshot cannot help it across the
//     reconfiguration, so serve a fresh snapshot of current state. This
//     is safe — the requester still demands f+1 matching copies, so a
//     single faulty replica cannot feed it fabricated state — and it is
//     the only recovery path for a replica that missed a reconfiguration
//     whose quorum has since dissolved (e.g. the removed replica was
//     powered off before a new checkpoint stabilized).
func (r *Replica) onStateRequest(msg *Message) {
	// Authenticate the requester before spending any snapshot work:
	// encoding a fresh snapshot is expensive, and an unauthenticated
	// request would otherwise be a free amplification lever (tiny request
	// in, multi-KB snapshot out). Boot-or-current membership is the right
	// scope for *serving*: a removed replica legitimately asks for the
	// state that proves its removal. (Counting toward the restore quorum
	// is stricter — see verifySigned.)
	if boot, ok := r.cfg.Membership.Keys[msg.From]; !r.verifySigned(msg) && !(ok && msg.VerifySig(boot)) {
		return
	}
	if msg.Epoch < r.membership.Epoch && msg.SeqNo < r.lastExec {
		fresh, err := r.freeze()
		if err != nil {
			r.cfg.Logf("replica %d: snapshot for state request failed: %v", r.cfg.ID, err)
			return
		}
		defer fresh.release()
		r.serveState(msg.From, fresh)
		return
	}
	if r.lastSnap == nil || r.lowWater <= msg.SeqNo {
		return // nothing newer to offer
	}
	r.serveState(msg.From, r.lastSnap)
}

func (r *Replica) serveState(to transport.NodeID, f *frozenState) {
	reply, err := r.stateReply(f)
	if err != nil {
		r.cfg.Logf("replica %d: serving state to %d failed: %v", r.cfg.ID, to, err)
		return
	}
	r.send(to, reply)
}

// onStateReply collects snapshots; f+1 matching copies are proof enough
// that the state is correct (at least one comes from a correct replica).
// Copies match when they are for the same sequence number, the same bytes
// and the same voted digest.
func (r *Replica) onStateReply(msg *Message) {
	if msg.SnapSeqNo <= r.lastExec && !r.joining {
		return
	}
	if !r.verifySigned(msg) {
		return
	}
	r.stReplies[msg.From] = msg //lazlint:allow epoch-guard(state transfer is the cross-epoch recovery path: a replica fetching a snapshot is precisely the one whose local epoch is stale; freshness comes from f+1 matching snapshot digests, not epoch equality)
	// Count matching copies, scanning replies in sorted sender order: if
	// two snapshot groups ever tie at the same seq, which one gets
	// restored must not depend on map iteration order.
	type key struct {
		seq         uint64
		snap, voted Digest
	}
	keyOf := func(m *Message) key { return key{m.SnapSeqNo, m.snapshotSum(), m.StateDigest} }
	ids := make([]transport.NodeID, 0, len(r.stReplies))
	for id := range r.stReplies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	counts := make(map[key]int)
	var best *Message
	f := r.membership.F()
	for _, id := range ids {
		m := r.stReplies[id]
		k := keyOf(m)
		counts[k]++
		if counts[k] >= f+1 && (best == nil || m.SnapSeqNo > best.SnapSeqNo) {
			best = m
		}
	}
	if best == nil {
		return
	}
	if best.SnapSeqNo <= r.lastExec && !r.joining {
		return
	}
	if err := r.restoreSnapshot(best); err != nil {
		r.cfg.Logf("replica %d: state restore failed: %v", r.cfg.ID, err)
		// Every voucher of a snapshot that fails restore is lying — an
		// honest replica's snapshot always decodes, and restores to the
		// digest that replica voted — so evict the whole poisoned group
		// and retry: the progress timer re-issues the state request, and
		// the f+1 quorum re-forms from honest peers.
		bad := keyOf(best)
		for _, id := range ids {
			if keyOf(r.stReplies[id]) == bad {
				delete(r.stReplies, id)
			}
		}
		r.armProgressTimer()
		return
	}
	r.stReplies = make(map[transport.NodeID]*Message)
	r.inViewChange = false
	wasJoining := r.joining
	r.joining = !r.membership.Contains(r.cfg.ID)
	r.updateStats(func(s *ReplicaStats) { s.StateTransfers++ })
	r.ins.stateTransfers.Inc()
	r.cfg.Logf("replica %d: state transfer to seq %d (epoch %d, joining=%v->%v)",
		r.cfg.ID, r.lastExec, r.membership.Epoch, wasJoining, r.joining)
	if r.joining {
		// Still not a member: keep polling until the ADD executes.
		r.armProgressTimer()
		return
	}
	// Vote for the checkpoint at the restore point. A replica that
	// arrives here by transfer never executed this seq, so it would
	// otherwise never vote at it — yet it holds the f+1-vouched state,
	// which is exactly what a vote attests to, and restoreSnapshot
	// recomputed the digest from it. Freshly swapped-in members are the
	// common case: without this vote, a post-reconfig group of n=3f+1 can
	// be left with only 2f honest voters at the reconfig checkpoint (the
	// removed member is powered off, the joiner silent), and one
	// vote-garbling attacker then jams every straggler's window until it
	// relents.
	vote := &Message{
		Type:        MsgCheckpoint,
		SeqNo:       r.lastExec,
		Epoch:       r.membership.Epoch,
		StateDigest: r.lastSnap.digest,
		LastStable:  r.lowWater,
	}
	vote.From = r.cfg.ID
	vote.Sign(r.cfg.Key)
	r.lastCkptVote = vote
	r.broadcast(vote)
	// One transfer is enough: requests the snapshot already covers leave
	// the queue (they would only run the progress timer down), and the
	// committed instances the log kept above the restore point execute now.
	r.compactPending()
	r.executeReady()
}
