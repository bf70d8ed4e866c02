package bft

import (
	"sort"

	"lazarus/internal/transport"
)

// retransmitInstanceCap and retransmitRequestCap bound what one progress
// timeout re-sends: the oldest stuck instances' votes and the oldest
// pending requests (forwarded to the primary). Oldest-first, because
// in-order execution means only the head of the line blocks progress.
const (
	retransmitInstanceCap = 8
	retransmitRequestCap  = 16
)

// armProgressTimer (re)arms the request-progress timer for
// ViewChangeTimeout. When it fires before pending work executes, the
// replica suspects the primary and starts a view change (PBFT's liveness
// mechanism).
func (r *Replica) armProgressTimer() {
	if r.vcArmed {
		return
	}
	r.vcTimer.Reset(r.cfg.ViewChangeTimeout)
	r.vcArmed = true
}

func (r *Replica) disarmProgressTimer() {
	if !r.vcArmed {
		return
	}
	if !r.vcTimer.Stop() {
		select {
		case <-r.vcTimer.C:
		default:
		}
	}
	r.vcArmed = false
}

// onProgressTimeout fires when ordered progress stalled.
func (r *Replica) onProgressTimeout() {
	if r.joining {
		// Joining replicas use the timer to retry state transfer.
		r.requestStateTransfer(transferJoin)
		return
	}
	r.ins.progressTimeouts.Inc()
	if r.epochProbe > r.membership.Epoch {
		// A member advertised a higher epoch and our state transfer has
		// not completed: keep retrying it alongside the view change.
		r.requestStateTransfer(transferEpoch)
	} else if r.stableSeen > r.lastExec {
		// The group made a checkpoint stable that this replica has not
		// reached, and a whole timeout went by without its log getting it
		// there: the instances it is missing were truncated by the peers
		// that could have re-sent them. Only now is the state worth moving.
		r.requestStateTransfer(transferTimeoutBehindStable)
	}
	// A checkpoint of ours that never stabilized means our proposal
	// window may be jammed: re-advertise the vote. Peers whose stable
	// point is ahead answer with their own (onCheckpoint), re-supplying
	// the quorum votes we lost.
	if r.lastCkptVote != nil && r.lastCkptVote.SeqNo > r.lowWater {
		r.broadcast(r.lastCkptVote)
	}
	// Re-drive catch-up before escalating: re-broadcast our votes for
	// instances we hold but cannot execute yet. Peers that executed them
	// answer a stale prepare directly with their own votes (the catch-up
	// responder in onPrepare), which gives a straggler a retransmission
	// path that does not depend on assembling f+1 view-change volunteers
	// it may never get — once the rest of the group drained its pending
	// queue, nobody else's timer is running.
	var stuck []uint64
	for seq, in := range r.log {
		if seq > r.lastExec && in.prePrepare != nil && !in.executed {
			stuck = append(stuck, seq)
		}
	}
	sort.Slice(stuck, func(i, j int) bool { return stuck[i] < stuck[j] })
	// Bounded: each entry re-broadcast here costs up to two n-wide
	// fan-outs, and a deep pipeline stalled by a partition could hold a
	// window of instances. Retransmitting them all would flood the very
	// link that is struggling; the oldest few are the ones blocking
	// in-order execution, so they carry all the healing power anyway.
	if len(stuck) > retransmitInstanceCap {
		stuck = stuck[:retransmitInstanceCap]
	}
	for _, seq := range stuck {
		in := r.log[seq]
		r.ins.retransmitVotes.Inc()
		pm := &Message{
			Type:        MsgPrepare,
			From:        r.cfg.ID,
			View:        r.view,
			SeqNo:       seq,
			Epoch:       r.membership.Epoch,
			BatchDigest: in.digest,
		}
		pm.Sign(r.cfg.Key)
		r.broadcast(pm)
		if in.prepared {
			cm := *pm
			cm.Type = MsgCommit
			cm.Sig = nil // commit votes are unsigned
			r.broadcast(&cm)
		}
	}
	// A request accepted on a MAC alone is owed only if its signature
	// verifies, since a correct primary proposes nothing else: check those
	// before blaming the primary, and drop the ones that fail. If they were
	// all that was owed, the primary is not at fault — otherwise a client
	// with valid MACs and a bad signature could depose a correct primary.
	if r.dropUnsigned() {
		r.updateStats(func(*ReplicaStats) {})
		if len(r.pending) == 0 && len(stuck) == 0 && !r.inViewChange {
			return
		}
	}
	// Re-forward the oldest pending (never-ordered) requests to the
	// current primary. A request a backup holds can sit unordered for
	// benign reasons on a lossy network — the client's frame to the
	// primary was dropped while ours arrived — and without forwarding,
	// the only retransmission path is the client's own retry, which on a
	// WAN round trip costs far more than a replica-to-primary hop.
	// Requests self-authenticate (client-signed), so the primary treats a
	// forwarded copy, which carries no MAC, exactly like a direct
	// submission: it checks the signature either way. Bounded like the
	// vote retransmission, and pointless when we are the primary.
	if primary := r.membership.Primary(r.view); primary != r.cfg.ID {
		n := len(r.pending)
		if n > retransmitRequestCap {
			n = retransmitRequestCap
		}
		for i := 0; i < n; i++ {
			req := r.pending[i]
			r.send(primary, &Message{Type: MsgRequest, Request: &req})
			r.ins.requestForwards.Inc()
		}
	}
	// Escalate past an incomplete view change: if we already volunteered
	// for a higher view and it did not complete within the timeout, move
	// one further (PBFT's exponential regency escalation, linearized).
	next := r.view + 1
	if r.vcTarget >= next {
		next = r.vcTarget + 1
	}
	r.startViewChange(next)
}

// startViewChange suspects the current primary and volunteers for
// newView: it broadcasts a signed VIEW-CHANGE carrying the last stable
// checkpoint and every prepared batch above it, so the new primary can
// re-propose them. Executed instances are included too (PBFT carries
// everything above the stable checkpoint): a peer that missed the commit
// — e.g. it was mid-state-transfer when a reconfiguration batch executed
// — can only obtain it through the new view's re-proposals, and dropping
// executed proofs would instead re-propose a null batch at that sequence
// number, permanently splitting the group across epochs.
func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view || r.joining {
		return
	}
	r.inViewChange = true
	if newView > r.vcTarget {
		r.vcTarget = newView
	}
	var proofs []PreparedProof
	for seq, in := range r.log {
		if seq > r.lowWater && in.prepared && in.prePrepare != nil {
			if in.cert != nil {
				proofs = append(proofs, *in.cert)
				continue
			}
			// No certificate on hand (the instance prepared through
			// catch-up votes from mixed views). Carried anyway: honest
			// validators will discard it, but if the batch committed
			// anywhere, some honest replica holds the full certificate.
			proofs = append(proofs, PreparedProof{
				View:        in.prePrepare.View,
				SeqNo:       seq,
				BatchDigest: in.digest,
				Batch:       in.batch,
			})
		}
	}
	sort.Slice(proofs, func(i, j int) bool { return proofs[i].SeqNo < proofs[j].SeqNo })
	vc := &Message{
		Type:       MsgViewChange,
		Epoch:      r.membership.Epoch,
		NewView:    newView,
		LastStable: r.lowWater,
		Prepared:   proofs,
	}
	vc.From = r.cfg.ID
	vc.Sign(r.cfg.Key)
	r.recordViewChange(vc)
	r.broadcast(vc)
	r.updateStats(func(s *ReplicaStats) { s.ViewChanges++ })
	r.ins.viewChanges.Inc()
	// If this view change does not complete, escalate to the next view.
	r.vcArmed = false
	r.armProgressTimer()
	r.maybeNewView(newView)
}

// vcTrackCap bounds how many distinct future views accumulate vote
// tables at once. NewView is attacker-chosen: without a cap, one
// Byzantine member spraying view-change votes for ever-higher views
// allocates a map per view forever. Honest escalation concentrates on
// the few views just above the current one, so under pressure we keep
// the *lowest* tracked views — the ones that can actually be installed
// next — and shed the farthest-future ones.
const vcTrackCap = 32

func (r *Replica) recordViewChange(vc *Message) {
	byFrom, ok := r.viewChanges[vc.NewView]
	if !ok {
		if len(r.viewChanges) >= vcTrackCap {
			var maxNV uint64
			for nv := range r.viewChanges {
				if nv > maxNV {
					maxNV = nv
				}
			}
			// Our own vote must always land (dropping it would stall our
			// own escalation); anyone else's vote for the farthest view
			// yet is the one shed.
			if vc.NewView >= maxNV && vc.From != r.cfg.ID {
				return
			}
			delete(r.viewChanges, maxNV)
		}
		byFrom = make(map[transport.NodeID]*Message)
		r.viewChanges[vc.NewView] = byFrom
	}
	byFrom[vc.From] = vc
}

// onViewChange handles another replica's suspicion.
func (r *Replica) onViewChange(msg *Message) {
	if r.joining || !r.fromMember(msg) || !r.verifySigned(msg) {
		return
	}
	// Straggler rescue, second channel: VIEW-CHANGE advertises LastStable,
	// and during the stall a window-jammed replica causes, view changes
	// are the one message type guaranteed to keep flowing — every honest
	// replica's progress timer fires. Answering here (same rule as
	// onCheckpoint: only senders strictly behind our stable point) heals
	// the jam within one timeout round instead of waiting for checkpoint
	// re-advertisement to find an up-to-date peer.
	if msg.Epoch == r.membership.Epoch && msg.LastStable < r.lowWater && r.lastCkptVote != nil {
		r.send(msg.From, r.lastCkptVote)
	}
	if msg.NewView <= r.view {
		return
	}
	// Epoch freshness: a view change signed in an earlier membership
	// configuration must not count toward this epoch's quorum — replayed
	// stale view changes could otherwise assemble a NEW-VIEW whose
	// proofs predate a reconfiguration.
	if msg.Epoch != r.membership.Epoch {
		return
	}
	r.recordViewChange(msg)
	// Liveness boost (PBFT §4.5.2): if f+1 replicas already moved to a
	// higher view, join the smallest of them even without a timeout. A
	// replica already changing views joins one above its own target: one
	// that volunteered low — it lagged, or its timer fired just before the
	// others' votes arrived — would otherwise escalate one view per
	// timeout, and the group could not form a quorum until it caught up.
	floor := r.view
	if r.inViewChange {
		floor = max(floor, r.vcTarget)
	}
	distinct := make(map[transport.NodeID]uint64)
	for nv, byFrom := range r.viewChanges {
		if nv <= floor {
			continue
		}
		for from := range byFrom {
			if cur, ok := distinct[from]; !ok || nv < cur {
				distinct[from] = nv
			}
		}
	}
	if len(distinct) > r.membership.F() {
		smallest := uint64(0)
		for _, nv := range distinct {
			if smallest == 0 || nv < smallest {
				smallest = nv
			}
		}
		r.startViewChange(smallest)
		return
	}
	r.maybeNewView(msg.NewView)
}

// maybeNewView lets the would-be primary of newView assemble NEW-VIEW
// once a quorum of view changes arrived.
func (r *Replica) maybeNewView(newView uint64) {
	if r.membership.Primary(newView) != r.cfg.ID || newView <= r.view {
		return
	}
	byFrom := r.viewChanges[newView]
	// Only view changes from the current epoch count: stale recorded
	// ones (from before a reconfiguration executed) would make peers
	// reject the whole NEW-VIEW.
	vcs := make([]Message, 0, len(byFrom))
	for _, vc := range byFrom {
		if vc.Epoch == r.membership.Epoch {
			vcs = append(vcs, *vc)
		}
	}
	if len(vcs) < r.membership.Quorum() {
		return
	}
	sort.Slice(vcs, func(i, j int) bool { return vcs[i].From < vcs[j].From })
	// The NEW-VIEW carries no re-proposals: every peer computes the same
	// set from the signed view changes (onNewView).
	nv := &Message{
		Type:        MsgNewView,
		NewView:     newView,
		Epoch:       r.membership.Epoch,
		NewViewMsgs: vcs,
	}
	nv.From = r.cfg.ID
	nv.Sign(r.cfg.Key)
	r.broadcast(nv)
	r.installNewView(newView, buildNewViewProposals(newView, r.membership.Epoch, vcs, r.membership), maxStable(vcs))
}

// buildNewViewProposals computes the deterministic set O of re-proposals
// from a quorum of view changes: for every sequence number above the
// maximum stable checkpoint for which some view change carries a VALID
// prepared proof, re-propose the proof from the highest view; gaps up to
// the largest such sequence number are filled with null (empty) batches.
// Proof validity is certificate-grade (validPreparedProof): the proof's
// own word is worthless, since any single Byzantine member could
// otherwise fabricate a high-view proof binding an arbitrary batch —
// or a null one — to a sequence number honest replicas already executed
// differently.
func buildNewViewProposals(newView, epoch uint64, vcs []Message, mem *Membership) []Message {
	stable := maxStable(vcs)
	best := make(map[uint64]PreparedProof)
	maxSeq := stable
	for _, vc := range vcs {
		for i := range vc.Prepared {
			p := vc.Prepared[i]
			if p.SeqNo <= stable {
				continue
			}
			if !validPreparedProof(&p, mem) {
				continue
			}
			if cur, ok := best[p.SeqNo]; !ok || p.View > cur.View {
				best[p.SeqNo] = p
			}
			if p.SeqNo > maxSeq {
				maxSeq = p.SeqNo
			}
		}
	}
	var out []Message
	for seq := stable + 1; seq <= maxSeq; seq++ {
		var batch *Batch
		var digest Digest
		if p, ok := best[seq]; ok {
			batch = p.Batch
			digest = p.BatchDigest
		} else {
			batch = &Batch{}
			digest = batch.Digest()
		}
		out = append(out, Message{
			Type:        MsgPrePrepare,
			View:        newView,
			SeqNo:       seq,
			Epoch:       epoch,
			Batch:       batch,
			BatchDigest: digest,
		})
	}
	return out
}

// validPreparedProof checks a prepared claim against its certificate: the
// batch must match the claimed digest, and quorum−1 distinct non-primary
// members of the claimed view (2f at n=3f+1; one more during the
// reconfiguration window's n=3f+2) must have signed matching prepares in
// mem's epoch. The epoch binds the certificate: views carry over across
// epochs and the epoch fence reuses sequence numbers, so an old epoch's
// certificate can name the same (view, seq) as a current one. Counting is
// lenient — unknown or invalid prepares are skipped, not fatal — so a
// Byzantine sender cannot poison an otherwise-sufficient certificate by
// appending garbage. DESIGN.md §10 shows two valid certificates never
// bind different digests to one (view, seq, epoch).
func validPreparedProof(p *PreparedProof, mem *Membership) bool {
	if p.Batch == nil || p.Batch.Digest() != p.BatchDigest {
		return false
	}
	primary := mem.Primary(p.View)
	distinct := make(map[transport.NodeID]bool)
	for i := range p.Prepares {
		pm := &p.Prepares[i]
		if pm.Type != MsgPrepare || pm.View != p.View || pm.Epoch != mem.Epoch ||
			pm.SeqNo != p.SeqNo || pm.BatchDigest != p.BatchDigest {
			continue
		}
		if pm.From == primary || distinct[pm.From] {
			continue
		}
		key, isMember := mem.Keys[pm.From]
		if !isMember || !pm.VerifySig(key) {
			continue
		}
		distinct[pm.From] = true
	}
	return len(distinct) >= mem.Quorum()-1
}

// preparedCert snapshots the prepared certificate for an instance at the
// moment its prepared predicate fires: every signed prepare from
// non-primary members matching the instance's view and digest, in
// deterministic (sender) order. A same-view prepare quorum always yields
// at least quorum-1 such prepares — every voter besides the primary
// contributed a signed message (the primary's vote is its pre-prepare, and
// our own prepare is recorded when cast).
func (r *Replica) preparedCert(seq uint64, in *instance) *PreparedProof {
	if in.prePrepare == nil {
		return nil
	}
	proof := &PreparedProof{
		View:        in.prePrepare.View,
		SeqNo:       seq,
		BatchDigest: in.digest,
		Batch:       in.batch,
	}
	primary := r.membership.Primary(in.prePrepare.View)
	froms := make([]transport.NodeID, 0, len(in.prepareMsgs))
	for from := range in.prepareMsgs {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, from := range froms {
		pm := in.prepareMsgs[from]
		if from == primary || pm.View != in.prePrepare.View || pm.BatchDigest != in.digest {
			continue
		}
		proof.Prepares = append(proof.Prepares, *pm)
	}
	return proof
}

// onCatchUp installs a prepared certificate received from a caught-up
// peer (the responder in onPrepare). The certificate is the same
// evidence a view change carries — quorum-1 signed same-view prepares of
// this epoch — so it is validated with validPreparedProof and trusted on
// its own merits, not on the sender's word. This is the straggler's
// escape hatch: a replica whose pre-prepare is from a view the group has
// moved past can never re-assemble a same-view prepare quorum locally
// (prepares from other views are filtered), and during the
// reconfiguration window's n=3f+2 quorums the group cannot make the
// progress that would otherwise heal it via checkpoint state transfer —
// every honest replica is needed, including the straggler.
func (r *Replica) onCatchUp(msg *Message) {
	if r.joining || !r.fromMember(msg) {
		return
	}
	if msg.Epoch != r.membership.Epoch || !r.inWindow(msg.SeqNo) {
		return
	}
	if len(msg.Prepared) != 1 {
		return
	}
	p := msg.Prepared[0]
	if p.SeqNo != msg.SeqNo {
		return
	}
	// Read the instance WITHOUT creating it: the certificate has not
	// been validated yet, and r.inst would grow the log on the say-so of
	// any member — a garbage CATCH-UP per in-window sequence number
	// would allocate agreement state that no valid certificate backs
	// (the PR 7 reply-cache bug class, resurfaced in the log).
	in := r.log[msg.SeqNo]
	if in != nil {
		if in.executed {
			return
		}
		if in.prepared && in.digest == p.BatchDigest {
			return // already hold equivalent evidence
		}
		if in.prePrepare != nil && in.digest != p.BatchDigest {
			// A conflicting certificate supersedes our proposal only from a
			// strictly higher view — unless we never prepared ours, in which
			// case a same-view certificate proves the quorum went the other
			// way (an equivocating primary fed us the minority variant).
			if p.View < in.prePrepare.View {
				return
			}
			if p.View == in.prePrepare.View && in.prepared {
				return
			}
		}
	}
	// The certificate is all the batch needs: of the quorum that prepared
	// it, at least f+1 correct members authenticated every request. It
	// counts only prepares signed in this epoch.
	if !validPreparedProof(&p, r.membership) {
		return
	}
	in = r.inst(msg.SeqNo)
	in.prePrepare = &Message{Type: MsgPrePrepare, From: r.membership.Primary(p.View), View: p.View,
		SeqNo: p.SeqNo, Epoch: r.membership.Epoch, Batch: p.Batch, BatchDigest: p.BatchDigest}
	in.batch = p.Batch
	in.digest = p.BatchDigest
	in.prepared = true
	cert := p
	in.cert = &cert
	in.commits[r.cfg.ID] = in.digest
	r.commitMark = max(r.commitMark, msg.SeqNo)
	cm := &Message{
		Type:        MsgCommit,
		View:        r.view,
		SeqNo:       msg.SeqNo,
		Epoch:       r.membership.Epoch,
		BatchDigest: in.digest,
	}
	r.broadcast(cm)
	r.checkCommitted(msg.SeqNo)
}

func maxStable(vcs []Message) uint64 {
	var out uint64
	for _, vc := range vcs {
		if vc.LastStable > out {
			out = vc.LastStable
		}
	}
	return out
}

// onNewView validates the new primary's NEW-VIEW and installs the view.
func (r *Replica) onNewView(msg *Message) {
	if r.joining || msg.NewView <= r.view {
		return
	}
	if msg.From != r.membership.Primary(msg.NewView) || !r.verifySigned(msg) {
		return
	}
	// Epoch freshness: a NEW-VIEW replayed from an earlier membership
	// configuration must not install a view whose re-proposals predate a
	// reconfiguration.
	if msg.Epoch != r.membership.Epoch {
		return
	}
	// Verify the quorum of view changes it carries.
	if len(msg.NewViewMsgs) < r.membership.Quorum() {
		return
	}
	seen := make(map[transport.NodeID]bool)
	for i := range msg.NewViewMsgs {
		vc := &msg.NewViewMsgs[i]
		if vc.Type != MsgViewChange || vc.NewView != msg.NewView || vc.Epoch != msg.Epoch || seen[vc.From] {
			return
		}
		pub, ok := r.membership.Keys[vc.From]
		if !ok || !vc.VerifySig(pub) {
			return
		}
		seen[vc.From] = true
	}
	// Install O as computed here from the signed view changes. The
	// re-proposed requests are not checked again: a batch is either null
	// or backed by a valid prepared certificate, and of the quorum that
	// prepared it at least f+1 correct members authenticated every
	// request, on a MAC or a signature. Checking signatures here would add
	// nothing, and would let a client and a primary that collude (valid
	// MACs, a bad signature) block every later view at the replicas that
	// never saw the MACs.
	r.installNewView(msg.NewView, buildNewViewProposals(msg.NewView, r.membership.Epoch, msg.NewViewMsgs, r.membership),
		maxStable(msg.NewViewMsgs))
}

// installNewView enters the view and processes the re-proposals.
func (r *Replica) installNewView(newView uint64, prePrepares []Message, stable uint64) {
	r.view = newView
	r.inViewChange = false
	if r.vcTarget < newView {
		r.vcTarget = newView
	}
	for nv := range r.viewChanges {
		if nv <= newView {
			delete(r.viewChanges, nv)
		}
	}
	// Reconcile the log with O rather than dropping everything un-executed:
	// an in-flight instance whose digest matches its re-proposal keeps its
	// vote tallies (votes are digest-keyed, so votes that raced ahead of
	// our NEW-VIEW — peers install the view in no particular order — stay
	// valid), as do vote-only buffers with no pre-prepare yet. Only
	// proposals superseded by O (different digest, or not re-proposed at
	// all) are discarded. Wiping matching instances here is what used to
	// strand stragglers: a replica that missed a commit round lost the
	// buffered votes with every view change and could never assemble a
	// commit quorum again.
	proposed := make(map[uint64]Digest, len(prePrepares))
	for i := range prePrepares {
		proposed[prePrepares[i].SeqNo] = prePrepares[i].BatchDigest
	}
	for seq, in := range r.log {
		if seq <= r.lastExec || in.prePrepare == nil {
			continue
		}
		if d, ok := proposed[seq]; !ok || in.digest != d {
			// The superseded batch's requests go back to pending: the
			// clients still want them ordered, and if every replica that
			// held them discards them here, only client retransmission
			// would ever revive them.
			r.requeueInstance(in)
			delete(r.log, seq)
		}
	}
	maxSeq := stable
	for i := range prePrepares {
		pp := prePrepares[i]
		if pp.SeqNo > maxSeq {
			maxSeq = pp.SeqNo
		}
		// An instance we already prepared (usually: already executed) in an
		// earlier view needs its commit vote RE-ANNOUNCED under the new
		// view. acceptPrePrepare re-broadcasts our prepare, but
		// checkPrepared early-returns on in.prepared and never resends the
		// commit — and a peer that missed the original commit round can
		// only assemble a commit quorum from votes sent after this
		// re-proposal. Without the re-announcement the straggler re-prepares
		// but holds a single commit vote forever: it cannot execute, its
		// progress timer keeps firing, and the group livelocks in a
		// view-change storm.
		reannounce := false
		if in, ok := r.log[pp.SeqNo]; ok && in.prepared && in.digest == pp.BatchDigest {
			reannounce = true
		}
		ppCopy := pp
		// The new primary implicitly prepares its re-proposals.
		ppCopy.From = r.membership.Primary(newView)
		r.acceptPrePrepare(&ppCopy)
		if reannounce {
			cm := &Message{
				Type:        MsgCommit,
				View:        newView,
				SeqNo:       pp.SeqNo,
				Epoch:       r.membership.Epoch,
				BatchDigest: pp.BatchDigest,
			}
			r.broadcast(cm)
		}
		// Kept tallies (or votes buffered while we were mid-view-change)
		// may already complete the instance; checkPrepared's early return
		// skips this check for instances that were prepared coming in.
		r.checkCommitted(pp.SeqNo)
	}
	// Re-anchor the proposal counter to the reconciled log: above maxSeq
	// nothing with a pre-prepare survived the reconciliation (executed
	// instances are all at or below lastExec). Only ever raising the
	// counter leaves phantoms — if a previous view change had advanced it
	// over instances this one just deleted, the primary would count
	// nonexistent in-flight instances against pipelineDepth and, with the
	// pipeline "full" of ghosts, never propose again.
	r.seq = maxSeq
	if r.seq < r.lastExec {
		r.seq = r.lastExec
	}
	// The group's stable state may be ahead of us; whether the log still
	// gets us there is the progress timer's call.
	r.stableSeen = max(r.stableSeen, stable)
	r.disarmProgressTimer()
	if len(r.pending) > 0 {
		r.armProgressTimer()
	}
	r.updateStats(func(*ReplicaStats) {})
	r.cfg.Logf("replica %d: installed view %d (primary %d)", r.cfg.ID, newView, r.membership.Primary(newView))
	// If we are the new primary and requests queued up during the view
	// change, propose now rather than waiting for the batch tick.
	r.maybePropose()
}
