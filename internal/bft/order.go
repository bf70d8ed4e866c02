package bft

import (
	"bytes"
	"crypto/ed25519"
	"time"

	"lazarus/internal/transport"
)

// reconfigPrefix marks operations interpreted by the replication layer
// itself rather than the application: membership changes issued by the
// (trusted) Lazarus controller.
var reconfigPrefix = []byte("\x00BFT-RECONFIG\x00")

// maxPending bounds the unordered-request queue. Requests are
// authenticated before queueing, but authentication alone does not bound
// memory: any registered client can sign requests faster than a stalled
// primary orders them. Past the cap new requests are dropped and the
// client's retransmission recovers them once ordering catches up.
const maxPending = 4096

// ReconfigOp is a membership-change command ordered through consensus,
// BFT-SMaRt style (paper §5.2: "first add a new replica and then remove
// the old replica to be quarantined").
type ReconfigOp struct {
	// Add, when true, adds the replica; otherwise removes it.
	Add bool
	// Replica is the subject node.
	Replica transport.NodeID
	// PubKey is the subject's public key (required for Add).
	PubKey []byte
}

// EncodeReconfigOp serializes a reconfiguration for submission as a
// request payload: prefix add:u8 replica:u64 pubKey:blob (see codec.go).
// Only requests signed by the controller key execute.
func EncodeReconfigOp(op ReconfigOp) []byte {
	b := appendBool(append([]byte(nil), reconfigPrefix...), op.Add)
	b = appendU64(b, uint64(op.Replica))
	return appendBlob(b, op.PubKey)
}

func decodeReconfigOp(payload []byte) (ReconfigOp, bool) {
	if !bytes.HasPrefix(payload, reconfigPrefix) {
		return ReconfigOp{}, false
	}
	r := wireReader{buf: payload, off: len(reconfigPrefix), ok: true}
	add := r.u8()
	op := ReconfigOp{Add: add == 1, Replica: transport.NodeID(r.u64()), PubKey: r.blob()}
	return op, add <= 1 && r.done()
}

// onRequest handles a client request: authenticate, deduplicate, queue
// (all replicas; the primary proposes from its queue) and arm the progress
// timer. Authentication comes first — serving the reply cache to
// unauthenticated senders would let anyone who can name a client id
// trigger reply traffic toward it (traffic amplification aimed at the
// client).
func (r *Replica) onRequest(msg *Message) {
	if msg.Request == nil {
		return
	}
	if !r.requestOK(msg, 0) {
		r.cfg.Logf("replica %d: rejecting unauthenticated request from %d", r.cfg.ID, msg.Request.Client)
		return
	}
	req := *msg.Request
	rec, ok := r.clients[req.Client]
	if ok && req.Seq <= rec.lastSeq {
		// Retransmission of an executed request: resend the cached
		// reply.
		if rec.lastReply != nil && req.Seq == rec.lastSeq {
			r.send(req.Client, rec.lastReply)
		}
		return
	}
	d := req.Digest()
	if !r.pendingSet[d] && !r.proposedInView(req.Client, req.Seq) {
		// Cap the pending queue: every entry here was signed by a
		// registered client, but a Byzantine (or merely runaway) client
		// can sign requests faster than a stalled primary orders them,
		// and an unbounded queue turns that into memory exhaustion at
		// every replica. Dropping is safe — the client retransmits, and
		// a full queue already means ordering is the bottleneck.
		if len(r.pending) >= maxPending {
			r.cfg.Logf("replica %d: pending queue full (%d); dropping request from %d",
				r.cfg.ID, maxPending, req.Client)
			return
		}
		r.pendingSet[d] = true //lazlint:allow epoch-guard(client requests carry no epoch/view; freshness is per-client sequence numbers, and epoch enforcement happens when the batch is ordered)
		r.pending = append(r.pending, req)
	}
	// Any replica holding unordered requests arms its progress timer:
	// if the primary does not order them in time, a view change starts.
	r.armProgressTimer()
	r.updateStats(func(*ReplicaStats) {})
	// The primary proposes eagerly: a ready batch must not wait for the
	// next BatchDelay tick.
	r.maybePropose()
}

// proposedInView reports whether this replica, as primary, already
// proposed the client's request seq in the current view in an instance
// that has not executed. propose takes a request out of pendingSet, so
// without this a client's retransmit of a request in flight is ordered a
// second time. An instance that a view change or the epoch fence abandons
// leaves the log, and requeueInstance revives its requests.
func (r *Replica) proposedInView(client transport.NodeID, seq uint64) bool {
	if !r.primary() {
		return false
	}
	for s := r.lastExec + 1; s <= r.seq; s++ {
		in := r.log[s]
		if in == nil || in.executed || in.prePrepare == nil || in.prePrepare.View != r.view {
			continue
		}
		for i := range in.batch.Requests {
			if req := &in.batch.Requests[i]; req.Client == client && req.Seq == seq {
				return true
			}
		}
	}
	return false
}

// verifyRequest authenticates a request against the client key registry
// or, for reconfigurations, the controller key.
func (r *Replica) verifyRequest(req *Request) bool {
	if _, isReconfig := decodeReconfigOp(req.Op); isReconfig {
		return len(r.cfg.ControllerKey) == ed25519.PublicKeySize && req.Verify(r.cfg.ControllerKey)
	}
	pub, ok := r.cfg.ClientKeys[req.Client]
	if !ok {
		return false
	}
	return req.Verify(pub)
}

// replyKey returns the key that seals replies to a request of client: the
// one shared with the public key that authenticated the request (see
// verifyRequest), derived on first use.
func (r *Replica) replyKey(client transport.NodeID, isReconfig bool) (*replyKey, error) {
	pub := r.cfg.ClientKeys[client]
	if isReconfig {
		pub = r.cfg.ControllerKey
	}
	if k, ok := r.replyKeys[string(pub)]; ok {
		return k, nil
	}
	k, err := newReplyKey(r.cfg.Key, pub, false)
	if err != nil {
		return nil, err
	}
	r.replyKeys[string(pub)] = k
	return k, nil
}

// maybePropose is the eager proposal path: it proposes immediately when
// a batch is full, or when nothing is in flight (so a lone request never
// waits out a BatchDelay tick). While the pipeline is busy, partial
// batches keep accumulating until the tick sweeps them via proposeAll —
// proposing every request the instant it arrives would degenerate into
// singleton batches and forfeit amortization.
func (r *Replica) maybePropose() {
	r.propose(false)
}

// proposeAll is the BatchDelay tick path: it drains pending requests into
// proposals regardless of batch occupancy, bounded only by the window and
// the pipeline depth.
func (r *Replica) proposeAll() {
	r.propose(true)
}

// propose starts consensus on pending batches. It keeps proposing —
// pipelining multiple consensus instances — while requests are pending,
// the checkpoint window has room, and fewer than pipelineDepth instances
// are in flight (proposed but not yet executed). Unless force is set,
// partial batches are proposed only into an idle pipeline.
func (r *Replica) propose(force bool) {
	if r.joining || r.inViewChange || !r.primary() {
		return
	}
	// A replica that just became primary may have executed past its own
	// proposal counter (it executed instances the old primary proposed);
	// new sequence numbers must start above everything executed.
	if r.seq < r.lastExec {
		r.seq = r.lastExec
	}
	for len(r.pending) > 0 &&
		// Respect the window: do not run ahead of checkpointing.
		r.seq < r.lowWater+r.window() &&
		// Respect the pipeline depth: bound optimistic work in flight.
		r.seq-r.lastExec < pipelineDepth &&
		// Eager calls propose partial batches only when nothing is in
		// flight; the tick sweeps the rest.
		(force || len(r.pending) >= batchSize || r.seq == r.lastExec) {
		batch := &Batch{Requests: r.takeSigned(batchSize)}
		n := len(batch.Requests)
		if n == 0 {
			break // nothing signed yet: the pool's verdicts re-enter onRequest
		}
		for i := range batch.Requests {
			delete(r.pendingSet, batch.Requests[i].Digest())
		}
		r.ins.batchOccupancy.Observe(int64(n))
		r.seq++
		seq := r.seq
		r.ins.pipelineInflight.Observe(int64(seq - r.lastExec))
		pp := &Message{
			Type:        MsgPrePrepare,
			From:        r.cfg.ID,
			View:        r.view,
			SeqNo:       seq,
			Epoch:       r.membership.Epoch,
			Batch:       batch,
			BatchDigest: batch.Digest(),
		}
		// Unsigned: the channel authenticates the primary (onPrePrepare).
		r.broadcast(pp)
		r.acceptPrePrepare(pp) // the primary pre-prepares locally
	}
}

// takeSigned takes up to n requests off the front of the pending queue
// whose own signatures this replica verified, the only ones a primary
// proposes. The others — accepted on a MAC while this replica was a
// backup, or requeued from a batch it never checked — stay queued, in
// order, and go to the verify pool (upgradeUnsigned).
func (r *Replica) takeSigned(n int) []Request {
	var out, unsigned []Request
	i := 0
	for ; i < len(r.pending) && len(out) < n; i++ {
		req := &r.pending[i]
		if r.verified.signed(req) {
			out = append(out, *req)
		} else {
			r.upgradeUnsigned(req)
			unsigned = append(unsigned, *req)
		}
	}
	if unsigned == nil {
		r.pending = r.pending[i:]
	} else {
		r.pending = append(unsigned, r.pending[i:]...)
	}
	return out
}

// acceptPrePrepare validates and registers a proposal, then sends
// PREPARE.
func (r *Replica) acceptPrePrepare(pp *Message) {
	in := r.inst(pp.SeqNo)
	// An executed instance's digest is immutable: nothing — not even a
	// new-view re-proposal — may rebind the sequence number to another
	// batch after execution. Without this guard a malicious new primary
	// could overwrite in.digest and desynchronize the catch-up responder.
	if in.executed && in.digest != pp.BatchDigest {
		r.cfg.Logf("replica %d: ignoring conflicting proposal for executed seq %d", r.cfg.ID, pp.SeqNo)
		return
	}
	in.prePrepare = pp
	in.batch = pp.Batch
	in.digest = pp.BatchDigest
	if in.startedAt.IsZero() {
		in.startedAt = time.Now() //lazlint:allow wallclock(commit-latency metric start; never hashed, voted on or executed)
	}
	in.prepares[r.cfg.ID] = pp.BatchDigest
	// The primary's pre-prepare stands in for its prepare in the tally
	// (PBFT's prepared predicate: pre-prepare + 2f prepares from distinct
	// replicas); the certificate is the 2f signed prepares alone.
	in.prepares[pp.From] = pp.BatchDigest
	if !r.primary() {
		prep := &Message{
			Type:        MsgPrepare,
			From:        r.cfg.ID,
			View:        pp.View,
			SeqNo:       pp.SeqNo,
			Epoch:       r.membership.Epoch,
			BatchDigest: pp.BatchDigest,
		}
		// Signed so peers can count it toward certificate-grade quorums;
		// From must be set before Sign (the signature covers it).
		prep.Sign(r.cfg.Key)
		in.prepareMsgs[r.cfg.ID] = prep
		r.broadcast(prep)
	}
	r.checkPrepared(pp.SeqNo)
}

// onPrePrepare handles the primary's proposal. It carries no signature:
// the transport authenticated its sender (pump stamps the envelope's
// origin into From), and only the view's primary may propose. A
// certificate for it later is quorum−1 signed prepares, which DESIGN.md
// §10 shows is enough.
func (r *Replica) onPrePrepare(msg *Message) {
	if !r.prePrepareAdmissible(msg) {
		return
	}
	if msg.Batch == nil || msg.Batch.Digest() != msg.BatchDigest {
		r.cfg.Logf("replica %d: pre-prepare digest mismatch at seq %d", r.cfg.ID, msg.SeqNo)
		return
	}
	// Authenticate every request in the batch before the proposal touches
	// the log: a Byzantine primary must not inject operations no client
	// sent. Either grade will do — this replica's MAC proves the client
	// sent it as well as a signature does. The dispatch path resolved
	// these before the handler ran (verdicts ride on the message);
	// requestOK resolves direct calls inline.
	for i := range msg.Batch.Requests {
		if !r.requestOK(msg, i) {
			r.cfg.Logf("replica %d: batch at seq %d carries unauthenticated request", r.cfg.ID, msg.SeqNo)
			return
		}
	}
	in := r.inst(msg.SeqNo)
	if in.prePrepare != nil {
		if in.digest != msg.BatchDigest {
			// Conflicting proposal in the same view: Byzantine primary.
			r.cfg.Logf("replica %d: conflicting pre-prepare at seq %d; starting view change", r.cfg.ID, msg.SeqNo)
			r.startViewChange(r.view + 1)
		}
		return
	}
	r.acceptPrePrepare(msg)
	// An accepted proposal is progress owed: the timer runs until it
	// executes. Votes can get here before the proposal, in which case it
	// has executed already and there is nothing left to wait for — arming
	// then would fire a solitary view change the moment the load pauses.
	if !in.executed {
		r.armProgressTimer()
	}
}

// onPrepare counts prepare votes. A vote arriving before the pre-prepare
// is buffered together with the digest it voted for: tallying buffered
// votes blindly would let a Byzantine peer's votes for a *different*
// batch count toward this instance's quorum once the pre-prepare lands.
func (r *Replica) onPrepare(msg *Message) {
	if r.joining || !r.fromMember(msg) {
		return
	}
	if msg.Epoch != r.membership.Epoch || !r.inWindow(msg.SeqNo) {
		return
	}
	// Verify the sender's signature before the vote touches any state —
	// including the catch-up responder below, which would otherwise be a
	// traffic amplifier for unauthenticated prepares. An unverified vote
	// counted toward a prepared quorum poisons the certificate: the
	// quorum looks satisfied locally, but the certificate carried into a
	// view change lacks 2f valid prepares and honest peers discard it,
	// re-proposing a null batch where this replica may already have
	// executed the real one.
	if !r.replicaSigOK(msg) {
		return
	}
	// Catch-up responder: a prepare for an instance we already executed
	// means the sender is rebuilding it — from a new-view re-proposal or
	// the stuck-instance retry in onProgressTimeout — and is missing
	// votes we counted long ago. Answer the sender directly with our
	// commit, our prepare at the current view, and the prepared
	// certificate itself: the certificate is self-authenticating, so a
	// straggler that can no longer assemble a same-view prepare quorum
	// (its pre-prepare is from a view the group has left behind) adopts
	// it wholesale instead of waiting for group progress that may itself
	// be blocked on the straggler. The commit goes first and the response
	// is suppressed once we hold the sender's commit vote FOR OUR DIGEST
	// (a buffered vote for a different digest means the sender still
	// disagrees), so two caught-up replicas cannot ping-pong responses.
	if in, ok := r.log[msg.SeqNo]; ok && in.executed {
		if d, seen := in.commits[msg.From]; !seen || d != in.digest {
			base := Message{
				SeqNo:       msg.SeqNo,
				View:        r.view,
				Epoch:       r.membership.Epoch,
				BatchDigest: in.digest,
			}
			cm := base
			cm.Type = MsgCommit
			r.send(msg.From, &cm)
			pm := base
			pm.Type = MsgPrepare
			pm.From = r.cfg.ID
			pm.Sign(r.cfg.Key)
			r.send(msg.From, &pm)
			if in.cert != nil {
				cu := base
				cu.Type = MsgCatchUp
				cu.Prepared = []PreparedProof{*in.cert}
				r.send(msg.From, &cu)
			}
		}
		return
	}
	if r.inViewChange || msg.View != r.view {
		return
	}
	in := r.inst(msg.SeqNo)
	if in.prePrepare != nil && msg.BatchDigest != in.digest {
		return // vote for a different proposal
	}
	in.prepares[msg.From] = msg.BatchDigest
	// Keep the signed message: it may become part of this instance's
	// prepared certificate (filtered by digest and view at cert build).
	in.prepareMsgs[msg.From] = msg
	r.checkPrepared(msg.SeqNo)
}

// countVotes tallies votes matching the instance's fixed digest. Only
// meaningful once the pre-prepare set in.digest.
func countVotes(votes map[transport.NodeID]Digest, digest Digest) int {
	n := 0
	for _, d := range votes {
		if d == digest {
			n++
		}
	}
	return n
}

// checkPrepared advances to the commit phase once 2f+1 replicas (self
// included) prepared the same digest — and the quorum is provable.
func (r *Replica) checkPrepared(seq uint64) {
	in := r.inst(seq)
	if in.prepared || in.prePrepare == nil {
		return
	}
	if countVotes(in.prepares, in.digest) < r.membership.Quorum() {
		return
	}
	// The digest tally alone is not proof. Votes retained across a view
	// change — including the old AND new primaries' implicit pre-prepare
	// votes, two tally entries backed by zero signed prepares — can reach
	// a quorum while too few prepares were signed in THIS pre-prepare's
	// view. Declaring prepared on such a tally is unsafe, not merely
	// unprovable: this replica's commit vote helps the batch execute
	// somewhere, yet the certificate it later carries into a view change
	// is discarded by validPreparedProof, the next primary re-proposes a
	// null batch at the sequence number, and replicas that had not yet
	// executed diverge from those that had. Wait for certificate-grade
	// evidence instead — after a view installs, every honest peer
	// re-broadcasts a fresh same-view prepare (acceptPrePrepare on the
	// re-proposals), so the provable quorum always re-forms.
	cert := r.preparedCert(seq, in)
	if cert == nil || len(cert.Prepares) < r.membership.Quorum()-1 {
		return
	}
	in.prepared = true
	in.cert = cert
	in.commits[r.cfg.ID] = in.digest
	r.commitMark = max(r.commitMark, seq)
	cm := &Message{
		Type:        MsgCommit,
		View:        r.view,
		SeqNo:       seq,
		Epoch:       r.membership.Epoch,
		BatchDigest: in.digest,
	}
	r.broadcast(cm)
	r.checkCommitted(seq)
}

// onCommit counts commit votes, buffering early votes with their digest
// exactly like onPrepare. Votes are tallied even mid-view-change: commit
// semantics here are digest-based (a committed digest is stable across
// views, so a matching vote never goes stale), and a replica that
// volunteered for a view change is exactly the one that needs racing
// catch-up votes to land — installNewView keeps same-digest tallies, so
// nothing collected here is thrown away.
func (r *Replica) onCommit(msg *Message) {
	if r.joining || !r.fromMember(msg) {
		return
	}
	if msg.Epoch != r.membership.Epoch || !r.inWindow(msg.SeqNo) {
		return
	}
	in := r.inst(msg.SeqNo) //lazlint:allow auth-before-use(commit votes are deliberately unsigned — the HMAC transport envelope authenticates the sender, fromMember bounds who may vote, and tallies are digest-keyed so a forged digest is inert)
	// Record the vote even when it conflicts with our current proposal:
	// tallying is digest-filtered (countVotes), so a mismatched vote is
	// inert until proven right — and if a catch-up certificate later
	// shows OUR digest was the stale one (onCatchUp adopts it), the
	// buffered votes complete the commit quorum immediately instead of
	// waiting for peers to re-answer a retransmission round.
	in.commits[msg.From] = msg.BatchDigest
	r.checkCommitted(msg.SeqNo)
}

// checkCommitted executes once 2f+1 commits arrive for a prepared batch.
func (r *Replica) checkCommitted(seq uint64) {
	in := r.inst(seq)
	if in.committed || !in.prepared {
		return
	}
	if countVotes(in.commits, in.digest) < r.membership.Quorum() {
		return
	}
	in.committed = true
	r.executeReady()
}

// executeReady applies committed batches in sequence order.
func (r *Replica) executeReady() {
	for {
		next := r.lastExec + 1
		in, ok := r.log[next]
		if !ok || !in.committed || in.executed {
			break
		}
		in.executed = true
		r.lastExec = next
		r.recordExec(next, in.digest)
		for i := range in.batch.Requests {
			r.executeRequest(&in.batch.Requests[i])
			// Executed requests leave every replica's pending queue
			// (non-primaries hold them only to watch for progress).
			delete(r.pendingSet, in.batch.Requests[i].Digest())
		}
		r.compactPending()
		r.updateStats(func(s *ReplicaStats) { s.Executed++ })
		r.ins.executedBatches.Inc()
		if !in.startedAt.IsZero() {
			r.ins.commitLatencyUS.Observe(time.Since(in.startedAt).Microseconds()) //lazlint:allow wallclock(commit-latency metric only; never hashed, voted on, executed or fed to a timer)
		}
		if r.ckptDue || r.lastExec%r.cfg.CheckpointInterval == 0 {
			// One canonical checkpoint per seq, taken only after the whole
			// batch executed (ckptDue marks a reconfiguration in the batch).
			r.ckptDue = false
			r.takeCheckpoint(r.lastExec)
		}
	}
	// Reads parked until execution got this far can be answered.
	r.serveReads()
	// Progress was made: disarm, and if work remains start a fresh
	// timeout (PBFT resets the progress timer whenever execution
	// advances; without the reset, sustained load turns the timer into
	// a spurious view-change generator).
	r.disarmProgressTimer()
	if len(r.pending) > 0 {
		r.armProgressTimer()
	}
	// Execution freed pipeline slots (and possibly window room): refill.
	r.maybePropose()
}

// requeueInstance returns an abandoned (unexecuted) instance's requests
// to the pending queue so a later proposal can re-order them. Requests a
// client already got executed elsewhere are skipped, as are ones still
// queued.
func (r *Replica) requeueInstance(in *instance) {
	if in.batch == nil || in.executed {
		return
	}
	for i := range in.batch.Requests {
		req := &in.batch.Requests[i]
		if rec, ok := r.clients[req.Client]; ok && req.Seq <= rec.lastSeq {
			continue
		}
		if d := req.Digest(); !r.pendingSet[d] {
			r.pendingSet[d] = true
			r.pending = append(r.pending, *req)
		}
	}
}

// compactPending drops pending entries that executed (their digest left
// pendingSet) or were superseded by a later request from the same client.
func (r *Replica) compactPending() {
	kept := r.pending[:0]
	// Iterate by index: Digest() caches into the element, and a value
	// copy would throw the cache away every pass.
	for i := range r.pending {
		req := &r.pending[i]
		if !r.pendingSet[req.Digest()] {
			continue
		}
		if rec, ok := r.clients[req.Client]; ok && req.Seq <= rec.lastSeq {
			delete(r.pendingSet, req.Digest())
			continue
		}
		kept = append(kept, *req)
	}
	r.pending = kept
}

// executeRequest applies one operation and replies to its client. A
// request the replica already executed (retransmitted by the client and
// re-ordered, or re-proposed across a view change) is not applied twice.
func (r *Replica) executeRequest(req *Request) {
	if rec, ok := r.clients[req.Client]; ok && req.Seq <= rec.lastSeq {
		if rec.lastReply != nil && req.Seq == rec.lastSeq {
			r.send(req.Client, rec.lastReply)
		}
		return
	}
	var result []byte
	op, isReconfig := decodeReconfigOp(req.Op)
	if isReconfig {
		result = r.applyReconfig(op)
	} else {
		result = r.app.Execute(req.Op)
	}
	reply := &Message{
		Type:        MsgReply,
		View:        r.view,
		Epoch:       r.membership.Epoch,
		ReplySeq:    req.Seq,
		ReplyClient: req.Client,
		Result:      result,
	}
	// Seal the reply so the client can tell this member's genuine vote
	// from a vote forged in its name. From must be set first: the MAC
	// covers it, and send() would otherwise stamp it after sealing.
	reply.From = r.cfg.ID
	if key, err := r.replyKey(req.Client, isReconfig); err == nil {
		key.Seal(reply)
	} else {
		r.cfg.Logf("replica %d: reply to %d goes out unsealed: %v", r.cfg.ID, req.Client, err)
	}
	rec, ok := r.clients[req.Client]
	if !ok {
		rec = &clientRecord{}
		r.clients[req.Client] = rec
	}
	rec.lastSeq = req.Seq
	rec.lastReply = reply
	r.send(req.Client, reply)
}

// applyReconfig executes an ordered membership change. The reply is an
// encoded ReconfigResult — a typed outcome, not a log string — so the
// control plane can classify it without scraping text.
func (r *Replica) applyReconfig(op ReconfigOp) []byte {
	var (
		next *Membership
		err  error
	)
	if op.Add {
		if len(op.PubKey) != ed25519.PublicKeySize {
			return ReconfigResult{Status: ReconfigInvalid, Detail: "bad public key"}.Encode()
		}
		next, err = r.membership.WithAdded(op.Replica, ed25519.PublicKey(op.PubKey))
	} else {
		next, err = r.membership.WithRemoved(op.Replica)
	}
	if err != nil {
		return ReconfigResult{Status: classifyReconfigErr(err), Detail: err.Error()}.Encode()
	}
	r.membership = next
	// Epoch fence: every consensus instance must be decided entirely
	// within one membership epoch. An instance pipelined past this
	// reconfiguration was proposed — and gathered its prepared
	// certificate — under the OLD epoch's membership, whose quorum
	// thresholds and view→primary mapping a view change in the new epoch
	// cannot validate against: the certificate would be discarded, a null
	// batch re-proposed over a sequence number some replica already
	// executed, and the group would split. So drop all in-flight work
	// above the reconfiguration point and requeue its requests; the
	// pipeline re-proposes them under the new epoch. No execution is
	// lost: executing any dropped instance would have required executing
	// this reconfiguration first, which triggers this same fence on every
	// honest replica.
	for seq, in := range r.log {
		if seq <= r.lastExec {
			continue
		}
		r.requeueInstance(in)
		delete(r.log, seq)
	}
	// Rewind the proposal counter past the dropped instances so the
	// primary reuses their sequence numbers; leaving a gap would stall
	// execution forever at the first unproposed number. The commits this
	// replica sent for them belong to the old epoch, and so does its
	// commit mark.
	r.seq = r.lastExec
	r.commitMark = r.lastExec
	// A view change volunteered under the old epoch can never complete —
	// peers in the new epoch discard old-epoch VIEW-CHANGE messages — yet
	// inViewChange would keep this replica from voting, which the new
	// epoch's tighter quorums cannot afford. Executing the
	// reconfiguration IS progress, so the suspicion is withdrawn; if the
	// primary truly is faulty the progress timer re-raises it under the
	// new epoch.
	r.inViewChange = false
	r.updateStats(func(s *ReplicaStats) { s.Reconfigs++ })
	r.ins.reconfigs.Inc()
	r.cfg.Logf("replica %d: epoch %d membership %v", r.cfg.ID, next.Epoch, next.Replicas)

	// Checkpoint at this seq so peers that missed this instance can fetch
	// a state that already includes the new membership: the joiner needs
	// it after an ADD, and after a REMOVE it is the fastest signal to any
	// replica still at the old epoch (the vote carries the new epoch,
	// which triggers its state transfer). Deferred to executeReady rather
	// than taken here: this code runs mid-request, before executeRequest
	// records the reconfig's own reply, so a snapshot taken now and the
	// interval checkpoint taken after execution would broadcast two
	// DIFFERENT digests at the same seq — honest votes split between
	// them, and with an equivocating member in the group neither digest
	// reaches quorum, jamming the window (observed under the corrupt-state
	// chaos attack).
	r.ckptDue = true
	if !op.Add && op.Replica == r.cfg.ID {
		// This replica was removed: it stops participating (the control
		// plane will power it off). Entering joining mode silences it.
		r.joining = true
	}
	return ReconfigResult{Status: ReconfigApplied, Epoch: next.Epoch}.Encode()
}
