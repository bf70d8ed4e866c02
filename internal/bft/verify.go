package bft

// This file implements request authentication and the asynchronous
// verification path. A request authenticates at a replica on one of two
// grades: MAC'd, when the HMAC its client sealed under the key the two
// share (replykey.go) verifies, or signed, when its client's ed25519
// signature verifies. A backup accepts a client's REQUEST on its MAC,
// inline on the loop, and a request inside a pre-prepare on either grade;
// the primary proposes only requests whose own signature it verified, so a
// correct primary never proposes what a correct backup must reject.
// DESIGN.md §10 says why that is enough.
//
// A pre-prepare carries no signature of its own: the primary's
// authenticated channel vouches for it, and what a view change carries is
// quorum−1 signed prepares (validPreparedProof). At n = 4 a batch of b
// requests costs 3 signs and 5 verifications — the primary verifies the 2
// prepares its certificate needs, each backup 1 — so an ordered operation
// costs 1 + 5/b, its request's signature being checked once, at the
// primary. DESIGN.md §8 tabulates the bill.
//
// Signatures are verified by a bounded worker pool off the event loop, and
// a digest-keyed verdict cache amortizes authentication across the places
// the same request is seen (client submission, the batched pre-prepare
// carrying it).
//
// Protocol state stays single-threaded: workers only compute signature
// verdicts on messages the loop has handed off (channel handoff orders
// the memory accesses), attach the verdicts to the message, and re-inject
// it into the inbox. The loop alone reads and writes the verdict cache.
//
// Deadlock freedom: the loop never blocks feeding the pool (enqueue is
// non-blocking, falling back to inline verification when the pool is
// saturated), and workers block only on the inbox, which the loop always
// drains.
//
// One rule decides what is verified: a signature is verified at most once
// per replica, and only when its verdict can change what the replica does.
// The verdict cache keeps requests to one verification, save a pre-prepare
// that arrives while a copy of its request is still at the pool, which
// checks its own copy (requestLanded); the prepare gate and the
// late-prepare rule (dispatchPrepare) skip the votes whose verdict cannot
// be used.

import (
	"bytes"
	"crypto/sha256"

	"lazarus/internal/transport"
)

// verdict records how one request a message carries authenticated.
type verdict uint8

const (
	unauthenticated verdict = iota // not resolved yet, or its signature failed
	fromCache                      // the verdict cache vouched for it
	byMAC                          // this replica's MAC on it verified
	bySignature                    // its client signature verified
)

// verdictCache remembers the requests that authenticated, by digest,
// bounded by a two-generation rotation: inserts go to the current
// generation, lookups consult both, and when the current generation fills
// it becomes the previous one (dropping the old previous wholesale).
// Eviction therefore never depends on map iteration order. An entry holds
// its grade: the signature that verified, or nil for a request only MAC'd
// to this replica. A digest covers the request minus its signature, so
// the signature is what says that this copy, and not merely some copy,
// was signed. Only positive verdicts are cached: caching a failure would
// let an attacker poison a digest by sending a garbage-signature copy
// ahead of the genuine one.
type verdictCache struct {
	cur, prev map[Digest][]byte
	cap       int
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cur: make(map[Digest][]byte, capacity),
		cap: capacity,
	}
}

func (c *verdictCache) get(d Digest) ([]byte, bool) {
	if sig, ok := c.cur[d]; ok {
		return sig, true
	}
	sig, ok := c.prev[d]
	return sig, ok
}

// has reports whether the request with digest d authenticated, on either
// grade.
func (c *verdictCache) has(d Digest) bool {
	_, ok := c.get(d)
	return ok
}

// signed reports whether req's own signature verified.
func (c *verdictCache) signed(req *Request) bool {
	sig, ok := c.get(req.Digest())
	return ok && sig != nil && bytes.Equal(sig, req.Sig)
}

// add records that the request with digest d authenticated: by the
// signature sig, or by its MAC when sig is nil. A MAC adds nothing to a
// known verdict; a signature replaces it, so the copy verified last is the
// one signed.
func (c *verdictCache) add(d Digest, sig []byte) {
	if sig == nil && c.has(d) {
		return
	}
	// Rotate the generations before inserting so the size bound
	// dominates every insert: cur never exceeds cap entries.
	if _, ok := c.cur[d]; !ok && len(c.cur) >= c.cap {
		c.prev = c.cur
		c.cur = make(map[Digest][]byte, c.cap)
	}
	c.cur[d] = sig
}

// numAuthReqs returns how many client requests the message carries that
// need authentication before its handler may run.
func numAuthReqs(msg *Message) int {
	switch msg.Type {
	case MsgRequest:
		if msg.Request != nil {
			return 1
		}
	case MsgPrePrepare:
		if msg.Batch != nil {
			return len(msg.Batch.Requests)
		}
	}
	return 0
}

// authReq returns request i of the message, aliasing the message's own
// storage so digest caching sticks.
func authReq(msg *Message, i int) *Request {
	if msg.Type == MsgRequest {
		return msg.Request
	}
	return &msg.Batch.Requests[i]
}

// ensureAuth resolves every request verdict a message needs before its
// handler runs. It returns true when the message is ready to dispatch;
// false means it was handed to the verify pool and will re-enter the
// inbox with verdicts attached. Runs on the event loop.
func (r *Replica) ensureAuth(msg *Message) bool {
	if msg.authDone {
		// The pool (or a previous pass) resolved this message; fold the
		// positive verdicts into the cache so future sightings of the
		// same requests skip verification entirely.
		r.adoptVerdicts(msg)
		return true
	}
	r.resolveWithoutSignatures(msg)
	if msg.authDone {
		return true
	}
	// Slow path: hand the whole message to the pool. If the pool is
	// saturated (or not running), verify inline on the loop — correct,
	// just slower, and it bounds memory instead of queueing unboundedly.
	if r.verifyJobs != nil {
		// The worker owns the message once it is sent: everything the loop
		// records about it is settled before the send.
		isReq := msg.Type == MsgRequest
		var d Digest
		if isReq {
			d = msg.Request.Digest()
		}
		msg.pooled = isReq
		select {
		case r.verifyJobs <- msg:
			r.ins.verifyOffloaded.Inc()
			if isReq {
				r.pooledReqs[d]++
			}
			return false
		default:
			msg.pooled = false
		}
	}
	r.authMessage(msg)
	r.adoptVerdicts(msg)
	return true
}

// resolveWithoutSignatures resolves, on the loop, every request of the
// message the verdict cache or its MAC vouches for, so that authMessage
// verifies only the others: a batch that is partly cached pays for no
// request twice. What vouches depends on where the request is: a REQUEST
// at the primary needs its own signature, one at a backup is accepted on
// this replica's MAC, and a request in a pre-prepare on either grade. It
// marks the message done when nothing is left to verify.
func (r *Replica) resolveWithoutSignatures(msg *Message) {
	n := numAuthReqs(msg)
	var auth []verdict
	resolved := 0
	for i := 0; i < n; i++ {
		req := authReq(msg, i)
		v := unauthenticated
		switch {
		case msg.Type == MsgRequest && r.primary():
			if r.verified.signed(req) {
				v = fromCache
			}
		case r.verified.has(req.Digest()):
			v = fromCache
		case msg.Type == MsgRequest && r.requestMACOK(msg):
			v = byMAC
		}
		if v == unauthenticated {
			continue
		}
		if auth == nil {
			auth = make([]verdict, n)
		}
		auth[i] = v
		resolved++
	}
	msg.auth = auth
	for _, v := range auth {
		switch v {
		case fromCache:
			r.ins.verifyCacheHits.Inc()
		case byMAC:
			r.ins.requestMACs.Inc()
		}
	}
	if resolved == n && (msg.repSigKey == nil || msg.repSigDone) {
		msg.authDone = true
		r.adoptVerdicts(msg)
	}
}

// requestMACOK reports whether a REQUEST carries this replica's MAC from
// the client it names, under the key that seals the replies to it.
func (r *Replica) requestMACOK(msg *Message) bool {
	if len(msg.Sig) != sha256.Size {
		return false // a forwarded copy, or a client that did not seal
	}
	_, isReconfig := decodeReconfigOp(msg.Request.Op)
	key, err := r.replyKey(msg.Request.Client, isReconfig)
	return err == nil && key.Verify(msg)
}

// requestLanded runs when a REQUEST the loop handed to the verify pool is
// back with its verdict. A negative one drops the pending copy with the
// same signature (upgradeUnsigned sent it). A pre-prepare that carried the
// request meanwhile verified its own copy, so a forged copy at the pool
// cannot fail a batch that carries the genuine one.
func (r *Replica) requestLanded(msg *Message) {
	d := msg.Request.Digest()
	if r.pooledReqs[d] <= 1 {
		delete(r.pooledReqs, d)
	} else {
		r.pooledReqs[d]--
	}
	if msg.auth[0] == unauthenticated {
		r.dropPending(msg.Request)
	}
}

// authMessage computes the signature verdicts for every request the
// message carries and attaches them. Safe off the event loop: it touches
// only the message itself (owned by the caller during verification) and
// immutable replica configuration (client and controller keys).
func (r *Replica) authMessage(msg *Message) {
	n := numAuthReqs(msg)
	// The loop resolved what it could without a signature
	// (resolveWithoutSignatures); only the rest are verified.
	if msg.auth == nil {
		msg.auth = make([]verdict, n)
	}
	for i := 0; i < n; i++ {
		if msg.auth[i] != unauthenticated {
			continue
		}
		req := authReq(msg, i)
		req.Digest() // warm the digest cache while off the hot loop
		if r.verifyRequest(req) {
			msg.auth[i] = bySignature
		}
		r.ins.verifyOps.Inc()
	}
	// Replica signature (prepares): the loop captured the claimed
	// sender's key in repSigKey before offloading, so this touches no
	// loop-owned state.
	if msg.repSigKey != nil && !msg.repSigDone {
		msg.repSigOK = msg.VerifySig(msg.repSigKey)
		msg.repSigDone = true
		r.ins.verifyOps.Inc()
	}
	msg.authDone = true
}

// replicaSigOK reports whether the message's replica signature verifies
// against the current membership key of its claimed sender. The dispatch
// path resolved the verdict through the verify pool; direct calls
// (white-box tests, locally re-injected messages) verify inline.
func (r *Replica) replicaSigOK(msg *Message) bool {
	if !msg.repSigDone {
		msg.repSigDone = true
		msg.repSigOK = r.verifySigned(msg)
	}
	return msg.repSigOK
}

// adoptVerdicts folds the verdicts a message's requests earned here — a
// MAC or a signature — into the loop-owned cache. Runs on the event loop
// only.
func (r *Replica) adoptVerdicts(msg *Message) {
	for i, v := range msg.auth {
		switch req := authReq(msg, i); v {
		case byMAC:
			r.verified.add(req.Digest(), nil)
		case bySignature:
			r.verified.add(req.Digest(), req.Sig)
		}
	}
}

// requestOK reports whether request i of the message authenticated. The
// dispatch path resolved verdicts up front (ensureAuth); a direct call — a
// white-box test, say — resolves them here, inline.
func (r *Replica) requestOK(msg *Message, i int) bool {
	if !msg.authDone {
		r.resolveWithoutSignatures(msg)
		if !msg.authDone {
			r.authMessage(msg)
			r.adoptVerdicts(msg)
		}
	}
	return i < len(msg.auth) && msg.auth[i] != unauthenticated
}

// upgradeUnsigned hands a pending request whose own signature this
// primary has not verified to the verify pool, unless a copy of it is
// there already. Its verdict re-enters through onRequest, which leaves it
// signed and proposable or drops it. A saturated pool is tried again at
// the next proposal: the check never runs inline, because proposing is
// reachable from handlers that must not verify (onCommit).
func (r *Replica) upgradeUnsigned(req *Request) {
	d := req.Digest()
	if r.verifyJobs == nil || r.pooledReqs[d] > 0 {
		return
	}
	cp := *req
	msg := &Message{Type: MsgRequest, From: r.cfg.ID, Request: &cp, pooled: true}
	select {
	case r.verifyJobs <- msg:
		r.ins.verifyOffloaded.Inc()
		r.pooledReqs[d]++
	default:
	}
}

// dropPending removes the pending copy of req if it carries req's
// signature: that signature just failed, so no correct primary proposes
// the copy. A copy with another signature stays — a forged copy must not
// evict the genuine one.
func (r *Replica) dropPending(req *Request) {
	d := req.Digest()
	if !r.pendingSet[d] {
		return
	}
	for i := range r.pending {
		if p := &r.pending[i]; p.Digest() == d && bytes.Equal(p.Sig, req.Sig) {
			delete(r.pendingSet, d)
			r.compactPending()
			return
		}
	}
}

// dropUnsigned verifies the signature of every pending request this
// replica accepted without one — on its MAC, or from a certified batch a
// view change abandoned — and drops those that fail. A correct primary
// never proposes them, so waiting for them must not cost it its view. It
// reports whether it dropped any. Each signature verified here is cached,
// so a request pays for it once.
func (r *Replica) dropUnsigned() bool {
	dropped := false
	for i := range r.pending {
		req := &r.pending[i]
		if r.verified.signed(req) {
			continue
		}
		r.ins.verifyOps.Inc()
		if r.verifyRequest(req) {
			r.verified.add(req.Digest(), req.Sig)
			continue
		}
		delete(r.pendingSet, req.Digest())
		dropped = true
	}
	if dropped {
		r.compactPending()
	}
	return dropped
}

// verifyWorker is one verification worker: it takes messages the loop
// offloaded, computes their verdicts, and re-injects them into the inbox.
func (r *Replica) verifyWorker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			return
		case msg := <-r.verifyJobs:
			r.authMessage(msg)
			select {
			case r.inbox <- msg:
			case <-r.ctx.Done():
				return
			}
		}
	}
}

// prepareGate is an instance's record of the prepares it sent to be
// verified and of those it held back, for one (epoch, view). A prepared
// certificate needs quorum−1 signed prepares from non-primary members, so
// at n = 4 the primary needs 2 of the 3 it receives and a backup 1 of the
// 2 besides its own: verifying the rest changes nothing. The gate hands a
// prepare to the verify pool only while the verified and in-flight supply
// is short of that need, and parks the others unverified, one per sender.
// A verification that fails, or that comes back for a digest the
// pre-prepare then rules out, lowers the supply and the next parked
// prepare is verified in its place (refillPrepares): a bad vote costs one
// more verification, never a view change. Parked prepares are never
// counted. Only onPrepare, after the signature verified, puts a prepare
// into the tally or a certificate.
type prepareGate struct {
	epoch, view uint64
	flying      int
	parked      map[transport.NodeID]*Message
}

// gateOf returns the instance's gate for the current epoch and view.
// Whatever the gate held for another is stale and goes: counts from an
// old view say nothing about this one's certificate, and a sender's
// prepare in a new view is a new vote, not a duplicate of its old one.
func (r *Replica) gateOf(in *instance) *prepareGate {
	g := &in.gate
	if g.epoch != r.membership.Epoch || g.view != r.view {
		*g = prepareGate{epoch: r.membership.Epoch, view: r.view}
	}
	return g
}

// notePrepare records that from's prepare for view reached the instance —
// whether it was then verified, parked or dropped — and reports whether
// one from the same sender and view had reached it before.
func (in *instance) notePrepare(from transport.NodeID, view uint64) (repeat bool) {
	last, seen := in.prepareViews[from]
	if in.prepareViews == nil {
		in.prepareViews = make(map[transport.NodeID]uint64)
	}
	in.prepareViews[from] = view
	return seen && last == view
}

// prepareNeed is how many prepares from other non-primary members this
// replica's certificate needs: quorum−1, less its own at a backup.
func (r *Replica) prepareNeed() int {
	need := r.membership.Quorum() - 1
	if !r.primary() {
		need--
	}
	return need
}

// prepareSupply counts the prepares that will count toward the instance's
// certificate once they land or already do: verified ones from other
// non-primary members in this view (for the instance's digest, once the
// pre-prepare fixed it) plus those at the verify pool.
func (r *Replica) prepareSupply(in *instance) int {
	n := r.gateOf(in).flying
	primary := r.membership.Primary(r.view)
	for from, pm := range in.prepareMsgs {
		if from == r.cfg.ID || from == primary || pm.View != r.view {
			continue
		}
		if in.prePrepare != nil && pm.BatchDigest != in.digest {
			continue
		}
		n++
	}
	return n
}

// dispatchPrepare routes an inbound prepare. A fresh one is verified,
// parked or dropped by what its verdict could change; one back from the
// verify pool lands in onPrepare. Either way the instance's supply may
// have fallen short since, and parked prepares refill it.
func (r *Replica) dispatchPrepare(msg *Message) {
	if msg.authDone {
		if in := r.log[msg.SeqNo]; msg.voteFlying && in != nil {
			if g := &in.gate; g.epoch == msg.Epoch && g.view == msg.View && g.flying > 0 {
				g.flying--
			}
		}
		r.onPrepare(msg)
		r.refillPrepares(msg.SeqNo)
		return
	}
	// Mirror onPrepare's structural checks: a prepare it would discard
	// after verification is not worth verifying.
	if r.joining || !r.fromMember(msg) || msg.Epoch != r.membership.Epoch || !r.inWindow(msg.SeqNo) {
		r.ins.votesUnverified.Inc()
		return
	}
	msg.repSigKey = r.membership.Keys[msg.From]
	in := r.log[msg.SeqNo]
	repeat := in != nil && in.notePrepare(msg.From, msg.View)
	if in != nil && in.executed {
		// The catch-up responder answers only a sender that is stuck. One
		// whose commit for the executed digest is here is not. Nor, yet,
		// is one casting its first prepare in this replica's view: it is
		// merely late, and its commit is on the way. If it is stuck after
		// all, its progress timer re-sends the prepare, and that repeat —
		// like a prepare from another view — is verified and answered.
		if d, ok := in.commits[msg.From]; (ok && d == in.digest) || (msg.View == r.view && !repeat) {
			r.ins.votesUnverified.Inc()
			return
		}
		r.verifyPrepare(nil, msg)
		return
	}
	// Only a non-primary member's vote in this view can enter the
	// certificate (the primary's vote is its pre-prepare, our own is
	// recorded when cast), and a prepared instance needs no more.
	if r.inViewChange || msg.View != r.view || msg.From == r.cfg.ID ||
		msg.From == r.membership.Primary(r.view) || (in != nil && in.prepared) {
		r.ins.votesUnverified.Inc()
		return
	}
	if in == nil {
		in = r.inst(msg.SeqNo)
		in.notePrepare(msg.From, msg.View)
	}
	if r.prepareSupply(in) >= r.prepareNeed() {
		g := r.gateOf(in)
		if g.parked == nil {
			g.parked = make(map[transport.NodeID]*Message)
		}
		g.parked[msg.From] = msg
		r.ins.votesUnverified.Inc()
		return
	}
	r.verifyPrepare(in, msg)
	r.refillPrepares(msg.SeqNo)
}

// verifyPrepare verifies a prepare, at the pool when it has room, and
// lands it. A nil instance means the verdict is for the catch-up
// responder, not for a certificate, and the gate does not count it.
func (r *Replica) verifyPrepare(in *instance, msg *Message) {
	msg.voteFlying = in != nil
	if r.ensureAuth(msg) {
		r.onPrepare(msg)
		return
	}
	// Offloaded: it re-enters the inbox with the verdict.
	if in != nil {
		r.gateOf(in).flying++
	}
}

// refillPrepares verifies parked prepares, lowest sender first, while the
// instance's supply is short of its need. Parked prepares of an instance
// that prepared or executed can no longer matter and are let go.
func (r *Replica) refillPrepares(seq uint64) {
	for {
		in := r.log[seq]
		if in == nil {
			return
		}
		g := r.gateOf(in)
		if len(g.parked) == 0 || r.inViewChange {
			return
		}
		if in.prepared || in.executed {
			g.parked = nil
			return
		}
		if r.prepareSupply(in) >= r.prepareNeed() {
			return
		}
		var next *Message
		for from, pm := range g.parked {
			if next == nil || from < next.From {
				next = pm
			}
		}
		delete(g.parked, next.From)
		r.ins.voteRefills.Inc()
		r.verifyPrepare(in, next)
	}
}

// prePrepareAdmissible runs the cheap structural checks on a pre-prepare
// before any work is spent on its requests: only the current primary's
// proposal for the current view, epoch and window is worth
// authenticating. onPrePrepare applies it again afterwards — the view may
// have changed while the pool held the message.
func (r *Replica) prePrepareAdmissible(msg *Message) bool {
	if r.joining || r.inViewChange || !r.fromMember(msg) {
		return false
	}
	if msg.View != r.view || msg.From != r.membership.Primary(r.view) {
		return false
	}
	if msg.Epoch != r.membership.Epoch || !r.inWindow(msg.SeqNo) {
		return false
	}
	return true
}
