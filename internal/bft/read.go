package bft

// Reads off the ordering path. A REQUEST without the Order bit whose
// operation the application's Querier calls read-only is answered by each
// replica on its own: nothing is ordered, queued, recorded in the client
// table or the state digest, and no progress timer is armed. A replica
// answers only while it is a member of its current epoch and not joining,
// only a request whose MAC it verifies (no signature is checked on this
// path), and only once it has executed through commitMark, the highest
// sequence number it sent a COMMIT for in that epoch, as of the request's
// arrival. The reply, a MsgReadReply, is sealed and stamped with the
// replica's epoch.
//
// The client accepts a read only from Quorum() matching (result, epoch)
// replies at the highest epoch f+1 members have shown it, and otherwise
// retransmits the request with the Order bit (client.go). A write the
// client saw complete was committed: a quorum sent COMMIT for it. Any read
// quorum shares f+1 replicas with that commit quorum, so an honest one
// among them waited until it had executed the write, and the quorum's
// matching answer is its answer. DESIGN.md §10 "Reads" gives the whole
// argument.

// parkedRead is a read waiting until its replica has executed through
// mark, the replica's commitMark when the read arrived.
type parkedRead struct {
	req  *Request
	key  *replyKey
	mark uint64
}

// fastRead reports whether a REQUEST asks for an answer this replica's
// application can give without ordering it.
func (r *Replica) fastRead(msg *Message) bool {
	if r.querier == nil || msg.Request == nil || msg.Request.Order {
		return false
	}
	if _, isReconfig := decodeReconfigOp(msg.Request.Op); isReconfig {
		return false
	}
	return r.querier.ReadOnly(msg.Request.Op)
}

// canRead reports whether this replica may answer reads: it is a member of
// its current epoch and not joining.
func (r *Replica) canRead() bool {
	return !r.joining && r.membership.Contains(r.cfg.ID)
}

// onRead answers a read-only REQUEST, or parks it until this replica has
// executed everything it voted to commit. A client has at most one read
// parked: a newer one replaces it. A read that cannot be answered here is
// dropped, never ordered — other replicas may be answering it, and an
// unordered request in one pending queue would arm a progress timer that
// nothing disarms. The client's fallback orders it.
func (r *Replica) onRead(msg *Message) {
	if !r.canRead() || !r.requestMACOK(msg) {
		return
	}
	req := msg.Request
	key, err := r.replyKey(req.Client, false) //lazlint:allow epoch-guard(a read carries no epoch: the replica answers in its own, stamps the reply with it, and the client matches replies on that stamp)
	if err != nil {
		return
	}
	r.ins.reads.Inc()
	if r.lastExec >= r.commitMark {
		r.answerRead(req, key)
		return
	}
	read := parkedRead{req: req, key: key, mark: r.commitMark}
	for i := range r.reads {
		if r.reads[i].req.Client == req.Client {
			if req.Seq > r.reads[i].req.Seq {
				r.reads[i] = read
			}
			return
		}
	}
	// Only a registered client's MAC verifies, so one read per client
	// keeps the table within the client key set.
	if len(r.reads) >= len(r.cfg.ClientKeys) {
		return
	}
	r.reads = append(r.reads, read)
}

// serveReads answers the parked reads whose mark execution has reached, in
// arrival order, and drops them all when this replica may no longer read.
// It runs wherever lastExec advances: execution and state transfer.
func (r *Replica) serveReads() {
	kept := r.reads[:0]
	for _, p := range r.reads {
		switch {
		case !r.canRead():
		case r.lastExec >= p.mark:
			r.answerRead(p.req, p.key)
		default:
			kept = append(kept, p)
		}
	}
	clear(r.reads[len(kept):])
	r.reads = kept
}

// answerRead sends the client the application's answer on the current
// state, sealed and stamped with this replica's epoch.
func (r *Replica) answerRead(req *Request, key *replyKey) {
	reply := &Message{
		Type:        MsgReadReply,
		From:        r.cfg.ID,
		View:        r.view,
		Epoch:       r.membership.Epoch,
		ReplySeq:    req.Seq,
		ReplyClient: req.Client,
		Result:      r.querier.Query(req.Op),
	}
	key.Seal(reply)
	r.send(req.Client, reply)
}
