package main

import (
	"sort"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/transport"
)

// The latency budget of one request is seven rows between eight
// timestamps, all taken by the benchmark's own taps:
//
//	t0 Invoke called
//	t1 first REQUEST Send by the client
//	t2 the primary's Recv of that REQUEST
//	t3 the primary's Send of the PRE-PREPARE carrying it
//	t4 first COMMIT Send for that view and sequence number by d, the replica whose
//	   reply completed the client's f+1
//	t5 d's REPLY Send
//	t6 the client's Recv of that reply
//	t7 Invoke returns
//
// Row i is t(i+1)-t(i), so the rows of a request sum to its Invoke
// latency exactly.
const budgetRows = 7

var budgetRowNames = [budgetRows]string{
	"client.sign_encode",
	"transport.req_transit",
	"bft.order_wait",
	"bft.prepare_phase",
	"bft.commit_exec",
	"transport.reply_transit",
	"client.verify_tally",
}

// span is the budget of one request.
type span struct {
	inv  *invocation
	rows [budgetRows]time.Duration
}

type reqKey struct {
	client transport.NodeID
	seq    uint64
}

type nodeReqKey struct {
	node transport.NodeID
	reqKey
}

type nodeSeqKey struct {
	node        transport.NodeID
	view, seqNo uint64
}

// proposal is the first PRE-PREPARE that carried a request.
type proposal struct {
	at          time.Time
	primary     transport.NodeID
	view, seqNo uint64
}

type replyArrival struct {
	at   time.Time
	from transport.NodeID
}

// frameID names a frame independently of its bytes, so that a Send can be
// paired with the Recv of the same frame at the other end.
type frameID struct {
	from, to transport.NodeID
	typ      bft.MsgType
	a, b     uint64
}

// trace is everything read off the taps after a run.
type trace struct {
	spans []span
	// retransmitted counts requests the client sent more than once; they
	// have no budget (their first copy was lost or slow, not measured).
	retransmitted int
	// unmatched counts requests with a timestamp missing.
	unmatched int

	// transits are Send call -> Recv return, over every paired frame.
	transits  []time.Duration
	sendCalls []time.Duration
	// samples holds up to sampleCap payloads per message type. encoded,
	// received and bytes count, inside the window only, the distinct
	// encodings sent, the frames received and their bytes, per type.
	samples  map[bft.MsgType][][]byte
	encoded  map[bft.MsgType]int
	received map[bft.MsgType]int
	bytes    map[bft.MsgType]int64
}

const sampleCap = 256

// decoder decodes each distinct payload once: a broadcast hands the same
// slice to every Send, so the first byte's address identifies it.
type decoder struct {
	seen map[*byte]*bft.Message
}

func (d *decoder) decode(payload []byte) (*bft.Message, bool) {
	if len(payload) == 0 {
		return nil, false
	}
	if m, ok := d.seen[&payload[0]]; ok {
		return m, false
	}
	m, err := bft.Decode(payload)
	if err != nil {
		m = nil
	}
	d.seen[&payload[0]] = m
	return m, true
}

func idOf(from, to transport.NodeID, m *bft.Message) frameID {
	id := frameID{from: from, to: to, typ: m.Type}
	switch m.Type {
	case bft.MsgRequest:
		if m.Request != nil {
			id.a, id.b = uint64(m.Request.Client), m.Request.Seq
		}
	case bft.MsgReply:
		id.a, id.b = uint64(m.ReplyClient), m.ReplySeq
	default:
		id.a, id.b = m.View, m.SeqNo
	}
	return id
}

// analyse reads the taps: it pairs frames, finds the eight timestamps of
// every invocation in the window, and samples payloads for unit costs.
func (t *tracer) analyse(w *window) *trace {
	invs := w.invs
	inWindow := func(at time.Time) bool { return !at.Before(w.start) && at.Before(w.end) }
	tr := &trace{
		samples:  make(map[bft.MsgType][][]byte),
		encoded:  make(map[bft.MsgType]int),
		received: make(map[bft.MsgType]int),
		bytes:    make(map[bft.MsgType]int64),
	}
	dec := &decoder{seen: make(map[*byte]*bft.Message)}

	reqSent := make(map[reqKey]time.Time)
	resent := make(map[reqKey]int)
	reqTargets := make(map[reqKey]map[transport.NodeID]bool)
	reqRecv := make(map[nodeReqKey]time.Time)
	proposed := make(map[reqKey]proposal)
	commitSent := make(map[nodeSeqKey]time.Time)
	replySent := make(map[nodeReqKey]time.Time)
	replies := make(map[reqKey][]replyArrival)
	sentAt := make(map[frameID][]time.Time)

	t.mu.Lock()
	eps := make([]*tapEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	sort.Slice(eps, func(i, j int) bool { return eps[i].ID() < eps[j].ID() })

	for _, ep := range eps {
		self := ep.ID()
		ep.sendMu.Lock()
		sends := ep.sends
		ep.sendMu.Unlock()
		for _, ev := range sends {
			tr.sendCalls = append(tr.sendCalls, ev.call)
			m, first := dec.decode(ev.payload)
			if m == nil {
				continue
			}
			if first {
				if inWindow(ev.at) {
					tr.encoded[m.Type]++
				}
				if len(tr.samples[m.Type]) < sampleCap {
					tr.samples[m.Type] = append(tr.samples[m.Type], ev.payload)
				}
			}
			id := idOf(self, ev.peer, m)
			sentAt[id] = append(sentAt[id], ev.at)
			switch m.Type {
			case bft.MsgRequest:
				if m.Request == nil {
					continue
				}
				k := reqKey{m.Request.Client, m.Request.Seq}
				if _, ok := reqSent[k]; !ok {
					reqSent[k] = ev.at
					reqTargets[k] = make(map[transport.NodeID]bool)
				}
				// A second copy to the same replica is a retransmission.
				if reqTargets[k][ev.peer] {
					resent[k]++
				}
				reqTargets[k][ev.peer] = true
			case bft.MsgPrePrepare:
				if m.Batch == nil {
					continue
				}
				for i := range m.Batch.Requests {
					k := reqKey{m.Batch.Requests[i].Client, m.Batch.Requests[i].Seq}
					if _, ok := proposed[k]; !ok {
						proposed[k] = proposal{at: ev.at, primary: self, view: m.View, seqNo: m.SeqNo}
					}
				}
			case bft.MsgCommit:
				k := nodeSeqKey{self, m.View, m.SeqNo}
				if _, ok := commitSent[k]; !ok {
					commitSent[k] = ev.at
				}
			case bft.MsgReply:
				k := nodeReqKey{self, reqKey{m.ReplyClient, m.ReplySeq}}
				if _, ok := replySent[k]; !ok {
					replySent[k] = ev.at
				}
			}
		}
	}
	for _, ep := range eps {
		self := ep.ID()
		ep.recvMu.Lock()
		recvs := ep.recvs
		ep.recvMu.Unlock()
		for _, ev := range recvs {
			m, _ := dec.decode(ev.payload)
			if m == nil {
				continue
			}
			if inWindow(ev.at) {
				tr.received[m.Type]++
				tr.bytes[m.Type] += int64(len(ev.payload))
			}
			// Pair with the oldest unpaired Send of the same frame.
			id := idOf(ev.peer, self, m)
			if q := sentAt[id]; len(q) > 0 {
				tr.transits = append(tr.transits, ev.at.Sub(q[0]))
				sentAt[id] = q[1:]
			}
			switch m.Type {
			case bft.MsgRequest:
				if m.Request == nil {
					continue
				}
				k := nodeReqKey{self, reqKey{m.Request.Client, m.Request.Seq}}
				if _, ok := reqRecv[k]; !ok {
					reqRecv[k] = ev.at
				}
			case bft.MsgReply:
				k := reqKey{m.ReplyClient, m.ReplySeq}
				replies[k] = append(replies[k], replyArrival{at: ev.at, from: ev.peer})
			}
		}
	}

	for i := range invs {
		in := &invs[i]
		if in.err != nil {
			continue
		}
		k := reqKey{clientID(in.client), in.seq}
		if resent[k] > 0 {
			tr.retransmitted++
			continue
		}
		t1, ok1 := reqSent[k]
		prop, ok3 := proposed[k]
		t2, ok2 := reqRecv[nodeReqKey{prop.primary, k}]
		// d is the sender of the (f+1)-th reply from distinct replicas:
		// with every replica correct, that reply completes the quorum.
		var decider replyArrival
		distinct := make(map[transport.NodeID]bool, faults+1)
		for _, r := range replies[k] {
			if distinct[r.from] {
				continue
			}
			distinct[r.from] = true
			if len(distinct) == faults+1 {
				decider = r
				break
			}
		}
		t4, ok4 := commitSent[nodeSeqKey{decider.from, prop.view, prop.seqNo}]
		t5, ok5 := replySent[nodeReqKey{decider.from, k}]
		if !(ok1 && ok2 && ok3 && ok4 && ok5) || decider.at.IsZero() {
			tr.unmatched++
			continue
		}
		ts := [budgetRows + 1]time.Time{in.called, t1, t2, prop.at, t4, t5, decider.at, in.returned}
		sp := span{inv: in}
		for r := 0; r < budgetRows; r++ {
			sp.rows[r] = ts[r+1].Sub(ts[r])
		}
		tr.spans = append(tr.spans, sp)
	}
	return tr
}
