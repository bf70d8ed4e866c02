package bft

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"slices"
	"sync"
	"time"

	"lazarus/internal/transport"
)

// ClientConfig configures a BFT client.
type ClientConfig struct {
	// ID is the client's node id (>= transport.ClientIDBase).
	ID transport.NodeID
	// Key signs the client's requests.
	Key ed25519.PrivateKey
	// Replicas is the current replica set to talk to.
	Replicas []transport.NodeID
	// F is the fault threshold; f+1 matching replies accept an ordered
	// result, and a quorum of n replicas, ⌈(n+F+1)/2⌉, an unordered read.
	F int
	// Net provides the endpoint.
	Net transport.Network
	// RequestTimeout bounds one invocation attempt before retransmitting
	// (default 500ms). The pause before each retransmission starts at an
	// eighth of it and doubles up to all of it: backing off keeps an
	// open-loop surge of timed-out clients from hammering a group that is
	// merely slow — retransmitting at full rate into a congested WAN is
	// how load surges wedge it.
	RequestTimeout time.Duration
	// MaxAttempts, when positive, gives up after that many attempts; zero
	// retransmits until the Invoke context ends, which is the bound every
	// caller should set.
	MaxAttempts int
	// ReplicaKeys maps replicas to their public keys (required). Each
	// replica shares a key with the client, derived from its public key
	// and Key (replykey.go). Invoke MACs the copy of a request it sends a
	// replica under that key, and discards any reply whose MAC does not
	// verify — membership filtering alone lets anything able to spoof a
	// member's transport id forge votes. A replica with no entry gets its
	// copy without a MAC, and checks the signature instead.
	ReplicaKeys map[transport.NodeID]ed25519.PublicKey
}

// Client invokes operations on the replicated service and accepts a
// result once f+1 replicas vouch for it, or a quorum for a read answered
// without ordering. Safe for sequential use; one
// outstanding invocation at a time (run several Clients for concurrency).
type Client struct {
	cfg ClientConfig
	ep  transport.Endpoint

	mu       sync.Mutex
	replicas []transport.NodeID
	// replyKeys verify each replica's replies. The map is replaced, never
	// modified, so an Invoke may keep reading the one it started with.
	replyKeys map[transport.NodeID]*replyKey
	seq       uint64
	// stamps and floor carry replyTally's stamps and floor from one
	// invocation to the next.
	stamps map[transport.NodeID]uint64
	floor  uint64
}

// NewClient validates the configuration and connects the endpoint.
func NewClient(cfg ClientConfig) (*Client, error) {
	switch {
	case !cfg.ID.IsClient():
		return nil, fmt.Errorf("bft: client id %d below ClientIDBase", cfg.ID)
	case len(cfg.Key) != ed25519.PrivateKeySize:
		return nil, fmt.Errorf("bft: client %d: bad private key", cfg.ID)
	case len(cfg.Replicas) == 0:
		return nil, fmt.Errorf("bft: client %d: no replicas", cfg.ID)
	case len(cfg.ReplicaKeys) == 0:
		return nil, fmt.Errorf("bft: client %d: no replica keys", cfg.ID)
	case cfg.Net == nil:
		return nil, fmt.Errorf("bft: client %d: nil network", cfg.ID)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 500 * time.Millisecond
	}
	ep, err := cfg.Net.Endpoint(cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("bft: client %d endpoint: %w", cfg.ID, err)
	}
	return &Client{
		cfg:       cfg,
		ep:        ep,
		replicas:  append([]transport.NodeID(nil), cfg.Replicas...),
		replyKeys: deriveReplyKeys(cfg.Key, cfg.ReplicaKeys, nil),
	}, nil
}

// deriveReplyKeys returns the reply key for each replica in keys, reusing
// the one in prev where the replica's public key is unchanged: a derivation
// costs tens of microseconds, and callers may update the membership before
// every Invoke. A replica whose key cannot be converted gets no entry, so
// its votes never count.
func deriveReplyKeys(priv ed25519.PrivateKey, keys map[transport.NodeID]ed25519.PublicKey,
	prev map[transport.NodeID]*replyKey) map[transport.NodeID]*replyKey {
	out := make(map[transport.NodeID]*replyKey, len(keys))
	for id, pub := range keys {
		if k, ok := prev[id]; ok && bytes.Equal(k.peer, pub) {
			out[id] = k
		} else if k, err := newReplyKey(priv, pub, true); err == nil {
			out[id] = k
		}
	}
	return out
}

// UpdateMembership installs a new replica set together with its public
// keys (after a Lazarus reconfiguration; in a full deployment clients
// learn this from reply epochs and a directory service), keeping reply
// verification in step with the group. The keys replace the old ones: a
// replica with no entry cannot vote, so an empty map fails every Invoke
// rather than switching verification off.
func (c *Client) UpdateMembership(replicas []transport.NodeID, keys map[transport.NodeID]ed25519.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicas = append([]transport.NodeID(nil), replicas...)
	c.replyKeys = deriveReplyKeys(c.cfg.Key, keys, c.replyKeys)
}

// Replicas returns the client's current replica set.
func (c *Client) Replicas() []transport.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.NodeID(nil), c.replicas...)
}

// Close releases the client's endpoint.
func (c *Client) Close() error { return c.ep.Close() }

// Invoke submits one operation and blocks until its result is vouched
// for or ctx ends (or MaxAttempts, when set, run out). An ordered result
// needs f+1 replies matching in result and epoch; a read the replicas
// answer without ordering it needs a quorum of matching ones at the epoch
// floor (read.go), and when those do not come the request is sent again
// with the Order bit. An error for an ended context wraps ctx.Err().
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	replicas := append([]transport.NodeID(nil), c.replicas...)
	keys := c.replyKeys
	votes := newTally(replicas, c.cfg.F, c.stamps, c.floor)
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.stamps, c.floor = votes.stamps, votes.floor
		c.mu.Unlock()
	}()

	req := &Request{Client: c.cfg.ID, Seq: seq, Op: op}
	payloads, err := c.seal(req, replicas, keys)
	if err != nil {
		return nil, err
	}
	backoff := c.cfg.RequestTimeout / 8
	attempt := 0
	wait := false
	for ; c.cfg.MaxAttempts <= 0 || attempt < c.cfg.MaxAttempts; attempt++ {
		if wait {
			// Exponential backoff between attempts (see RequestTimeout).
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
			backoff = min(2*backoff, c.cfg.RequestTimeout)
		}
		if ctx.Err() != nil {
			break
		}
		if attempt > 0 && !req.Order && len(votes.fast) > 0 {
			// Read replies showed the op is a read, and they did not agree
			// or too few came: ask for it to be ordered. A write goes out
			// again as the same request, which replicas deduplicate.
			req = &Request{Client: c.cfg.ID, Seq: seq, Op: op, Order: true}
			if payloads, err = c.seal(req, replicas, keys); err != nil {
				return nil, err
			}
		}
		// Rotate which replica is contacted first on each attempt. The
		// request still reaches every replica, but ordering starts at the
		// first frame to arrive at the primary — and when the primary (or
		// the link to it) is the reason we are retrying, leading with a
		// different replica means some backup holds the request and its
		// progress timer, not just ours, drives the view change.
		for i := range replicas {
			id := replicas[(i+attempt)%len(replicas)]
			if err := c.ep.Send(id, payloads[id]); err != nil {
				// Dead replicas are expected during reconfiguration.
				continue
			}
		}
		result, outcome := c.collect(ctx, seq, keys, votes, !req.Order)
		if outcome == accepted {
			return result, nil
		}
		// A read whose unordered answers cannot agree is ordered at once;
		// an attempt that timed out backs off first.
		wait = outcome == timedOut
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bft: client %d: no quorum for request %d after %d attempts: %w",
			c.cfg.ID, seq, attempt, err)
	}
	return nil, fmt.Errorf("bft: client %d: no quorum for request %d after %d attempts",
		c.cfg.ID, seq, attempt)
}

// seal signs req and encodes one copy per replica: besides the signature,
// each copy carries the request's MAC under that replica's key, which is
// what a backup checks (verify.go) and all a read is checked by (read.go).
func (c *Client) seal(req *Request, replicas []transport.NodeID,
	keys map[transport.NodeID]*replyKey) (map[transport.NodeID][]byte, error) {
	req.Sign(c.cfg.Key)
	payloads := make(map[transport.NodeID][]byte, len(replicas))
	for _, id := range replicas {
		msg := &Message{Type: MsgRequest, From: c.cfg.ID, Request: req}
		if key, ok := keys[id]; ok {
			key.Seal(msg)
		}
		payload, err := Encode(msg)
		if err != nil {
			return nil, err
		}
		payloads[id] = payload
	}
	return payloads, nil
}

// outcome is how one attempt's wait for replies ended.
type outcome int

const (
	timedOut  outcome = iota // the attempt's RequestTimeout ran out
	accepted                 // a result is vouched for
	disagreed                // the unordered answers cannot form a quorum
)

// collect adds the replies to request seq that arrive within one
// RequestTimeout to t, and returns the result once t accepts one. With
// fast set, it gives up early when the unordered answers so far rule out
// a quorum of them.
func (c *Client) collect(ctx context.Context, seq uint64, keys map[transport.NodeID]*replyKey,
	t *replyTally, fast bool) ([]byte, outcome) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	for {
		env, err := c.ep.Recv(ctx)
		if err != nil {
			return nil, timedOut // retransmit
		}
		reply, err := Decode(env.Payload)
		if err != nil || (reply.Type != MsgReply && reply.Type != MsgReadReply) || reply.ReplySeq != seq {
			continue // stale or foreign message
		}
		if !t.member[env.From] {
			continue // sender is outside the replica-set snapshot
		}
		if t.voted(env.From, reply.Type) {
			// Already hold this replica's verified vote of this kind;
			// retransmitted replies are identical, so skip the MAC check.
			continue
		}
		key, ok := keys[env.From]
		if !ok || !key.Verify(reply) {
			continue // forged, tampered or for another client: only sealed votes count
		}
		if result, ok := t.add(env.From, reply); ok {
			return result, accepted
		}
		if fast && t.fastLost() {
			return nil, disagreed
		}
	}
}

// replyTally holds one invocation's verified votes: ordered replies, of which
// f+1 must match in result and epoch, and unordered read replies, of which
// a quorum must match in result and epoch, that epoch being the floor.
// Only replicas in the invocation's snapshot may vote: a retired replica
// (removed by a Lazarus reconfiguration, possibly because it was
// compromised) must not count toward either quorum.
type replyTally struct {
	member map[transport.NodeID]bool
	f      int
	quorum int
	// stamps is, per member, the highest epoch it stamped on a verified
	// reply, in this invocation or an earlier one.
	stamps map[transport.NodeID]uint64
	// floor is the highest epoch f+1 members of a replica set have
	// stamped. One of them is correct, so the epoch exists: a faulty
	// member alone cannot raise the floor and push the client's reads onto
	// the ordered path. It is at least the epoch of every ordered result
	// the client accepted, whose f+1 repliers all stamped that epoch. It
	// never drops, not even when the members that raised it leave the
	// replica set.
	floor   uint64
	ordered map[transport.NodeID]vote
	fast    map[transport.NodeID]vote
}

// vote is one replica's answer and the epoch it answered in. A correct
// replica stamps an ordered reply with the epoch it executed the request
// in, which the order of execution fixes, and a read reply with its
// current epoch.
type vote struct {
	result []byte
	epoch  uint64
}

// newTally starts a replyTally over the replica set, carrying over the
// epochs its members stamped on the client's earlier replies and the
// floor those set.
func newTally(replicas []transport.NodeID, f int, seen map[transport.NodeID]uint64, floor uint64) *replyTally {
	t := &replyTally{
		member:  make(map[transport.NodeID]bool, len(replicas)),
		f:       f,
		quorum:  quorumSize(len(replicas), f),
		stamps:  make(map[transport.NodeID]uint64, len(replicas)),
		floor:   floor,
		ordered: make(map[transport.NodeID]vote),
		fast:    make(map[transport.NodeID]vote),
	}
	for _, id := range replicas {
		t.member[id] = true
		if e, ok := seen[id]; ok {
			t.stamps[id] = e
		}
	}
	return t
}

// voted reports whether from already cast a vote of the reply type's kind.
func (t *replyTally) voted(from transport.NodeID, typ MsgType) bool {
	if typ == MsgReadReply {
		_, ok := t.fast[from]
		return ok
	}
	_, ok := t.ordered[from]
	return ok
}

// add records a verified reply and reports the result it completes, if any.
func (t *replyTally) add(from transport.NodeID, reply *Message) ([]byte, bool) {
	t.stamps[from] = max(t.stamps[from], reply.Epoch)
	if len(t.member) > t.f {
		es := make([]uint64, 0, len(t.member))
		for id := range t.member {
			es = append(es, t.stamps[id])
		}
		slices.Sort(es)
		t.floor = max(t.floor, es[len(es)-1-t.f])
	}
	v := vote{result: reply.Result, epoch: reply.Epoch}
	if reply.Type == MsgReply {
		t.ordered[from] = v
		best, n := leading(t.ordered, func(vote) bool { return true })
		return best.result, n > t.f
	}
	t.fast[from] = v
	result, n := t.leadingRead()
	return result, n >= t.quorum
}

// leadingRead returns the result the most unordered answers at the floor
// agree on, and how many do.
func (t *replyTally) leadingRead() ([]byte, int) {
	best, n := leading(t.fast, func(v vote) bool { return v.epoch == t.floor })
	return best.result, n
}

// leading returns the vote that the most votes match in result and epoch,
// among those counts admits, and how many match it.
func leading(votes map[transport.NodeID]vote, counts func(vote) bool) (vote, int) {
	var best vote
	most := 0
	for _, v := range votes {
		if !counts(v) {
			continue
		}
		n := 0
		for _, o := range votes {
			if o.epoch == v.epoch && bytes.Equal(o.result, v.result) {
				n++
			}
		}
		if n > most {
			best, most = v, n
		}
	}
	return best, most
}

// fastLost reports whether the unordered answers so far rule out a quorum
// of them: fewer than a quorum would agree even if every member yet to
// answer sent the leading result at the epoch floor. It needs one such
// answer first — replicas that ordered the request (a write) send none.
func (t *replyTally) fastLost() bool {
	if len(t.fast) == 0 {
		return false
	}
	_, n := t.leadingRead()
	answered := len(t.fast)
	for id := range t.ordered {
		if _, ok := t.fast[id]; !ok {
			answered++
		}
	}
	return n+len(t.member)-answered < t.quorum
}
