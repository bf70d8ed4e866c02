package bft

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
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
	// F is the fault threshold; f+1 matching replies accept a result.
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
// result once f+1 replicas vouch for it. Safe for sequential use; one
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

// Invoke submits one operation and blocks until f+1 matching replies
// arrive or ctx ends (or MaxAttempts, when set, run out). An error for an
// ended context wraps ctx.Err().
func (c *Client) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	replicas := append([]transport.NodeID(nil), c.replicas...)
	keys := c.replyKeys
	c.mu.Unlock()

	req := Request{Client: c.cfg.ID, Seq: seq, Op: op}
	req.Sign(c.cfg.Key)
	// One payload per replica: each copy carries, besides the signature,
	// the request's MAC under that replica's key, which is what a backup
	// checks (verify.go).
	payloads := make(map[transport.NodeID][]byte, len(replicas))
	for _, id := range replicas {
		msg := &Message{Type: MsgRequest, From: c.cfg.ID, Request: &req}
		if key, ok := keys[id]; ok {
			key.Seal(msg)
		}
		payload, err := Encode(msg)
		if err != nil {
			return nil, err
		}
		payloads[id] = payload
	}

	// Only replicas in this invocation's snapshot may vote: a retired
	// replica (removed by a Lazarus reconfiguration, possibly because it
	// was compromised) must not count toward the f+1 quorum.
	member := make(map[transport.NodeID]bool, len(replicas))
	for _, id := range replicas {
		member[id] = true
	}

	votes := make(map[transport.NodeID][]byte)
	backoff := c.cfg.RequestTimeout / 8
	attempt := 0
	for ; c.cfg.MaxAttempts <= 0 || attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
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
		if result, ok := c.collect(ctx, seq, member, keys, votes); ok {
			return result, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bft: client %d: no quorum for request %d after %d attempts: %w",
			c.cfg.ID, seq, attempt, err)
	}
	return nil, fmt.Errorf("bft: client %d: no quorum for request %d after %d attempts",
		c.cfg.ID, seq, attempt)
}

// collect adds the replies to request seq that arrive within one
// RequestTimeout to votes, and reports the result f+1 of them agree on.
func (c *Client) collect(ctx context.Context, seq uint64, member map[transport.NodeID]bool,
	keys map[transport.NodeID]*replyKey, votes map[transport.NodeID][]byte) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	for {
		env, err := c.ep.Recv(ctx)
		if err != nil {
			return nil, false // attempt timed out; retransmit
		}
		reply, err := Decode(env.Payload)
		if err != nil || reply.Type != MsgReply || reply.ReplySeq != seq {
			continue // stale or foreign message
		}
		if !member[env.From] {
			continue // sender is outside the replica-set snapshot
		}
		if _, dup := votes[env.From]; dup {
			// Already hold this replica's verified vote; retransmitted
			// replies are identical, so skip the MAC check.
			continue
		}
		key, ok := keys[env.From]
		if !ok || !key.Verify(reply) {
			continue // forged, tampered or for another client: only sealed votes count
		}
		votes[env.From] = reply.Result
		if result, ok := tally(votes, c.cfg.F+1); ok {
			return result, true
		}
	}
}

// tally looks for need matching results among the votes.
func tally(votes map[transport.NodeID][]byte, need int) ([]byte, bool) {
	for _, result := range votes {
		count := 0
		for _, other := range votes {
			if bytes.Equal(result, other) {
				count++
			}
		}
		if count >= need {
			return result, true
		}
	}
	return nil, false
}
