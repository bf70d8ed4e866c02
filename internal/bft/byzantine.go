package bft

// Byzantine attacker replicas for the chaos harness.
//
// An Attacker models a *compromised* replica: the adversary holds the
// replica's real signing key and controls its network layer, so every
// forged message of a signed type carries a valid signature from a
// current group member — and every forged reply a valid MAC, since the
// stolen key and the clients' public keys are all it takes to derive the
// replica's reply keys. Nothing here is detectable by signature checking
// alone — that is the point. Safety against these attacks must come from quorum
// intersection and per-message protocol validation (digest binding,
// view/epoch freshness, certificate checks, f+1 snapshot vouching), and
// the chaos harness asserts exactly that while attacks run.
//
// The attacker is installed as a transport.SendInterceptor on the
// compromised replica's endpoint: it sees every outgoing payload and may
// pass it through, suppress it, rewrite it (re-signing or re-sealing with
// the stolen key), or attach extra forged payloads. The replica's own
// state stays honest — compromise lives entirely in the send path, which
// keeps the attack surface composable with swaps (a cleaned replica is
// simply one whose interceptor was removed).
//
// Determinism: every random choice draws from the attacker's own seeded
// rng under its mutex, and nothing here reads the wall clock or spawns
// goroutines, so a seeded chaos schedule replays.

import (
	"crypto/ed25519"
	"crypto/sha256"
	mrand "math/rand"
	"sync"

	"lazarus/internal/transport"
)

// AttackKind selects the behavior of a compromised replica.
type AttackKind int

const (
	// AttackEquivocate: conflicting proposals and votes. As primary the
	// replica proposes different batches for the same (view, seq) to
	// different peers; as backup it splits its prepare/commit digests,
	// sends the peers that get its genuine prepare a garbled-signature copy
	// first, and forges its client replies. Honest replicas must never
	// execute diverging commands, must not stall on a vote that fails
	// verification, and honest clients must never accept the forged
	// replies.
	AttackEquivocate AttackKind = iota
	// AttackReplay: the replica records its own signed votes and re-sends
	// them later, when their views, sequence numbers and epochs are
	// stale. Freshness checks must keep the replays out of every tally.
	// Given a frozen state (FreezeReads), it also answers reads from that
	// state instead of the live one: the client's read quorum must keep
	// the stale answers out.
	AttackReplay
	// AttackCorruptState: the replica vouches corrupted state — snapshot
	// bytes truncated or garbled (but validly signed), checkpoint digests
	// flipped. f+1 matching-copy counting and restore validation must
	// keep the poison out.
	AttackCorruptState
	// AttackCensor: the malicious-primary attack. The replica suppresses
	// its pre-prepares and client replies, stalling the view it leads.
	// The view-change protocol must demote it and resume progress.
	AttackCensor
)

func (k AttackKind) String() string {
	switch k {
	case AttackEquivocate:
		return "equivocate"
	case AttackReplay:
		return "replay"
	case AttackCorruptState:
		return "corrupt-state"
	case AttackCensor:
		return "censor"
	}
	return "unknown"
}

// AttackerStats counts what an attacker actually did, so chaos reports
// can prove an attack was exercised rather than idling.
type AttackerStats struct {
	Intercepted int // payloads seen
	Equivocated int // conflicting variants emitted
	Garbled     int // prepares sent with a broken signature ahead of the genuine one
	Replayed    int // stale recordings re-sent
	Corrupted   int // state messages poisoned
	Censored    int // payloads suppressed
	StaleReads  int // reads answered from the frozen state
}

// Add folds o's counts into s.
func (s *AttackerStats) Add(o AttackerStats) {
	s.Intercepted += o.Intercepted
	s.Equivocated += o.Equivocated
	s.Garbled += o.Garbled
	s.Replayed += o.Replayed
	s.Corrupted += o.Corrupted
	s.Censored += o.Censored
	s.StaleReads += o.StaleReads
}

// attackerHistoryCap bounds the replay recording.
const attackerHistoryCap = 128

// Attacker turns one replica's outgoing traffic Byzantine. Install with
// Memory.Intercept(id, a.Intercept); remove by installing nil.
type Attacker struct {
	id   transport.NodeID
	key  ed25519.PrivateKey
	kind AttackKind
	// replyKeys are the compromised replica's reply keys, by client.
	replyKeys map[transport.NodeID]*replyKey

	mu      sync.Mutex
	rng     *mrand.Rand
	history [][]byte
	stats   AttackerStats
	// frozen answers reads in place of the replica's live state, and
	// asked holds each client's latest read the replica was sent, which
	// the replica's answer does not name (AttackReplay only).
	frozen Querier
	asked  map[transport.NodeID]askedRead
}

// askedRead is one client's read as the compromised replica received it.
type askedRead struct {
	seq uint64
	op  []byte
}

// NewAttacker arms an attacker with a compromised replica's identity, the
// public keys of the clients it may forge replies to, and a seed for its
// (deterministic) behavior.
func NewAttacker(id transport.NodeID, key ed25519.PrivateKey, clientKeys map[transport.NodeID]ed25519.PublicKey,
	kind AttackKind, seed int64) *Attacker {
	a := &Attacker{id: id, key: key, kind: kind, rng: mrand.New(mrand.NewSource(seed)),
		replyKeys: make(map[transport.NodeID]*replyKey, len(clientKeys))}
	for client, pub := range clientKeys {
		if k, err := newReplyKey(key, pub, false); err == nil {
			a.replyKeys[client] = k
		}
	}
	return a
}

// FreezeReads hands the attacker a state to answer reads from: the
// caller's copy of the replica's state when the attack was armed. Install
// Observe on the replica's inbound traffic too, so the attacker learns
// what each read asked. Only AttackReplay uses it.
func (a *Attacker) FreezeReads(q Querier) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frozen = q
	if a.asked == nil {
		a.asked = make(map[transport.NodeID]askedRead, len(a.replyKeys))
	}
}

// Observe implements transport.RecvObserver: it notes the reads sent to
// the compromised replica, for a frozen state to answer.
func (a *Attacker) Observe(from transport.NodeID, payload []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.frozen == nil {
		return
	}
	msg, err := Decode(payload)
	if err != nil || msg.Type != MsgRequest || msg.Request.Order || msg.Request.Client != from {
		return
	}
	if _, ok := a.replyKeys[from]; ok && a.frozen.ReadOnly(msg.Request.Op) {
		a.asked[from] = askedRead{seq: msg.Request.Seq, op: msg.Request.Op}
	}
}

// Kind returns the attack behavior.
func (a *Attacker) Kind() AttackKind { return a.kind }

// Stats snapshots the attack counters.
func (a *Attacker) Stats() AttackerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Intercept implements transport.SendInterceptor. Payloads that do not
// decode as protocol messages pass through untouched.
func (a *Attacker) Intercept(to transport.NodeID, payload []byte) [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Intercepted++
	msg, err := Decode(payload)
	if err != nil {
		return [][]byte{payload}
	}
	switch a.kind {
	case AttackEquivocate:
		return a.equivocate(to, msg, payload)
	case AttackReplay:
		return a.replay(msg, payload)
	case AttackCorruptState:
		return a.corruptState(msg, payload)
	case AttackCensor:
		return a.censor(msg, payload)
	}
	return [][]byte{payload}
}

// forge re-signs a mutated message with the compromised key and encodes
// it, falling back to the original payload if encoding fails.
func (a *Attacker) forge(m *Message, fallback []byte) [][]byte {
	m.From = a.id
	m.Sig = nil
	m.Sign(a.key)
	p, err := Encode(m)
	if err != nil {
		return [][]byte{fallback}
	}
	return [][]byte{p}
}

// equivDigest derives a deterministic conflicting digest.
func equivDigest(d Digest) Digest {
	return sha256.Sum256(d[:])
}

func (a *Attacker) equivocate(to transport.NodeID, msg *Message, payload []byte) [][]byte {
	switch msg.Type {
	case MsgPrePrepare:
		// Split-brain proposal: even-numbered peers get the real batch,
		// odd-numbered peers an empty batch for the same (view, seq). A
		// proposal is unsigned; the compromised channel is what vouches.
		if to%2 == 0 {
			return [][]byte{payload}
		}
		forged := *msg
		forged.Batch = &Batch{}
		forged.BatchDigest = forged.Batch.Digest()
		if p, err := Encode(&forged); err == nil {
			a.stats.Equivocated++
			return [][]byte{p}
		}
	case MsgPrepare:
		if to%2 == 0 {
			// A copy whose signature fails goes first: a replica that
			// verifies only the votes its quorum needs spends a verification
			// on it and must fall back to the genuine vote behind it.
			garbled := *msg
			garbled.Sig = append([]byte(nil), msg.Sig...)
			if len(garbled.Sig) > 0 {
				garbled.Sig[0] ^= 0xff
			}
			if p, err := Encode(&garbled); err == nil {
				a.stats.Garbled++
				return [][]byte{p, payload}
			}
			return [][]byte{payload}
		}
		forged := *msg
		forged.BatchDigest = equivDigest(forged.BatchDigest)
		a.stats.Equivocated++
		return a.forge(&forged, payload)
	case MsgCommit:
		// Commits are deliberately unsigned (they never enter
		// certificates); a split digest here attacks the digest-keyed
		// commit tally directly.
		if to%2 == 0 {
			return [][]byte{payload}
		}
		forged := *msg
		forged.BatchDigest = equivDigest(forged.BatchDigest)
		if p, err := Encode(&forged); err == nil {
			a.stats.Equivocated++
			return [][]byte{p}
		}
	case MsgReply, MsgReadReply:
		// Forged execution result, sealed with the compromised replica's
		// key for this client: a client counting f+1 matching replies (a
		// quorum for a read) must never accept it. A client whose public
		// key the attacker was not given gets the genuine reply.
		k, ok := a.replyKeys[to]
		if !ok {
			break
		}
		forged := *msg
		forged.Result = append([]byte("forged:"), forged.Result...)
		k.Seal(&forged)
		if p, err := Encode(&forged); err == nil {
			a.stats.Equivocated++
			return [][]byte{p}
		}
	}
	return [][]byte{payload}
}

func (a *Attacker) replay(msg *Message, payload []byte) [][]byte {
	out := [][]byte{a.staleRead(msg, payload)}
	switch msg.Type {
	case MsgPrepare, MsgCommit, MsgCheckpoint, MsgViewChange:
		if len(a.history) < attackerHistoryCap {
			a.history = append(a.history, append([]byte(nil), payload...))
		}
	}
	// Re-send a recorded vote alongside roughly every third message. By
	// the time it lands its view, sequence number or epoch is stale, and
	// no tally may count it.
	if len(a.history) > 0 && a.rng.Intn(3) == 0 {
		a.stats.Replayed++
		out = append(out, a.history[a.rng.Intn(len(a.history))])
	}
	return out
}

// staleRead rewrites a read reply to answer from the frozen state, sealed
// like the genuine one, or returns the payload as it is.
func (a *Attacker) staleRead(msg *Message, payload []byte) []byte {
	if msg.Type != MsgReadReply || a.frozen == nil {
		return payload
	}
	read, ok := a.asked[msg.ReplyClient]
	if !ok || read.seq != msg.ReplySeq {
		return payload
	}
	forged := *msg
	forged.Result = a.frozen.Query(read.op)
	a.replyKeys[msg.ReplyClient].Seal(&forged)
	p, err := Encode(&forged)
	if err != nil {
		return payload
	}
	a.stats.StaleReads++
	return p
}

func (a *Attacker) corruptState(msg *Message, payload []byte) [][]byte {
	switch msg.Type {
	case MsgStateReply:
		forged := *msg
		snap := append([]byte(nil), forged.Snapshot...)
		if len(snap) > 0 {
			if a.rng.Intn(2) == 0 {
				snap = snap[:len(snap)/2] // truncated snapshot
			} else {
				for i := 0; i < len(snap); i += 7 {
					snap[i] ^= 0x5a // garbled snapshot
				}
			}
		}
		forged.Snapshot = snap
		a.stats.Corrupted++
		return a.forge(&forged, payload)
	case MsgCheckpoint:
		forged := *msg
		forged.StateDigest = equivDigest(forged.StateDigest)
		a.stats.Corrupted++
		return a.forge(&forged, payload)
	}
	return [][]byte{payload}
}

func (a *Attacker) censor(msg *Message, payload []byte) [][]byte {
	switch msg.Type {
	case MsgPrePrepare, MsgReply, MsgReadReply:
		a.stats.Censored++
		return nil
	}
	return [][]byte{payload}
}
