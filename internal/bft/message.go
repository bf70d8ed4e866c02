// Package bft is a PBFT-style Byzantine fault-tolerant state machine
// replication library in the mold of BFT-SMaRt (paper §5.2): three-phase
// ordering (pre-prepare / prepare / commit) with request batching,
// checkpointing with log truncation, state transfer for new or lagging
// replicas, view change for primary failure, and the replica-set
// reconfiguration protocol Lazarus uses to add a fresh replica before
// removing a quarantined one. n = 3f+1 replicas tolerate f Byzantine
// faults; clients accept a result vouched by f+1 matching replies.
package bft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"hash"

	"lazarus/internal/transport"
)

// MsgType discriminates protocol messages.
type MsgType int

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgReply
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgStateRequest
	MsgStateReply
	MsgCatchUp
	// MsgReadReply answers a read-only request without ordering it; a
	// client needs a quorum of matching ones (read.go).
	MsgReadReply
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "REQUEST"
	case MsgPrePrepare:
		return "PRE-PREPARE"
	case MsgPrepare:
		return "PREPARE"
	case MsgCommit:
		return "COMMIT"
	case MsgReply:
		return "REPLY"
	case MsgCheckpoint:
		return "CHECKPOINT"
	case MsgViewChange:
		return "VIEW-CHANGE"
	case MsgNewView:
		return "NEW-VIEW"
	case MsgStateRequest:
		return "STATE-REQUEST"
	case MsgStateReply:
		return "STATE-REPLY"
	case MsgCatchUp:
		return "CATCH-UP"
	case MsgReadReply:
		return "READ-REPLY"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// Digest is a SHA-256 content hash.
type Digest [sha256.Size]byte

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders a short prefix for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// Request is a client operation to be ordered.
type Request struct {
	// Client identifies the submitting client.
	Client transport.NodeID
	// Seq is the client-local sequence number (monotone per client);
	// replicas use it to deduplicate retransmissions.
	Seq uint64
	// Op is the opaque service operation.
	Op []byte
	// Order asks every replica to order the request even when the
	// application could answer it unordered (read.go). A client sets it
	// when a read's unordered answers made no quorum. The signature and the
	// MACs cover it.
	Order bool
	// Sig authenticates the request with the client's key.
	Sig []byte

	// digest caches Digest(). It never crosses the wire: a decoded
	// request recomputes on first use. Requests are immutable
	// once built, and each replica's copies live on its single event-loop
	// goroutine, so the cache needs no synchronization.
	digest    Digest
	digestSet bool
}

// The authenticated inputs — what a client or replica signature, a
// request or reply MAC and a request digest cover — are canonical append
// encodings built with codec.go's helpers: fixed-width integers, a
// length-prefixed blob for every variable-length field and a presence byte
// before every optional one, so no two distinct values share an input. Each starts with a tag
// naming its kind; all tags are the same length, so no kind's input is a
// prefix of another's. A request's Order bit picks its tag. DESIGN.md §8
// tabulates the layout.
const (
	requestInputTag = "lazarus/req\x00"
	orderedInputTag = "lazarus/ord\x00"
	messageInputTag = "lazarus/msg\x00"
)

// requestInputHeader is the size of a request's input before its op.
const requestInputHeader = len(requestInputTag) + 8 + 8 + 4

// appendInputHeader appends what the request's input holds before its op:
// tag client:u64 seq:u64 and the op's length.
func (r *Request) appendInputHeader(b []byte) []byte {
	if r.Order {
		b = append(b, orderedInputTag...)
	} else {
		b = append(b, requestInputTag...)
	}
	b = appendU64(b, uint64(r.Client))
	b = appendU64(b, r.Seq)
	return appendU32(b, uint32(len(r.Op)))
}

// digestInput returns the byte string covered by the client signature
// and the request's MACs: tag client:u64 seq:u64 op:blob.
func (r *Request) digestInput() []byte {
	b := r.appendInputHeader(make([]byte, 0, requestInputHeader+len(r.Op)))
	return append(b, r.Op...)
}

// writeInput feeds digestInput to h without building it: the op, which
// can be kilobytes, goes to the hash where it lies.
func (r *Request) writeInput(h hash.Hash) {
	var hdr [requestInputHeader]byte
	h.Write(r.appendInputHeader(hdr[:0]))
	h.Write(r.Op)
}

// Digest hashes the request (excluding the signature). The hash is
// computed once and cached: execution and pending-queue compaction call
// this O(pending) times per commit.
func (r *Request) Digest() Digest {
	if !r.digestSet {
		h := sha256.New()
		r.writeInput(h)
		h.Sum(r.digest[:0])
		r.digestSet = true
	}
	return r.digest
}

// Sign signs the request with the client's private key.
func (r *Request) Sign(key ed25519.PrivateKey) {
	r.Sig = ed25519.Sign(key, r.digestInput())
}

// Verify checks the client signature.
func (r *Request) Verify(pub ed25519.PublicKey) bool {
	return len(r.Sig) == ed25519.SignatureSize && ed25519.Verify(pub, r.digestInput(), r.Sig)
}

// Batch is an ordered group of requests proposed in one consensus
// instance.
type Batch struct {
	Requests []Request

	// digest caches Digest() under the same single-goroutine, immutable-
	// once-built discipline as Request.digest.
	digest    Digest
	digestSet bool
}

// Digest hashes the batch contents. Cached: the agreement phases and
// view-change validation re-digest the same batch repeatedly.
func (b *Batch) Digest() Digest {
	if b.digestSet {
		return b.digest
	}
	h := sha256.New()
	for i := range b.Requests {
		d := b.Requests[i].Digest()
		h.Write(d[:])
	}
	h.Sum(b.digest[:0])
	b.digestSet = true
	return b.digest
}

// Message is the wire-level protocol message; exactly the fields for its
// Type are populated.
type Message struct {
	Type MsgType
	// From is the sender's node id (authenticated by the transport MAC
	// and, for signed messages, the signature).
	From transport.NodeID
	// View and SeqNo locate the consensus instance.
	View, SeqNo uint64
	// Epoch is the membership-configuration number the sender operates
	// in; messages from other epochs are handled by reconfiguration.
	Epoch uint64

	// Request carries MsgRequest.
	Request *Request
	// Batch carries the proposed batch in MsgPrePrepare.
	Batch *Batch
	// BatchDigest is the agreed digest in the agreement phases.
	BatchDigest Digest

	// Reply fields (MsgReply and MsgReadReply). The header's Epoch is
	// the epoch the replica answered in.
	ReplySeq    uint64 // echoes Request.Seq
	Result      []byte
	ReplyClient transport.NodeID

	// Checkpoint fields.
	StateDigest Digest

	// ViewChange fields. Prepared also carries the single certificate of
	// a MsgCatchUp response (see onCatchUp).
	NewView    uint64
	LastStable uint64
	Prepared   []PreparedProof
	// NewViewMsgs carries the 2f+1 view-change messages justifying a
	// NEW-VIEW; every replica computes the re-proposals from them.
	NewViewMsgs []Message

	// State transfer fields.
	Snapshot  []byte
	SnapSeqNo uint64

	// Sig authenticates the message: the sender's signature on the types
	// that can enter certificates or state transfer, and on a reply or a
	// request the MAC under the (client, replica) key of its sender and
	// recipient (replykey.go).
	Sig []byte

	// authDone/auth carry request-authentication verdicts computed on the
	// loop or by the verify pool (see verify.go): auth[i] says how the
	// i'th request the message carries authenticated, if it did. They
	// never cross the wire — verdicts are local trust, not wire state.
	authDone bool
	auth     []verdict

	// repSigDone/repSigOK carry the replica-signature verdict for a
	// prepare, computed against repSigKey (captured on the event loop,
	// where membership is owned, before pool offload). Local for the same
	// reason as authDone.
	repSigDone bool
	repSigOK   bool
	repSigKey  ed25519.PublicKey
	// voteFlying marks a prepare its instance's gate counts as in flight
	// at the verify pool (see prepareGate). Local like authDone.
	voteFlying bool
	// pooled marks a REQUEST handed to the verify pool (see
	// requestLanded). Local like authDone.
	pooled bool

	// snapSum caches snapshotSum(). A state reply's megabytes are hashed
	// once per message, not once per use; Snapshot must not change after.
	snapSum    Digest
	snapSumSet bool
}

// snapshotSum returns SHA-256(Snapshot): what the signature covers in
// place of the bytes, and what state transfer matches copies by.
func (m *Message) snapshotSum() Digest {
	if !m.snapSumSet {
		m.snapSum, m.snapSumSet = sha256.Sum256(m.Snapshot), true
	}
	return m.snapSum
}

// PreparedProof records that a batch prepared at (view, seq) — carried in
// view changes so the new primary re-proposes it, and in catch-up
// responses. The certificate is quorum−1 signed PREPAREs from distinct
// non-primary members of the view, in the epoch that validates it: any
// replica can check the claim without trusting its carrier, and a
// Byzantine member cannot fabricate a high-view proof that steers the new
// primary into re-proposing a batch that never prepared. The primary's
// proposal is not part of it: it rode on the primary's authenticated
// channel, and DESIGN.md §10 says why the prepares are enough.
type PreparedProof struct {
	View, SeqNo uint64
	BatchDigest Digest
	Batch       *Batch
	// Prepares are signed prepare votes from distinct non-primary
	// members matching BatchDigest.
	Prepares []Message
}

// signedInputFixed is the size of signedInput without its proofs and
// result bytes: tag, type and four u64 header fields, two digests, newView
// and lastStable, the proof count, snapSeq, the snapshot's presence byte
// and sum, two reply u64s and the result's length.
const signedInputFixed = len(messageInputTag) + 5*8 + 2*32 + 2*8 + 4 + 8 + 1 + 32 + 2*8 + 4

// signedInput returns the byte string covered by replica signatures and
// reply MACs. It covers the semantic content of the authenticated types,
// every field of every type, in one layout:
//
//	tag type:u64 from:u64 view:u64 seq:u64 epoch:u64 batchDigest stateDigest
//	newView:u64 lastStable:u64 proof* snapSeq:u64 has:u8 [snapshotSum]
//	replySeq:u64 replyClient:u64 result:blob
//
// where a proof is view:u64 seq:u64 batchDigest (from:u64 sig:blob)*, the
// list its prepares.
func (m *Message) signedInput() []byte {
	b := m.appendSignedHeader(make([]byte, 0, signedInputFixed+len(m.Result)))
	return append(b, m.Result...)
}

// appendSignedHeader appends signedInput up to the result's bytes, which
// a MAC takes where they lie (replyKey.sum).
func (m *Message) appendSignedHeader(b []byte) []byte {
	b = append(b, messageInputTag...)
	b = appendU64(b, uint64(m.Type))
	b = appendU64(b, uint64(m.From))
	b = appendU64(b, m.View)
	b = appendU64(b, m.SeqNo)
	b = appendU64(b, m.Epoch)
	b = append(b, m.BatchDigest[:]...)
	b = append(b, m.StateDigest[:]...)
	b = appendU64(b, m.NewView)
	b = appendU64(b, m.LastStable)
	b = appendU32(b, uint32(len(m.Prepared)))
	for i := range m.Prepared {
		p := &m.Prepared[i]
		b = appendU64(b, p.View)
		b = appendU64(b, p.SeqNo)
		b = append(b, p.BatchDigest[:]...)
		// Bind the certificate's prepares too (their signatures cover their
		// own semantic content, and the batch is bound via BatchDigest), so
		// a relayer cannot strip or swap them without invalidating the
		// view-change signature.
		b = appendU32(b, uint32(len(p.Prepares)))
		for j := range p.Prepares {
			b = appendU64(b, uint64(p.Prepares[j].From))
			b = appendBlob(b, p.Prepares[j].Sig)
		}
	}
	b = appendU64(b, m.SnapSeqNo)
	if len(m.Snapshot) > 0 {
		sum := m.snapshotSum()
		b = append(b, 1)
		b = append(b, sum[:]...)
	} else {
		b = append(b, 0)
	}
	// Reply fields: without these, a reply's MAC would not bind the
	// result, and any member could forge votes for arbitrary results.
	b = appendU64(b, m.ReplySeq)
	b = appendU64(b, uint64(m.ReplyClient))
	return appendU32(b, uint32(len(m.Result)))
}

// Sign signs the message with the replica's key. Replies are sealed with a
// replyKey instead.
func (m *Message) Sign(key ed25519.PrivateKey) {
	m.Sig = ed25519.Sign(key, m.signedInput())
}

// VerifySig checks the replica signature.
func (m *Message) VerifySig(pub ed25519.PublicKey) bool {
	return len(m.Sig) == ed25519.SignatureSize && ed25519.Verify(pub, m.signedInput(), m.Sig)
}
