package bft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sort"

	"lazarus/internal/transport"
)

// Application is the replicated service: a deterministic state machine.
// Execute is called with totally-ordered operations on every correct
// replica; Snapshot/Restore support checkpointing and state transfer.
type Application interface {
	// Execute applies one ordered operation and returns its result. It
	// must be deterministic.
	Execute(op []byte) []byte
	// Snapshot serializes the full service state.
	Snapshot() ([]byte, error)
	// Restore replaces the service state with a snapshot.
	Restore(snapshot []byte) error
}

// Checkpointer is an Application that can name its state without
// serializing it. The replica checkpoints every CheckpointInterval
// executions but ships a snapshot only when a peer asks for one, so an
// application that keeps a digest up to date as it executes makes a
// checkpoint cost what was written since the last one. An Application
// that is not a Checkpointer is wrapped in snapshotCheckpointer and pays
// a full Snapshot per checkpoint.
type Checkpointer interface {
	Application
	// Checkpoint returns a digest of the current state and a handle to
	// that state. The digest must be a function of the state alone:
	// replicas that executed the same operations return the same digest,
	// and so does a replica that reached the state through Restore.
	Checkpoint() (Digest, StateHandle, error)
}

// StateHandle is the application state as of one Checkpoint call.
type StateHandle interface {
	// Bytes serializes that state, in the form Restore accepts, however
	// many operations (or Restores) the application went through since.
	// The replica does not modify the result.
	Bytes() ([]byte, error)
	// Release tells the application the state is no longer wanted. The
	// replica holds a handle per checkpoint inside its log window plus the
	// last stable one, and releases each exactly once.
	Release()
}

// Querier is an Application that can answer some operations without
// ordering them. A replica answers a read-only request from its current
// state once it has executed everything it voted to commit, and the client
// accepts the answer only from a quorum of matching replies (read.go). An
// Application that is not a Querier has every operation ordered.
type Querier interface {
	Application
	// ReadOnly reports whether op leaves every state unchanged. It must
	// depend on op alone, so that every replica classifies it alike.
	ReadOnly(op []byte) bool
	// Query returns what Execute(op) would return on the current state,
	// without changing it. It is called only with ops ReadOnly accepts.
	Query(op []byte) []byte
}

// snapshotCheckpointer makes any Application a Checkpointer the direct
// way: serialize everything and hash it.
type snapshotCheckpointer struct{ Application }

func (a snapshotCheckpointer) Checkpoint() (Digest, StateHandle, error) {
	snap, err := a.Snapshot()
	if err != nil {
		return Digest{}, nil, err
	}
	return sha256.Sum256(snap), snapshotBytes(snap), nil
}

type snapshotBytes []byte

func (b snapshotBytes) Bytes() ([]byte, error) { return b, nil }
func (snapshotBytes) Release()                 {}

// Membership is one configuration epoch of the replica group: the ordered
// replica ids and their public keys.
type Membership struct {
	// Epoch numbers configurations; reconfigurations increment it.
	Epoch uint64
	// Replicas lists the member ids in canonical (sorted) order.
	Replicas []transport.NodeID
	// Keys holds each member's public key.
	Keys map[transport.NodeID]ed25519.PublicKey
}

// NewMembership builds an epoch-0 membership.
func NewMembership(replicas []transport.NodeID, keys map[transport.NodeID]ed25519.PublicKey) (*Membership, error) {
	if len(replicas) < 4 {
		return nil, fmt.Errorf("bft: %d replicas cannot tolerate any fault (need >= 4)", len(replicas))
	}
	m := &Membership{
		Replicas: append([]transport.NodeID(nil), replicas...),
		Keys:     make(map[transport.NodeID]ed25519.PublicKey, len(replicas)),
	}
	sort.Slice(m.Replicas, func(i, j int) bool { return m.Replicas[i] < m.Replicas[j] })
	for i := 1; i < len(m.Replicas); i++ {
		if m.Replicas[i] == m.Replicas[i-1] {
			return nil, fmt.Errorf("bft: duplicate replica %d", m.Replicas[i])
		}
	}
	for _, id := range m.Replicas {
		key, ok := keys[id]
		if !ok {
			return nil, fmt.Errorf("bft: no key for replica %d", id)
		}
		m.Keys[id] = key
	}
	return m, nil
}

// N returns the group size.
func (m *Membership) N() int { return len(m.Replicas) }

// F returns the fault threshold: the largest f with n >= 3f+1.
func (m *Membership) F() int { return (m.N() - 1) / 3 }

// Quorum returns the Byzantine quorum size: the smallest q where any
// two quorums intersect in at least f+1 replicas, q = ⌈(n+f+1)/2⌉. At
// the steady-state n=3f+1 this is the familiar 2f+1 — but the
// add-then-remove reconfiguration runs the group at n=3f+2 between the
// ADD and the REMOVE, where two 2f+1 quorums can intersect in a single,
// possibly Byzantine, replica. The chaos harness caught the fallout: a
// batch committed through one 3-of-5 quorum while a view change
// assembled from a disjoint-but-one 3-of-5 quorum saw no prepared
// certificate for it and nulled out an executed sequence number.
func (m *Membership) Quorum() int { return quorumSize(m.N(), m.F()) }

// quorumSize is ⌈(n+f+1)/2⌉, the Byzantine quorum of n replicas.
func quorumSize(n, f int) int { return (n + f + 2) / 2 }

// Contains reports whether the id is a member.
func (m *Membership) Contains(id transport.NodeID) bool {
	for _, r := range m.Replicas {
		if r == id {
			return true
		}
	}
	return false
}

// Primary returns the primary of a view: the view-th member, round-robin.
func (m *Membership) Primary(view uint64) transport.NodeID {
	return m.Replicas[int(view%uint64(len(m.Replicas)))]
}

// Clone deep-copies the membership.
func (m *Membership) Clone() *Membership {
	out := &Membership{
		Epoch:    m.Epoch,
		Replicas: append([]transport.NodeID(nil), m.Replicas...),
		Keys:     make(map[transport.NodeID]ed25519.PublicKey, len(m.Keys)),
	}
	for id, k := range m.Keys {
		out.Keys[id] = k
	}
	return out
}

// WithAdded returns a new membership with the replica added and the epoch
// advanced.
func (m *Membership) WithAdded(id transport.NodeID, key ed25519.PublicKey) (*Membership, error) {
	if m.Contains(id) {
		return nil, fmt.Errorf("replica %d: %w", id, ErrAlreadyMember)
	}
	out := m.Clone()
	out.Epoch++
	out.Replicas = append(out.Replicas, id)
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i] < out.Replicas[j] })
	out.Keys[id] = key
	return out, nil
}

// WithRemoved returns a new membership with the replica removed and the
// epoch advanced.
func (m *Membership) WithRemoved(id transport.NodeID) (*Membership, error) {
	if !m.Contains(id) {
		return nil, fmt.Errorf("replica %d: %w", id, ErrNotMember)
	}
	if m.N() <= 4 {
		return nil, fmt.Errorf("removing replica %d would leave %d replicas: %w", id, m.N()-1, ErrGroupTooSmall)
	}
	out := m.Clone()
	out.Epoch++
	for i, r := range out.Replicas {
		if r == id {
			out.Replicas = append(out.Replicas[:i], out.Replicas[i+1:]...)
			break
		}
	}
	delete(out.Keys, id)
	return out, nil
}

// Digest hashes the membership (epoch, ids, keys) for state agreement.
func (m *Membership) Digest() Digest {
	h := sha256.New()
	fmt.Fprintf(h, "epoch|%d|", m.Epoch)
	for _, id := range m.Replicas {
		fmt.Fprintf(h, "%d|", id)
		h.Write(m.Keys[id])
	}
	var out Digest
	h.Sum(out[:0])
	return out
}
