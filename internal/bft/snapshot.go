package bft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"sort"

	"lazarus/internal/transport"
)

// replicaSnapshot is the serialized replica state shipped by state
// transfer: the application state plus the protocol metadata a joiner
// needs. Maps are flattened into sorted slices because f+1 copies must
// match byte for byte — the encoding must be deterministic across
// replicas. The view is deliberately NOT part of the snapshot: it is
// protocol-local, replicas at the same sequence number legitimately
// disagree about it mid-view-change, and including it made same-state
// checkpoints hash differently (blocking stability) while restoring it
// dragged recovering replicas back to stale views. A restored replica
// keeps its own view and re-synchronizes through the view-change
// protocol.
type replicaSnapshot struct {
	AppState []byte
	LastExec uint64
	Epoch    uint64
	Members  []memberEntry
	Clients  []clientEntry
}

type memberEntry struct {
	ID  transport.NodeID
	Key []byte
}

type clientEntry struct {
	ID      transport.NodeID
	LastSeq uint64
}

// Smallest encodings of the envelope's list entries (see wireReader.count).
const (
	minMemberWire = 8 + 4
	minClientWire = 8 + 8
)

// appendMeta appends the protocol metadata — lastExec ‖ epoch ‖ members ‖
// client table, every list behind its length — in the codec.go layout.
// It is the envelope's header and the part of it a checkpoint vote hashes.
func (s *replicaSnapshot) appendMeta(b []byte) []byte {
	b = appendU64(b, s.LastExec)
	b = appendU64(b, s.Epoch)
	b = appendU32(b, uint32(len(s.Members)))
	for _, m := range s.Members {
		b = appendBlob(appendU64(b, uint64(m.ID)), m.Key)
	}
	b = appendU32(b, uint32(len(s.Clients)))
	for _, c := range s.Clients {
		b = appendU64(appendU64(b, uint64(c.ID)), c.LastSeq)
	}
	return b
}

// encode serializes the envelope: the metadata, then the application
// state as a blob.
func (s *replicaSnapshot) encode() []byte {
	return appendBlob(s.appendMeta(nil), s.AppState)
}

// decodeSnapshot parses an envelope written by encode.
func decodeSnapshot(payload []byte) (replicaSnapshot, error) {
	r := wireReader{buf: payload, ok: true}
	s := replicaSnapshot{LastExec: r.u64(), Epoch: r.u64()}
	if n := r.count(minMemberWire); n > 0 {
		s.Members = make([]memberEntry, n)
		for i := 0; i < n && r.ok; i++ {
			s.Members[i] = memberEntry{ID: transport.NodeID(r.u64()), Key: r.blob()}
		}
	}
	if n := r.count(minClientWire); n > 0 {
		s.Clients = make([]clientEntry, n)
		for i := 0; i < n && r.ok; i++ {
			s.Clients[i] = clientEntry{ID: transport.NodeID(r.u64()), LastSeq: r.u64()}
		}
	}
	s.AppState = r.blob()
	if !r.done() {
		return replicaSnapshot{}, fmt.Errorf("malformed snapshot envelope (%d bytes)", len(payload))
	}
	return s, nil
}

// stateDigest is what a checkpoint vote attests to:
// H(app digest ‖ metadata). It is computed from the application's digest
// and the small protocol metadata, never from the serialized state, so
// taking a checkpoint does not serialize anything; a replica that restores
// a snapshot recomputes it from what it restored.
func stateDigest(app Digest, meta *replicaSnapshot) Digest {
	return sha256.Sum256(meta.appendMeta(app[:]))
}

// frozenState is the replica as of one sequence number: digest now, bytes
// later. The metadata is copied when the state is frozen (it is small);
// the application state stays behind its handle until a peer asks for it.
type frozenState struct {
	meta   replicaSnapshot // AppState stays empty
	digest Digest          // stateDigest: what this replica votes
	app    StateHandle
	// bytes is the encoded replicaSnapshot and sum its SHA-256, filled in
	// by the first state request and kept until the state is released.
	bytes []byte
	sum   Digest
}

// release hands the application its handle back. Nil-safe.
func (f *frozenState) release() {
	if f != nil && f.app != nil {
		f.app.Release()
		f.app = nil
	}
}

// freeze captures the current replica state.
func (r *Replica) freeze() (*frozenState, error) {
	appDigest, handle, err := r.app.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("bft: replica %d app checkpoint: %w", r.cfg.ID, err)
	}
	f := &frozenState{app: handle}
	f.meta.LastExec = r.lastExec
	f.meta.Epoch = r.membership.Epoch
	for _, id := range r.membership.Replicas { // already sorted
		f.meta.Members = append(f.meta.Members, memberEntry{
			ID:  id,
			Key: append([]byte(nil), r.membership.Keys[id]...),
		})
	}
	clientIDs := make([]transport.NodeID, 0, len(r.clients))
	for id := range r.clients {
		clientIDs = append(clientIDs, id)
	}
	sort.Slice(clientIDs, func(i, j int) bool { return clientIDs[i] < clientIDs[j] })
	for _, id := range clientIDs {
		f.meta.Clients = append(f.meta.Clients, clientEntry{ID: id, LastSeq: r.clients[id].lastSeq})
	}
	f.digest = stateDigest(appDigest, &f.meta)
	return f, nil
}

// stateReply builds the signed reply carrying f, serializing it on first
// use. StateDigest is the digest this replica voted (or would vote) for
// the state; the receiver checks what it restored against it.
func (r *Replica) stateReply(f *frozenState) (*Message, error) {
	if f.bytes == nil {
		appState, err := f.app.Bytes()
		if err != nil {
			return nil, fmt.Errorf("bft: replica %d app state at %d: %w", r.cfg.ID, f.meta.LastExec, err)
		}
		snap := f.meta
		snap.AppState = appState
		f.bytes = snap.encode()
		f.sum = sha256.Sum256(f.bytes)
		r.ins.snapshotsSerialised.Inc()
	}
	reply := &Message{
		Type:        MsgStateReply,
		SnapSeqNo:   f.meta.LastExec,
		Snapshot:    f.bytes,
		StateDigest: f.digest,
		snapSum:     f.sum,
		snapSumSet:  true,
	}
	reply.From = r.cfg.ID
	reply.Sign(r.cfg.Key)
	return reply, nil
}

// restoreSnapshot installs the state an f+1 group of replies vouched for.
// It is all-or-nothing: a snapshot that does not decode, carries a bogus
// membership, fails the application's Restore, or restores to a state
// whose digest is not the one its vouchers voted leaves the replica as it
// was.
func (r *Replica) restoreSnapshot(reply *Message) error {
	snap, err := decodeSnapshot(reply.Snapshot)
	if err != nil {
		return fmt.Errorf("bft: replica %d snapshot decode: %w", r.cfg.ID, err)
	}
	keys := make(map[transport.NodeID]ed25519.PublicKey, len(snap.Members))
	ids := make([]transport.NodeID, 0, len(snap.Members))
	for _, m := range snap.Members {
		keys[m.ID] = ed25519.PublicKey(m.Key)
		ids = append(ids, m.ID)
	}
	mem, err := NewMembership(ids, keys)
	if err != nil {
		return err
	}
	mem.Epoch = snap.Epoch

	// The application can only digest a state it holds, so the check
	// against the voted digest comes after Restore; before is the way
	// back if it fails.
	_, before, err := r.app.Checkpoint()
	if err != nil {
		return fmt.Errorf("bft: replica %d app checkpoint: %w", r.cfg.ID, err)
	}
	defer before.Release()
	appState := snap.AppState
	snap.AppState = nil
	if err := r.app.Restore(appState); err != nil {
		return fmt.Errorf("bft: replica %d app restore: %w", r.cfg.ID, err)
	}
	appDigest, after, err := r.app.Checkpoint()
	if err == nil && stateDigest(appDigest, &snap) != reply.StateDigest {
		after.Release()
		err = fmt.Errorf("restored state does not hash to %v, the digest its vouchers voted", reply.StateDigest)
	}
	if err != nil {
		old, rerr := before.Bytes()
		if rerr == nil {
			rerr = r.app.Restore(old)
		}
		if rerr != nil {
			r.cfg.Logf("replica %d: rolling back a rejected restore failed: %v", r.cfg.ID, rerr)
		}
		return fmt.Errorf("bft: replica %d restore at %d: %w", r.cfg.ID, snap.LastExec, err)
	}

	// What is still useful survives: instances above the restore point
	// that this replica accepted in the epoch it restored into keep their
	// pre-prepare and tallies — nobody will send those messages again —
	// and so do the checkpoint votes above it. A snapshot from another
	// epoch clears them all: the reconfiguration fence (applyReconfig)
	// requires every instance to be decided inside one epoch.
	sameEpoch := snap.Epoch == r.membership.Epoch
	for seq, in := range r.log {
		if seq <= snap.LastExec || !sameEpoch || in.executed {
			delete(r.log, seq)
		}
	}
	for seq, cs := range r.ckpts {
		if seq <= snap.LastExec || !sameEpoch {
			cs.snapshot.release()
			delete(r.ckpts, seq)
		}
	}
	if r.seq < snap.LastExec || !sameEpoch {
		r.seq = snap.LastExec
	}
	if !sameEpoch {
		r.commitMark = snap.LastExec
	}
	r.membership = mem
	r.lastExec = snap.LastExec
	r.lowWater = snap.LastExec
	r.ckptAhead = make(map[transport.NodeID]uint64)
	r.epochClaims = make(map[transport.NodeID]uint64)
	r.clients = make(map[transport.NodeID]*clientRecord)
	for _, ce := range snap.Clients {
		r.clients[ce.ID] = &clientRecord{lastSeq: ce.LastSeq}
	}
	r.lastSnap.release()
	r.lastSnap = &frozenState{
		meta: snap, digest: reply.StateDigest, app: after,
		bytes: reply.Snapshot, sum: reply.snapshotSum(),
	}
	r.serveReads()
	return nil
}
