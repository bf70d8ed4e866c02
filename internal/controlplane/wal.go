// Write-ahead control-plane store (ROADMAP "replicated, restartable
// control plane", first half): everything a recovering controller needs
// to re-adopt a running data plane lives in an append-only record log —
// the census (lifecycle sets, node map, rng position, LTU sequence), the
// membership epoch, the bounded swap history, and every swap stage
// transition. Stage records follow the intent/outcome protocol: the
// intent is appended (and synced) BEFORE the side effect runs, the
// outcome after, so a crash between any two lines of the swap engine
// leaves evidence that bounds what the cluster state can be. Recovery
// (recover.go) replays the log and probes the live cluster to resolve
// the one remaining ambiguity — intent logged, outcome unknown.
//
// The store is dependency-free by design: records are length-prefixed,
// CRC-checksummed JSON. MemWAL backs tests; FileWAL backs lazbench and
// tolerates a torn tail (a record half-written at crash time is
// discarded on open, never half-applied).
package controlplane

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"lazarus/internal/transport"
)

// WALKind discriminates record types in the control-plane log.
type WALKind string

// Record kinds, in rough lifecycle order.
const (
	// WALBootstrap is written once per log: the controller identity
	// (signing key) and static shape (N). Everything else can change;
	// this cannot.
	WALBootstrap WALKind = "bootstrap"
	// WALMembership records the replica group after a committed change:
	// epoch, member node IDs, and each member's public key.
	WALMembership WALKind = "membership"
	// WALCensus snapshots the control plane between swaps: monitor
	// lifecycle sets, threshold, OS→node map, next node ID, LTU command
	// sequence, and the rng draw count (for deterministic replay).
	WALCensus WALKind = "census"
	// WALSwapBegin opens a swap: which OS leaves, which joins, on which
	// nodes.
	WALSwapBegin WALKind = "swap-begin"
	// WALStageIntent is appended before a stage's side effect runs.
	WALStageIntent WALKind = "stage-intent"
	// WALStageOutcome is appended after the stage settles (ok or err).
	WALStageOutcome WALKind = "stage-outcome"
	// WALSwapEnd closes a swap with its full SwapRecord.
	WALSwapEnd WALKind = "swap-end"
	// WALRecover marks a controller generation change: a new process
	// adopted the log. Generation N's client identity derives from it.
	WALRecover WALKind = "recover"
)

// WALRecord is one entry of the control-plane log. It is a flat union:
// Kind says which fields are meaningful. Flat JSON keeps the codec
// trivial and the log greppable.
type WALRecord struct {
	Kind WALKind `json:"kind"`

	// bootstrap
	CtrlKey []byte `json:"ctrl_key,omitempty"` // ed25519 private key
	N       int    `json:"n,omitempty"`

	// recover
	Generation int `json:"generation,omitempty"`

	// membership
	Epoch      uint64                      `json:"epoch,omitempty"`
	Members    []transport.NodeID          `json:"members,omitempty"`
	MemberKeys map[transport.NodeID][]byte `json:"member_keys,omitempty"`

	// census
	Config     []string                    `json:"config,omitempty"`
	Pool       []string                    `json:"pool,omitempty"`
	Quarantine []string                    `json:"quarantine,omitempty"`
	Threshold  float64                     `json:"threshold,omitempty"`
	OSNodes    map[string]transport.NodeID `json:"os_nodes,omitempty"`
	NextNode   transport.NodeID            `json:"next_node,omitempty"`
	LTUSeq     uint64                      `json:"ltu_seq,omitempty"`
	RandDraws  uint64                      `json:"rand_draws,omitempty"`
	Stats      *SwapStats                  `json:"stats,omitempty"`

	// swap-begin / stage records
	SwapID    uint64           `json:"swap_id,omitempty"`
	RemovedOS string           `json:"removed_os,omitempty"`
	AddedOS   string           `json:"added_os,omitempty"`
	OldNode   transport.NodeID `json:"old_node,omitempty"`
	NewNode   transport.NodeID `json:"new_node,omitempty"`
	Stage     SwapStage        `json:"stage,omitempty"`
	// Compensating marks stage records issued by the compensation path
	// (its REMOVE targets the joiner, not the quarantined replica), so
	// resume can tell a forward REMOVE from a rollback REMOVE.
	Compensating bool   `json:"compensating,omitempty"`
	OK           bool   `json:"ok,omitempty"`
	Err          string `json:"err,omitempty"`

	// swap-end
	Swap *SwapRecord `json:"swap,omitempty"`
}

// WAL is the append-only control-plane store. Append must be atomic with
// respect to Replay: a record is either fully visible to a later replay
// or not at all (FileWAL discards a torn tail on open). Implementations
// must be safe for concurrent use.
type WAL interface {
	// Append adds a record to the log. Durability is implementation-
	// defined (MemWAL: immediate; FileWAL: written immediately, fsynced
	// asynchronously — call Sync for a hard barrier).
	Append(rec WALRecord) error
	// Replay streams every record, oldest first. Stops early if fn
	// returns an error.
	Replay(fn func(rec WALRecord) error) error
	// Sync blocks until all appended records are durable.
	Sync() error
	// Close releases resources. Append after Close errors.
	Close() error
}

// ---------------------------------------------------------------------
// MemWAL

// MemWAL is the in-memory WAL used by tests and by controllers that opt
// out of file durability: it preserves the record protocol (so recovery
// logic is exercised identically) without touching disk.
type MemWAL struct {
	mu     sync.Mutex
	recs   []WALRecord
	closed bool
}

// NewMemWAL returns an empty in-memory log.
func NewMemWAL() *MemWAL { return &MemWAL{} }

// Append implements WAL.
func (w *MemWAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("controlplane: append to closed WAL")
	}
	// Deep-copy through the codec so a caller mutating maps/slices after
	// Append cannot retroactively edit history (file semantics).
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("controlplane: encoding WAL record: %w", err)
	}
	var cp WALRecord
	if err := json.Unmarshal(buf, &cp); err != nil {
		return fmt.Errorf("controlplane: re-decoding WAL record: %w", err)
	}
	w.recs = append(w.recs, cp)
	return nil
}

// Replay implements WAL.
func (w *MemWAL) Replay(fn func(rec WALRecord) error) error {
	w.mu.Lock()
	recs := append([]WALRecord(nil), w.recs...)
	w.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Sync implements WAL (memory is always "durable").
func (w *MemWAL) Sync() error { return nil }

// Close implements WAL. The records stay readable: a recovering
// controller replays the same MemWAL object its predecessor wrote.
func (w *MemWAL) Close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	return nil
}

// Reopen makes a closed MemWAL appendable again, modeling a recovering
// controller reopening its predecessor's log file.
func (w *MemWAL) Reopen() {
	w.mu.Lock()
	w.closed = false
	w.mu.Unlock()
}

// ---------------------------------------------------------------------
// FileWAL

// Framing: every record is [4-byte little-endian length][4-byte IEEE
// CRC32 of the payload][JSON payload]. A record whose length field,
// payload, or checksum is incomplete/wrong is a torn tail: everything
// before it is the log, it and everything after are discarded.
const walHeaderSize = 8

// walMaxRecord caps a single record's decoded size; a length field above
// this is treated as corruption, not an allocation request.
const walMaxRecord = 16 << 20

// FileWAL is the file-backed WAL for lazbench and real deployments.
// Appends write through to the OS immediately and an fsync worker makes
// them durable asynchronously; Sync() is the synchronous barrier (the
// swap engine uses it before every side effect).
type FileWAL struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool

	// The fsync worker drains kicks until Close closes the channel; wg
	// ties its lifetime to the FileWAL.
	kick chan struct{}
	wg   sync.WaitGroup
}

// OpenFileWAL opens (or creates) the log at path, scans it, and truncates
// any torn tail so the file ends on a record boundary.
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controlplane: opening WAL %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("controlplane: reading WAL %s: %w", path, err)
	}
	valid := validWALPrefix(data)
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("controlplane: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w := &FileWAL{f: f, path: path, kick: make(chan struct{}, 1)}
	w.wg.Add(1)
	go w.syncLoop()
	return w, nil
}

// validWALPrefix returns the byte length of the longest prefix of data
// that is a sequence of whole, checksum-valid records.
func validWALPrefix(data []byte) int64 {
	off := 0
	for off+walHeaderSize <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n <= 0 || n > walMaxRecord || off+walHeaderSize+n > len(data) {
			break
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		off += walHeaderSize + n
	}
	return int64(off)
}

// syncLoop is the fsync worker: it coalesces kicks (many appends, one
// fsync) and exits when Close closes the kick channel.
func (w *FileWAL) syncLoop() {
	defer w.wg.Done()
	for range w.kick {
		w.mu.Lock()
		if !w.closed {
			w.f.Sync()
		}
		w.mu.Unlock()
	}
}

// Append implements WAL: the record hits the OS before Append returns;
// durability follows via the fsync worker (or an explicit Sync).
func (w *FileWAL) Append(rec WALRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("controlplane: encoding WAL record: %w", err)
	}
	frame := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderSize:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("controlplane: append to closed WAL")
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("controlplane: writing WAL record: %w", err)
	}
	select {
	case w.kick <- struct{}{}:
	default: // a sync is already pending; it will cover this record
	}
	return nil
}

// Replay implements WAL: it reads the file from the start with an
// independent handle, so replaying a live log is safe. A torn tail (from
// a crash after this WAL was opened) ends the replay silently, matching
// the open-time truncation semantics.
func (w *FileWAL) Replay(fn func(rec WALRecord) error) error {
	w.mu.Lock()
	path := w.path
	w.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("controlplane: replaying WAL %s: %w", path, err)
	}
	valid := validWALPrefix(data)
	off := int64(0)
	for off < valid {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		var rec WALRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("controlplane: decoding WAL record at offset %d: %w", off, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += walHeaderSize + n
	}
	return nil
}

// Sync implements WAL: a synchronous durability barrier.
func (w *FileWAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.f.Sync()
}

// Close implements WAL: final fsync, stop the worker, close the file.
func (w *FileWAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	close(w.kick)
	w.wg.Wait()
	return err
}
