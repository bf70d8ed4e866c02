package kvs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"lazarus/internal/bft"
)

// The state digest is a two-level hash tree over the entries. Every entry
// has a leaf, SHA-256(len(key) ‖ key ‖ value), computed when it is
// written. Entries are spread over a fixed number of buckets by the hash
// of their key; a bucket's digest is the SHA-256 of its leaves in sorted
// key order, and the root is the SHA-256 of all bucket digests. A write
// marks one bucket dirty and a checkpoint rehashes the dirty buckets and
// the root, so the digest is a function of the contents alone and costs
// what was written, not what is stored.

// fanout is the number of buckets. A checkpoint after w writes hashes
// about w·n/fanout leaves plus fanout bucket digests, which 4096 keeps
// near its minimum from a thousand to a million entries at the replica's
// 128 writes between checkpoints.
const fanout = 4096

type bucket struct {
	keys   []string
	leaves []byte // sha256.Size bytes per key, in the order of keys
	dirty  bool
}

// index is the digest side of the store. Store.mu guards it.
type index struct {
	buckets [fanout]bucket
	sums    [fanout * sha256.Size]byte // bucket digests, contiguous: the root is one hash call
	dirty   []uint16                   // buckets whose sum is stale
	root    bft.Digest
	rootOK  bool
	scratch []byte
}

func (x *index) reset() {
	empty := sha256.Sum256(nil)
	x.buckets = [fanout]bucket{}
	for b := 0; b < fanout; b++ {
		copy(x.sums[b*sha256.Size:], empty[:])
	}
	x.dirty, x.rootOK = x.dirty[:0], false
}

// place returns the bucket of key and the leaf of (key, value). The bucket
// comes from a SHA-256 of the key, so a client cannot aim its keys at one
// bucket and make every checkpoint rehash it.
func (x *index) place(key string, value []byte) (int, [sha256.Size]byte) {
	x.scratch = binary.AppendUvarint(x.scratch[:0], uint64(len(key)))
	x.scratch = append(x.scratch, key...)
	keySum := sha256.Sum256(x.scratch)
	x.scratch = append(x.scratch, value...)
	return int(binary.BigEndian.Uint16(keySum[:])) % fanout, sha256.Sum256(x.scratch)
}

func (x *index) touch(b int) {
	if bk := &x.buckets[b]; !bk.dirty {
		bk.dirty = true
		x.dirty = append(x.dirty, uint16(b))
	}
	x.rootOK = false
}

func (x *index) put(key string, value []byte) {
	b, leaf := x.place(key, value)
	bk := &x.buckets[b]
	i, found := slices.BinarySearch(bk.keys, key)
	if found {
		copy(bk.leaves[i*sha256.Size:], leaf[:])
	} else {
		bk.keys = slices.Insert(bk.keys, i, key)
		bk.leaves = slices.Insert(bk.leaves, i*sha256.Size, leaf[:]...)
	}
	x.touch(b)
}

func (x *index) remove(key string) {
	b, _ := x.place(key, nil)
	bk := &x.buckets[b]
	i, found := slices.BinarySearch(bk.keys, key)
	if !found {
		return
	}
	bk.keys = slices.Delete(bk.keys, i, i+1)
	bk.leaves = slices.Delete(bk.leaves, i*sha256.Size, (i+1)*sha256.Size)
	x.touch(b)
}

// digest brings the dirty buckets and the root up to date.
func (x *index) digest() bft.Digest {
	for _, b := range x.dirty {
		bk := &x.buckets[b]
		sum := sha256.Sum256(bk.leaves)
		copy(x.sums[int(b)*sha256.Size:], sum[:])
		bk.dirty = false
	}
	x.dirty = x.dirty[:0]
	if !x.rootOK {
		x.root, x.rootOK = sha256.Sum256(x.sums[:]), true
	}
	return x.root
}

// A handle is the store as it was when Checkpoint returned. Nothing is
// copied to make one: from then on a write that replaces or deletes a key
// for the first time since the newest live handle leaves that handle the
// old value (remember). Live handles form a list, oldest to newest; the
// state of a handle is the current map with the records of every handle
// from the newest back to it put back, older records winning. Releasing a
// handle hands its records to the next older one. What the handles retain
// is therefore at most the values overwritten since the oldest live one.
type handle struct {
	s            *Store
	older, newer *handle
	undo         map[string]undo
	// base, once set, is the map the records apply to in place of the
	// store's: Restore replaced the map these handles were taken on, and
	// nothing writes to the old one any more.
	base     map[string][]byte
	released bool
}

// undo is what a key held when a handle was taken: its stored entry.
type undo struct {
	entry []byte
	had   bool
}

// remember records, for the newest live handle, what key held before the
// write that is about to change it.
func (s *Store) remember(key string, old []byte, had bool) {
	h := s.newest
	if h == nil {
		return
	}
	if _, seen := h.undo[key]; seen {
		return
	}
	if h.undo == nil {
		h.undo = make(map[string]undo)
	}
	h.undo[key] = undo{old, had}
}

// Checkpoint implements bft.Checkpointer.
func (s *Store) Checkpoint() (bft.Digest, bft.StateHandle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := &handle{s: s, older: s.newest}
	if s.newest != nil {
		s.newest.newer = h
	}
	s.newest = h
	return s.idx.digest(), h, nil
}

// Bytes serializes the store as it was when the handle was taken, in the
// layout of Snapshot.
func (h *handle) Bytes() ([]byte, error) {
	h.s.mu.RLock()
	defer h.s.mu.RUnlock()
	if h.released {
		return nil, errors.New("kvs: checkpoint handle used after Release")
	}
	base := h.base
	if base == nil {
		base = h.s.data
	}
	last := h
	for last.newer != nil {
		last = last.newer
	}
	over := make(map[string]undo)
	for x := last; ; x = x.older {
		for k, u := range x.undo {
			over[k] = u
		}
		if x == h {
			break
		}
	}
	return encodeEntries(base, over), nil
}

// Release drops the handle. Idempotent.
func (h *handle) Release() {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	if o := h.older; o != nil {
		// A key o has no record of did not change between o and h, so
		// what h recorded for it is what o saw too.
		if o.undo == nil {
			o.undo = h.undo
		} else {
			for k, u := range h.undo {
				if _, seen := o.undo[k]; !seen {
					o.undo[k] = u
				}
			}
		}
		o.newer = h.newer
	}
	if h.newer != nil {
		h.newer.older = h.older
	}
	if s.newest == h {
		s.newest = h.older
	}
	h.older, h.newer, h.undo, h.base = nil, nil, nil, nil
}

// Snapshot implements bft.Application with a deterministic encoding:
// the number of entries, then for each entry in sorted key order the key
// and the value, each behind its length; all numbers are uvarints.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return encodeEntries(s.data, nil), nil
}

// encodeEntries serializes base with the records of over put back.
func encodeEntries(base map[string][]byte, over map[string]undo) []byte {
	keys := make([]string, 0, len(base)+len(over))
	size := binary.MaxVarintLen64
	for k, e := range base {
		if _, ok := over[k]; !ok {
			keys = append(keys, k)
			size += 2*binary.MaxVarintLen64 + len(k) + len(e)
		}
	}
	for k, u := range over {
		if u.had {
			keys = append(keys, k)
			size += 2*binary.MaxVarintLen64 + len(k) + len(u.entry)
		}
	}
	slices.Sort(keys)
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(keys)))
	for _, k := range keys {
		e := base[k]
		if u, ok := over[k]; ok {
			e = u.entry
		}
		v := value(e)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// Restore implements bft.Application. The snapshot is input from another
// replica: every length is checked against what is left, keys must be
// strictly increasing (so one state has one encoding), and nothing is
// replaced unless all of it parses. Handles taken before stay valid.
func (s *Store) Restore(snapshot []byte) error {
	rest := snapshot
	field := func() ([]byte, error) {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return nil, errors.New("kvs: restore: truncated snapshot")
		}
		f := rest[w : w+int(n)]
		rest = rest[w+int(n):]
		return f, nil
	}
	count, w := binary.Uvarint(rest)
	if w <= 0 || count > uint64(len(rest)-w)/2 { // an entry is two bytes or more
		return errors.New("kvs: restore: bad entry count")
	}
	rest = rest[w:]
	keys := make([]string, count)
	data := make(map[string][]byte, count)
	for i := range keys {
		k, err := field()
		if err != nil {
			return err
		}
		v, err := field()
		if err != nil {
			return err
		}
		keys[i] = string(k)
		if i > 0 && keys[i] <= keys[i-1] {
			return fmt.Errorf("kvs: restore: key %d out of order", i)
		}
		data[keys[i]] = answer(v)
	}
	if len(rest) != 0 {
		return fmt.Errorf("kvs: restore: %d bytes after the last entry", len(rest))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for h := s.newest; h != nil; h = h.older {
		h.base = s.data
	}
	s.newest = nil
	s.data = data
	s.idx.reset()
	for _, k := range keys { // sorted, so appending keeps every bucket sorted
		b, leaf := s.idx.place(k, value(data[k]))
		bk := &s.idx.buckets[b]
		bk.keys = append(bk.keys, k)
		bk.leaves = append(bk.leaves, leaf[:]...)
		s.idx.touch(b)
	}
	return nil
}
