// Package kvs is the in-memory BFT key-value store used throughout the
// paper's performance evaluation (§7.3–7.4): a consistent non-relational
// database in the style of a coordination service, replicated with the
// BFT library. Operations are serialized commands (PUT/GET/DELETE/SIZE)
// executed deterministically on every replica.
package kvs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"lazarus/internal/bft"
)

// OpKind enumerates store operations.
type OpKind byte

// Operations.
const (
	OpPut OpKind = iota + 1
	OpGet
	OpDelete
	OpSize
)

// Op is one key-value command.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// EncodeOp serializes a command for Client.Invoke: the kind byte, the
// key length as a uvarint, the key, then the value up to the end of the
// payload. The error is always nil; callers predate the fixed layout.
func EncodeOp(op Op) ([]byte, error) {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(op.Key)+len(op.Value))
	buf = append(buf, byte(op.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
	buf = append(buf, op.Key...)
	return append(buf, op.Value...), nil
}

// DecodeOp parses a command. The returned Value aliases payload.
func DecodeOp(payload []byte) (Op, error) {
	if len(payload) == 0 {
		return Op{}, errors.New("kvs: decoding op: empty payload")
	}
	keyLen, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return Op{}, errors.New("kvs: decoding op: bad key length")
	}
	rest := payload[1+n:]
	if keyLen > uint64(len(rest)) {
		return Op{}, fmt.Errorf("kvs: decoding op: key length %d exceeds the %d bytes left", keyLen, len(rest))
	}
	return Op{Kind: OpKind(payload[0]), Key: string(rest[:keyLen]), Value: rest[keyLen:]}, nil
}

// Store is the replicated state machine. It implements bft.Application
// and bft.Checkpointer: beside the data it keeps a digest index updated
// by every write, so a checkpoint costs what was written since the last
// one (see checkpoint.go).
type Store struct {
	mu sync.RWMutex
	// data maps each key to its GET answer, valTag followed by the value
	// (see answer), so that a read returns it without copying.
	data map[string][]byte
	idx  index
	// newest is the most recent live checkpoint handle; writes log into
	// it what they overwrite.
	newest *handle
}

// valTag opens a GET's answer to a key that holds a value.
const valTag = "VAL"

// answer makes a key's stored entry: valTag and a copy of v, in one
// exactly sized buffer so that appending to an answer reallocates.
func answer(v []byte) []byte {
	a := make([]byte, len(valTag)+len(v))
	copy(a, valTag)
	copy(a[len(valTag):], v)
	return a
}

// value is the value a stored entry holds.
func value(entry []byte) []byte { return entry[len(valTag):] }

// New returns an empty store.
func New() *Store {
	s := &Store{data: make(map[string][]byte)}
	s.idx.reset()
	return s
}

var (
	_ bft.Checkpointer = (*Store)(nil)
	_ bft.Querier      = (*Store)(nil)
)

// ReadOnly implements bft.Querier: GET and SIZE change nothing, so
// replicas answer them without ordering them.
func (s *Store) ReadOnly(payload []byte) bool {
	return len(payload) > 0 && (OpKind(payload[0]) == OpGet || OpKind(payload[0]) == OpSize)
}

// Query implements bft.Querier: it answers a GET or SIZE as Execute
// would, under the read lock.
func (s *Store) Query(payload []byte) []byte {
	op, err := DecodeOp(payload)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.read(op)
}

// read answers a GET or SIZE; the caller holds the lock. A GET's answer
// is the stored entry itself, which nothing modifies in place.
func (s *Store) read(op Op) []byte {
	if op.Kind == OpSize {
		return []byte(fmt.Sprintf("SIZE %d", len(s.data)))
	}
	e, ok := s.data[op.Key]
	if !ok {
		return []byte("NIL")
	}
	return e
}

// Execute implements bft.Application.
func (s *Store) Execute(payload []byte) []byte {
	op, err := DecodeOp(payload)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Kind {
	case OpPut:
		// Stored entries are never modified in place: handles, undo
		// records and GET answers share them.
		e := answer(op.Value)
		old, had := s.data[op.Key]
		s.remember(op.Key, old, had)
		s.data[op.Key] = e
		s.idx.put(op.Key, value(e))
		return []byte("OK")
	case OpGet, OpSize:
		return s.read(op)
	case OpDelete:
		old, had := s.data[op.Key]
		if !had {
			return []byte("NIL")
		}
		s.remember(op.Key, old, true)
		delete(s.data, op.Key)
		s.idx.remove(op.Key)
		return []byte("OK")
	default:
		return []byte(fmt.Sprintf("ERR unknown op %d", op.Kind))
	}
}

// Len returns the number of keys (local inspection, not replicated).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Get reads a key locally (not replicated; tests and monitoring).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), value(e)...), true
}
