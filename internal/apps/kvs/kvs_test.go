package kvs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/bft/bfttest"
	"lazarus/internal/transport"
)

func TestExecuteSemantics(t *testing.T) {
	s := New()
	put := func(k, v string) []byte {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: k, Value: []byte(v)})
		return s.Execute(op)
	}
	get := func(k string) []byte {
		op, _ := EncodeOp(Op{Kind: OpGet, Key: k})
		return s.Execute(op)
	}
	if got := put("a", "1"); string(got) != "OK" {
		t.Errorf("put = %q", got)
	}
	if got := get("a"); string(got) != "VAL1" {
		t.Errorf("get = %q", got)
	}
	if got := get("missing"); string(got) != "NIL" {
		t.Errorf("get missing = %q", got)
	}
	del, _ := EncodeOp(Op{Kind: OpDelete, Key: "a"})
	if got := s.Execute(del); string(got) != "OK" {
		t.Errorf("delete = %q", got)
	}
	if got := s.Execute(del); string(got) != "NIL" {
		t.Errorf("re-delete = %q", got)
	}
	size, _ := EncodeOp(Op{Kind: OpSize})
	if got := s.Execute(size); string(got) != "SIZE 0" {
		t.Errorf("size = %q", got)
	}
	if got := s.Execute([]byte("junk")); !bytes.HasPrefix(got, []byte("ERR")) {
		t.Errorf("junk op = %q", got)
	}
	bad, _ := EncodeOp(Op{Kind: 99})
	if got := s.Execute(bad); !bytes.HasPrefix(got, []byte("ERR")) {
		t.Errorf("unknown op = %q", got)
	}
}

// TestQueryAnswersAsExecute: GET and SIZE, and only they, are read-only,
// and Query answers them as Execute would without changing the state.
func TestQueryAnswersAsExecute(t *testing.T) {
	s := New()
	enc := func(kind OpKind, k, v string) []byte {
		op, _ := EncodeOp(Op{Kind: kind, Key: k, Value: []byte(v)})
		return op
	}
	s.Execute(enc(OpPut, "a", "1"))
	reads := [][]byte{enc(OpGet, "a", ""), enc(OpGet, "missing", ""), enc(OpSize, "", ""), {byte(OpGet), 0xff}}
	for _, op := range reads {
		if !s.ReadOnly(op) {
			t.Errorf("%x is not read-only", op)
		}
		before, _ := s.Snapshot()
		if q, e := s.Query(op), s.Execute(op); !bytes.Equal(q, e) {
			t.Errorf("%x: Query %q, Execute %q", op, q, e)
		}
		if after, _ := s.Snapshot(); !bytes.Equal(before, after) {
			t.Errorf("%x changed the state", op)
		}
	}
	for _, op := range [][]byte{enc(OpPut, "a", "2"), enc(OpDelete, "a", ""), {99}, nil} {
		if s.ReadOnly(op) {
			t.Errorf("%x is read-only", op)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}})
		s.Execute(op)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 50 {
		t.Fatalf("restored %d keys, want 50", restored.Len())
	}
	v, ok := restored.Get("k7")
	if !ok || !bytes.Equal(v, []byte{7}) {
		t.Errorf("restored k7 = %v %v", v, ok)
	}
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Two stores with the same contents inserted in different orders must
	// snapshot to identical bytes (checkpoint agreement hashes them).
	a, b := New(), New()
	keys := []string{"zebra", "alpha", "mid", "q"}
	for _, k := range keys {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: k, Value: []byte(k)})
		a.Execute(op)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: keys[i], Value: []byte(keys[i])})
		b.Execute(op)
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Error("snapshot bytes depend on insertion order")
	}
}

// TestOpCodecProperty round-trips random ops.
func TestOpCodecProperty(t *testing.T) {
	f := func(kind uint8, key string, value []byte) bool {
		op := Op{Kind: OpKind(kind%4 + 1), Key: key, Value: value}
		payload, err := EncodeOp(op)
		if err != nil {
			return false
		}
		got, err := DecodeOp(payload)
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Key == op.Key && bytes.Equal(got.Value, op.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestDecodeOpHostileInputs: an operation is input from a client, so every
// malformed layout must come back as an error, never a panic or a key
// that reaches past the payload.
func TestDecodeOpHostileInputs(t *testing.T) {
	valid, _ := EncodeOp(Op{Kind: OpPut, Key: "key", Value: []byte("value")})
	for name, payload := range map[string][]byte{
		"empty":                  nil,
		"kind only":              {byte(OpGet)},
		"unterminated varint":    {byte(OpPut), 0x80, 0x80},
		"varint overflow":        append([]byte{byte(OpPut)}, bytes.Repeat([]byte{0xff}, 11)...),
		"key longer than rest":   {byte(OpPut), 5, 'a', 'b'},
		"key length near 2^64":   {byte(OpPut), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'k'},
		"truncated inside a key": valid[:3],
	} {
		if op, err := DecodeOp(payload); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, op)
		}
		if got := New().Execute(payload); !bytes.HasPrefix(got, []byte("ERR")) {
			t.Errorf("%s: Execute = %q, want ERR", name, got)
		}
	}
	// Cutting a valid payload anywhere past the key only shortens the value.
	for cut := 5; cut <= len(valid); cut++ {
		op, err := DecodeOp(valid[:cut])
		if err != nil || op.Key != "key" || !bytes.Equal(op.Value, []byte("value")[:cut-5]) {
			t.Errorf("cut at %d: %+v, %v", cut, op, err)
		}
	}
}

// TestRestoreHostileInputs: a snapshot is input from other replicas.
func TestRestoreHostileInputs(t *testing.T) {
	seed := New()
	for _, k := range []string{"a", "b", "c"} {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: k, Value: []byte("v-" + k)})
		seed.Execute(op)
	}
	valid, _ := seed.Snapshot()
	entry := func(k, v string) []byte {
		return append(append([]byte{byte(len(k))}, k...), append([]byte{byte(len(v))}, v...)...)
	}
	cases := map[string][]byte{
		"empty":                  nil,
		"count without entries":  {200},
		"huge count":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"value longer than rest": {1, 1, 'k', 9, 'v'},
		"trailing bytes":         append(append([]byte(nil), valid...), 0),
		"keys out of order":      append(append([]byte{2}, entry("b", "1")...), entry("a", "2")...),
		"duplicate key":          append(append([]byte{2}, entry("a", "1")...), entry("a", "2")...),
	}
	for cut := 1; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	before, _, _ := seed.Checkpoint()
	for name, snap := range cases {
		if err := seed.Restore(snap); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if after, _, _ := seed.Checkpoint(); after != before || seed.Len() != 3 {
		t.Error("a rejected snapshot changed the store")
	}
}

// history is a random sequence of writes over a small key space, so that
// overwrites and deletes of live keys are common.
type history []Op

func (history) Generate(r *rand.Rand, size int) reflect.Value {
	h := make(history, r.Intn(4*size+1))
	for i := range h {
		h[i] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d", r.Intn(size+1))}
		if r.Intn(4) == 0 {
			h[i].Kind = OpDelete
		} else {
			h[i].Value = make([]byte, r.Intn(40))
			r.Read(h[i].Value)
		}
	}
	return reflect.ValueOf(h)
}

func (h history) apply(s *Store) {
	for _, op := range h {
		payload, _ := EncodeOp(op)
		s.Execute(payload)
	}
}

func mustCheckpoint(t *testing.T, s *Store) (bft.Digest, bft.StateHandle) {
	t.Helper()
	d, h, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return d, h
}

// TestCheckpointProperty pins the Checkpointer contract on random
// histories: the digest is a function of the contents only, a store
// restored from a handle's bytes has the digest the handle was taken
// with, and a handle's bytes are those of the moment it was taken
// whatever is written, deleted, checkpointed, released or restored
// afterwards — with two handles live at once.
func TestCheckpointProperty(t *testing.T) {
	check := func(first, second, third history, releaseOlderFirst bool) bool {
		s := New()
		first.apply(s)
		want1, _ := s.Snapshot()
		d1, h1 := mustCheckpoint(t, s)
		second.apply(s)
		want2, _ := s.Snapshot()
		d2, h2 := mustCheckpoint(t, s)
		third.apply(s)

		same := func(h bft.StateHandle, want []byte) bool {
			got, err := h.Bytes()
			return err == nil && bytes.Equal(got, want)
		}
		if !same(h1, want1) || !same(h2, want2) {
			t.Log("a handle's bytes moved with later writes")
			return false
		}

		// Contents only: the same map reached by plain Puts in reverse key
		// order, over keys that were first put and deleted again.
		rebuilt := New()
		third.apply(rebuilt)
		for k := range rebuilt.data {
			del, _ := EncodeOp(Op{Kind: OpDelete, Key: k})
			rebuilt.Execute(del)
		}
		var keys []string
		for k := range s.data {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		for _, k := range keys {
			put, _ := EncodeOp(Op{Kind: OpPut, Key: k, Value: value(s.data[k])})
			rebuilt.Execute(put)
		}
		d3, h3 := mustCheckpoint(t, s)
		h3.Release()
		if dr, _ := mustCheckpoint(t, rebuilt); dr != d3 {
			t.Log("two histories reaching one map digest differently")
			return false
		}

		// Restored from a handle's bytes: the handle's digest.
		for _, at := range []struct {
			h bft.StateHandle
			d bft.Digest
		}{{h1, d1}, {h2, d2}} {
			snap, _ := at.h.Bytes()
			restored := New()
			if err := restored.Restore(snap); err != nil {
				t.Log(err)
				return false
			}
			if d, _ := mustCheckpoint(t, restored); d != at.d {
				t.Log("restored store digests differently from the checkpoint it came from")
				return false
			}
		}

		// Releasing one handle leaves the other whole, in either order,
		// and a Restore under a live handle does not reach it.
		older, newer, newerWant := h1, h2, want2
		if !releaseOlderFirst {
			older, newer, newerWant = h2, h1, want1
		}
		older.Release()
		first.apply(s)
		if !same(newer, newerWant) {
			t.Log("releasing one handle damaged the other")
			return false
		}
		empty, _ := New().Snapshot()
		if err := s.Restore(empty); err != nil {
			t.Log(err)
			return false
		}
		third.apply(s)
		if !same(newer, newerWant) {
			t.Log("Restore reached a handle taken before it")
			return false
		}
		newer.Release()
		if _, err := newer.Bytes(); err == nil {
			t.Log("released handle still serves bytes")
			return false
		}
		return s.newest == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestStoreConcurrentReaders: the replica's event loop owns Execute,
// Checkpoint and the handles, but monitoring and the benchmark's output
// check read the store from other goroutines while it runs. Run with
// -race.
func TestStoreConcurrentReaders(t *testing.T) {
	s := New()
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Snapshot(); err != nil {
					t.Error(err)
				}
				s.Len()
				s.Get("k1")
			}
		}()
	}
	var held []bft.StateHandle
	for i := 0; i < 2000; i++ {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i%50), Value: []byte{byte(i)}})
		s.Execute(op)
		if i%100 == 99 {
			_, h := mustCheckpoint(t, s)
			held = append(held, h)
			if _, err := held[0].Bytes(); err != nil {
				t.Error(err)
			}
			if len(held) > 2 {
				held[0].Release()
				held = held[1:]
			}
		}
	}
	close(done)
	readers.Wait()
}

// TestReplicatedKVS runs the store over a real 4-replica BFT cluster.
func TestReplicatedKVS(t *testing.T) {
	cluster, err := bfttest.Launch(
		func(transport.NodeID) bft.Application { return New() },
		bfttest.Options{CheckpointInterval: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	cl, err := cluster.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		op, _ := EncodeOp(Op{Kind: OpPut, Key: fmt.Sprintf("key%d", i), Value: []byte(fmt.Sprintf("val%d", i))})
		res, err := cl.Invoke(ctx, op)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if string(res) != "OK" {
			t.Fatalf("put %d = %q", i, res)
		}
	}
	op, _ := EncodeOp(Op{Kind: OpGet, Key: "key7"})
	res, err := cl.Invoke(ctx, op)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "VALval7" {
		t.Fatalf("replicated get = %q", res)
	}
	// All replicas converge.
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, app := range cluster.Apps {
			if app.(*Store).Len() != 10 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
