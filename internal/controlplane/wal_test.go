package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lazarus/internal/transport"
)

func walTestRecords() []WALRecord {
	return []WALRecord{
		{Kind: WALBootstrap, CtrlKey: []byte("not-a-real-key"), N: 4},
		{Kind: WALMembership, Epoch: 1, Members: []transport.NodeID{0, 1, 2, 3},
			MemberKeys: map[transport.NodeID][]byte{0: []byte("k0"), 3: []byte("k3")}},
		{Kind: WALCensus, Config: []string{"a", "b"}, Pool: []string{"c"},
			Quarantine: []string{"d"}, Threshold: 12.5,
			OSNodes:  map[string]transport.NodeID{"a": 0, "b": 1},
			NextNode: 4, LTUSeq: 9, RandDraws: 42,
			Stats: &SwapStats{Attempts: 3, Successes: 2, StageFailures: map[SwapStage]uint64{StageCatchUp: 1}}},
		{Kind: WALSwapBegin, SwapID: 1, RemovedOS: "a", AddedOS: "c", OldNode: 0, NewNode: 4},
		{Kind: WALStageIntent, SwapID: 1, Stage: StageAdd},
		{Kind: WALStageOutcome, SwapID: 1, Stage: StageAdd, OK: true},
		{Kind: WALStageIntent, SwapID: 1, Stage: StageRemove, Compensating: true},
		{Kind: WALStageOutcome, SwapID: 1, Stage: StageRemove, Compensating: true, OK: false, Err: "boom"},
		{Kind: WALSwapEnd, SwapID: 1, Swap: &SwapRecord{Removed: "a", Added: "c", Outcome: SwapRolledBack, FailedStage: StageCatchUp, Err: "x"}},
		{Kind: WALRecover, Generation: 1},
	}
}

func replayAll(t *testing.T, w WAL) []WALRecord {
	t.Helper()
	var got []WALRecord
	if err := w.Replay(func(rec WALRecord) error { got = append(got, rec); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestMemWALRoundTrip(t *testing.T) {
	w := NewMemWAL()
	want := walTestRecords()
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, w)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Kind: WALRecover}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	// A closed MemWAL stays replayable (a recovering controller reads its
	// predecessor's log) and Reopen makes it appendable again.
	if n := len(replayAll(t, w)); n != len(want) {
		t.Fatalf("replay after close: %d records, want %d", n, len(want))
	}
	w.Reopen()
	if err := w.Append(WALRecord{Kind: WALRecover, Generation: 1}); err != nil {
		t.Fatalf("append after Reopen: %v", err)
	}
}

func TestFileWALRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := walTestRecords()
	for _, rec := range want[:6] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Replay of a live log sees everything appended so far.
	if got := replayAll(t, w); !reflect.DeepEqual(got, want[:6]) {
		t.Fatalf("live replay mismatch: %+v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and append the rest: the log concatenates across crashes.
	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for _, rec := range want[6:] {
		if err := w2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := replayAll(t, w2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFileWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walTestRecords()[:4]
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a half-written frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 11)
	binary.LittleEndian.PutUint32(torn, 4096) // length field promising more than exists
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("after torn tail: %d records, want %d intact", len(got), len(recs))
	}
	// The torn bytes are gone from disk and appends continue cleanly.
	if err := w2.Append(WALRecord{Kind: WALRecover, Generation: 1}); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, w2); len(got) != len(recs)+1 || got[len(got)-1].Kind != WALRecover {
		t.Fatalf("append after truncation: %+v", got)
	}
}

func TestFileWALRejectsCorruptChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crc.wal")
	w, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walTestRecords()[:3] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the middle record: that record and
	// everything after it must be discarded (checksum, not just length,
	// guards integrity).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int(binary.LittleEndian.Uint32(data))
	corruptAt := walHeaderSize + firstLen + walHeaderSize + 2 // inside record 2's payload
	data[corruptAt] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != 1 || got[0].Kind != WALBootstrap {
		t.Fatalf("after corruption: %+v, want only the first record", got)
	}
}

// FuzzFileWAL feeds arbitrary bytes to the log decoder as a WAL file.
// Opening and replaying must never panic. Opening keeps the longest
// prefix of whole, checksum-valid frames; replay yields records decoded
// from those frames only, in order; and reopening the truncated file
// changes neither the file nor what replay yields.
func FuzzFileWAL(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.wal")
	w, err := OpenFileWAL(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range walTestRecords() {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), whole...)
	corrupt[walHeaderSize+3] ^= 0xff
	f.Add(whole)
	f.Add(whole[:len(whole)-3])
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]byte, []WALRecord, error) {
			w, err := OpenFileWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			kept, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var recs []WALRecord
			err = w.Replay(func(rec WALRecord) error { recs = append(recs, rec); return nil })
			return kept, recs, err
		}
		kept, recs, err := open()
		if int64(len(kept)) != validWALPrefix(data) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("open kept %d bytes, want the %d-byte valid prefix", len(kept), validWALPrefix(data))
		}
		var payloads [][]byte
		for off := 0; off < len(kept); {
			n := int(binary.LittleEndian.Uint32(kept[off:]))
			end := off + walHeaderSize + n
			if end > len(kept) || crc32.ChecksumIEEE(kept[off+walHeaderSize:end]) != binary.LittleEndian.Uint32(kept[off+4:]) {
				t.Fatalf("open kept a torn or corrupt frame at offset %d", off)
			}
			payloads = append(payloads, kept[off+walHeaderSize:end])
			off = end
		}
		if len(recs) > len(payloads) {
			t.Fatalf("replay yielded %d records from %d frames", len(recs), len(payloads))
		}
		for i, rec := range recs {
			var want WALRecord
			if err := json.Unmarshal(payloads[i], &want); err != nil || !reflect.DeepEqual(rec, want) {
				t.Fatalf("record %d is not frame %d's payload: %+v", i, i, rec)
			}
		}
		again, recs2, err2 := open()
		if !bytes.Equal(again, kept) || !reflect.DeepEqual(recs2, recs) || (err == nil) != (err2 == nil) {
			t.Fatalf("reopening changed the log: %d -> %d bytes, %d -> %d records, %v -> %v",
				len(kept), len(again), len(recs), len(recs2), err, err2)
		}
	})
}
