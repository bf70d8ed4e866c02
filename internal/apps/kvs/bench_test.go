package kvs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lazarus/internal/bft"
)

// The sizes the benchmark's workloads and the paper's Figure 9 span:
// kvs-4k-tcp, kvs-small-mem, and a store a hundred times larger.
var benchSizes = []struct{ entries, value int }{
	{1000, 4096},
	{1000, 64},
	{100000, 64},
}

// ckptWrites is what a replica executes between two checkpoints at the
// default CheckpointInterval.
const ckptWrites = 128

var (
	sinkBytes  []byte
	sinkDigest bft.Digest
)

// benchStore returns a preloaded store and count Put payloads that
// overwrite keys drawn uniformly from it.
func benchStore(entries, value, count int) (*Store, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	put := func(key int) []byte {
		v := make([]byte, value)
		rng.Read(v)
		payload, _ := EncodeOp(Op{Kind: OpPut, Key: fmt.Sprintf("key-%07d", key), Value: v})
		return payload
	}
	s := New()
	for k := 0; k < entries; k++ {
		s.Execute(put(k))
	}
	puts := make([][]byte, count)
	for i := range puts {
		puts[i] = put(rng.Intn(entries))
	}
	return s, puts
}

// BenchmarkCheckpoint is one checkpoint interval as the store sees it:
// 128 writes, then Checkpoint, with the handle before the last released
// the way a replica releases it when the next checkpoint turns stable.
// ns/op is the whole interval, leaf hashes at Put included; lump-ns/op is
// the part that comes in one piece on the event loop (Release and
// Checkpoint), which is what a request queued behind it waits for.
func BenchmarkCheckpoint(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dx%dB", size.entries, size.value), func(b *testing.B) {
			s, puts := benchStore(size.entries, size.value, ckptWrites)
			var held [2]bft.StateHandle
			var lump time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range puts {
					s.Execute(p)
				}
				start := time.Now()
				if h := held[i%2]; h != nil {
					h.Release()
				}
				sinkDigest, held[i%2], _ = s.Checkpoint()
				lump += time.Since(start)
			}
			b.ReportMetric(float64(lump.Nanoseconds())/float64(b.N), "lump-ns/op")
		})
	}
}

// BenchmarkSnapshot is what the same checkpoint costs an application that
// is not a Checkpointer (and what serving one state request costs).
func BenchmarkSnapshot(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("%dx%dB", size.entries, size.value), func(b *testing.B) {
			s, _ := benchStore(size.entries, size.value, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBytes, _ = s.Snapshot()
			}
		})
	}
}

// BenchmarkExecutePut is one ordered Put: decode, leaf hash, index.
func BenchmarkExecutePut(b *testing.B) {
	for _, value := range []int{64, 4096} {
		b.Run(fmt.Sprintf("%dB", value), func(b *testing.B) {
			s, puts := benchStore(1000, value, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBytes = s.Execute(puts[i%len(puts)])
			}
		})
	}
}
