package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: HDR-style base-2 buckets with subBucketBits
// bits of sub-bucket resolution. Values in [0, 2^subBucketBits) get an
// exact bucket each; above that, each power of two is split into
// 2^subBucketBits sub-buckets, giving a fixed relative error of at most
// 1/2^subBucketBits (25% with 2 bits — plenty for latency quantiles)
// while the whole int64 range fits in a fixed, bounded array. No
// allocation, no locking: every cell is an independent atomic.
const (
	subBucketBits = 2
	subBuckets    = 1 << subBucketBits
	numBuckets    = (62 + 1) * subBuckets // covers every positive int64
)

// Histogram records int64 observations (latencies in microseconds,
// sizes, lags) into bounded log-scaled buckets and reports count, sum,
// min, max and interpolated quantiles. Negative observations clamp to
// zero.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64
	max   atomic.Int64

	buckets [numBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// bucketIndex maps a non-negative value to its bucket.
// Timer starts a stopwatch and returns the function that stops it and
// observes the elapsed microseconds. The caller never sees a clock value,
// so code that must not branch on wall time (internal/bft) can still time
// itself.
func (h *Histogram) Timer() (stop func()) {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Microseconds()) }
}

func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBucketBits
	sub := int((v >> (uint(exp) - subBucketBits)) & (subBuckets - 1))
	return (exp+1-subBucketBits)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket i (the
// inverse of bucketIndex on bucket lower bounds).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	block := i / subBuckets // >= 1
	sub := int64(i % subBuckets)
	exp := uint(block + subBucketBits - 1)
	return int64(1)<<exp | sub<<(exp-subBucketBits)
}

// HistogramSnapshot is the exported summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot summarizes the histogram. Quantiles are estimated from the
// bucket midpoints and clamped to the observed min/max, so they are
// exact for small values and within the bucket's relative error above.
func (h *Histogram) Snapshot() HistogramSnapshot {
	count := h.count.Load()
	if count == 0 {
		return HistogramSnapshot{}
	}
	var counts [numBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	// A concurrent Observe may have bumped count before its bucket; use
	// what the buckets actually hold as the quantile population.
	if total == 0 {
		return HistogramSnapshot{}
	}
	min, max := h.min.Load(), h.max.Load()
	snap := HistogramSnapshot{
		Count: count,
		Sum:   h.sum.Load(),
		Min:   min,
		Max:   max,
	}
	snap.Mean = float64(snap.Sum) / float64(count)
	q := func(p float64) int64 {
		rank := int64(p * float64(total-1))
		var seen int64
		for i := range counts {
			if counts[i] == 0 {
				continue
			}
			seen += counts[i]
			if seen > rank {
				lo := bucketLow(i)
				hi := max
				if i+1 < numBuckets {
					hi = bucketLow(i + 1)
				}
				mid := lo + (hi-lo)/2
				if mid < min {
					mid = min
				}
				if mid > max {
					mid = max
				}
				return mid
			}
		}
		return max
	}
	snap.P50, snap.P95, snap.P99 = q(0.50), q(0.95), q(0.99)
	return snap
}
