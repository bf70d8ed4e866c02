package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryHandsOutWorkingInstruments(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(2)
	r.Histogram("x").Observe(3)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	if r.Names() != nil {
		t.Error("nil registry has names")
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, last)
		}
		if i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo := bucketLow(i); lo > v {
			t.Fatalf("bucketLow(%d) = %d > value %d", i, lo, v)
		}
		last = i
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// Uniform 1..1000: p50 ~ 500, p95 ~ 950, p99 ~ 990 within the 25%
	// relative bucket error.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if s.Mean < 500 || s.Mean > 501 {
		t.Errorf("mean = %f, want ~500.5", s.Mean)
	}
	within := func(got, want int64, rel float64) bool {
		d := float64(got) - float64(want)
		if d < 0 {
			d = -d
		}
		return d <= rel*float64(want)
	}
	if !within(s.P50, 500, 0.30) {
		t.Errorf("p50 = %d, want ~500", s.P50)
	}
	if !within(s.P95, 950, 0.30) {
		t.Errorf("p95 = %d, want ~950", s.P95)
	}
	if !within(s.P99, 990, 0.30) {
		t.Errorf("p99 = %d, want ~990", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: %d %d %d", s.P50, s.P95, s.P99)
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(2)
	}
	s := h.Snapshot()
	if s.P50 != 2 || s.P99 != 2 {
		t.Errorf("constant-2 histogram: p50=%d p99=%d", s.P50, s.P99)
	}
	if s.Min != 2 || s.Max != 2 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := newHistogram()
	h.Observe(-5)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Count != 1 {
		t.Errorf("negative observation: %+v", s)
	}
}

func TestHistogramZeroSampleSnapshot(t *testing.T) {
	h := newHistogram()
	snap := h.Snapshot()
	if snap != (HistogramSnapshot{}) {
		t.Errorf("empty histogram snapshot = %+v, want zero value", snap)
	}
	// In particular Min must read 0, not the internal MaxInt64 sentinel.
	if snap.Min != 0 {
		t.Errorf("empty histogram Min = %d, want 0", snap.Min)
	}
}

func TestHistogramSingleBucketSaturation(t *testing.T) {
	// Every observation identical: one bucket holds the entire
	// population and every quantile clamps exactly to that value, both
	// for an exact small-value bucket and a log bucket with sub-bucket
	// rounding.
	for _, v := range []int64{3, 1000} {
		h := newHistogram()
		const n = 10_000
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
		snap := h.Snapshot()
		if snap.Count != n || snap.Sum != n*v {
			t.Errorf("v=%d: count=%d sum=%d, want %d and %d", v, snap.Count, snap.Sum, n, int64(n*v))
		}
		if snap.Min != v || snap.Max != v {
			t.Errorf("v=%d: min=%d max=%d, want both %d", v, snap.Min, snap.Max, v)
		}
		for _, q := range []int64{snap.P50, snap.P95, snap.P99} {
			if q != v {
				t.Errorf("v=%d: quantile = %d, want exactly %d (midpoint must clamp to min/max)", v, q, v)
			}
		}
		var inBuckets, nonEmpty int64
		for i := range h.buckets {
			if c := h.buckets[i].Load(); c != 0 {
				inBuckets += c
				nonEmpty++
			}
		}
		if nonEmpty != 1 || inBuckets != n {
			t.Errorf("v=%d: %d non-empty buckets holding %d, want 1 bucket holding %d", v, nonEmpty, inBuckets, n)
		}
	}
}

func TestHistogramTopBucketAccounting(t *testing.T) {
	// Values at the top of the int64 range must land in the final
	// buckets without panicking or losing counts, and quantiles must
	// stay within [min, max].
	h := newHistogram()
	top := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 / 2, 1 << 62, 1}
	for _, v := range top {
		h.Observe(v)
	}
	idx := bucketIndex(math.MaxInt64)
	if idx >= numBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d, outside the %d-bucket array", idx, numBuckets)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != int64(len(top)) {
		t.Errorf("buckets hold %d observations, want %d", inBuckets, len(top))
	}
	snap := h.Snapshot()
	if snap.Max != math.MaxInt64 || snap.Min != 1 {
		t.Errorf("min=%d max=%d, want 1 and MaxInt64", snap.Min, snap.Max)
	}
	for _, q := range []int64{snap.P50, snap.P95, snap.P99} {
		if q < snap.Min || q > snap.Max {
			t.Errorf("quantile %d outside [min=%d, max=%d]", q, snap.Min, snap.Max)
		}
	}
	if snap.P99 < math.MaxInt64/2 {
		t.Errorf("p99 = %d implausibly low for a MaxInt64-heavy population", snap.P99)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Observe(10)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["c"] != 3 || back.Gauges["g"] != -1 || back.Histograms["h"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", back)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "c" {
		t.Errorf("names = %v", names)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(j))
				r.Gauge("g").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
