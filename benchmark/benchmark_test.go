package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles of three = %v, %v, want 10, 30", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, openLoopRate, 5*time.Second)
	b := poissonSchedule(7, openLoopRate, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, openLoopRate, 5*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// 2000 arrivals expected; five standard deviations is about 224.
	if n := len(a); n < 1776 || n > 2224 {
		t.Errorf("%d arrivals in 5 s at %v/s", n, openLoopRate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if got := dueBy(a, a[9]); got != 10 {
		t.Errorf("dueBy at the tenth arrival = %d, want 10", got)
	}
}

// TestBudgetRowsSumToLatency runs kvs-small-mem for a second with the
// taps on and checks, request by request, that the seven rows of the
// budget add up to the Invoke latency the load generator measured.
func TestBudgetRowsSumToLatency(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	def, ok := findWorkload("kvs-small-mem")
	if !ok {
		t.Fatal("no kvs-small-mem workload")
	}
	tr := newTracer()
	inst, err := def.setup(ctx, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.stop()
	tr.recording.Store(true)
	inst.load(ctx, -1, 200*time.Millisecond)
	sl := inst.load(ctx, 0, time.Second)
	tr.recording.Store(false)
	if stragglers, err := inst.verify(ctx); err != nil || stragglers > 0 {
		t.Errorf("output check: %d stragglers, %v", stragglers, err)
	}
	invs := sl.win.invs
	for i := range invs {
		if err := invs[i].err; err != nil {
			t.Fatalf("invocation failed: %v", err)
		}
	}
	trc := tr.analyse(&sl.win)
	if len(trc.spans) == 0 {
		t.Fatalf("no request was traced (%d invocations, %d unmatched, %d retransmitted)",
			len(invs), trc.unmatched, trc.retransmitted)
	}
	if got := len(trc.spans) + trc.unmatched + trc.retransmitted; got != len(invs) {
		t.Errorf("%d requests accounted for, %d invoked", got, len(invs))
	}
	for i := range trc.spans {
		sp := &trc.spans[i]
		var sum time.Duration
		for _, row := range sp.rows {
			sum += row
		}
		if want := sp.inv.returned.Sub(sp.inv.called); sum != want {
			t.Fatalf("client %d request %d: rows sum to %v, latency is %v", sp.inv.client, sp.inv.seq, sum, want)
		}
	}
	// The run must also produce every metric it declares, traced or not.
	m := &measured{slices: []slice{sl}, speeds: []float64{machineSpeed()}}
	if m.speeds[0] <= 0 {
		t.Errorf("machine speed %v", m.speeds[0])
	}
	if err := checkComplete(result{Metrics: perLayerValues(m, tr, m)}, perLayer); err != nil {
		t.Error(err)
	}
	if err := checkComplete(result{Metrics: endToEndValues(m, []float64{1})}, endToEnd); err != nil {
		t.Error(err)
	}
}

// TestMedianSliceScalesToTheReferenceMachine checks the arithmetic of the
// end-to-end readings: a machine half as fast as the reference, taking
// twice as long over everything, reads the same as the reference machine.
func TestMedianSliceScalesToTheReferenceMachine(t *testing.T) {
	start := time.Unix(0, 0)
	build := func(stretch time.Duration) slice {
		var sl slice
		sl.win.start, sl.win.end = start, start.Add(stretch*time.Second)
		sl.win.after.cpu = stretch * 500 * time.Millisecond
		for i := 0; i < 100; i++ {
			called := start.Add(stretch * time.Duration(i) * time.Millisecond)
			sl.win.invs = append(sl.win.invs, invocation{called: called, returned: called.Add(stretch * time.Duration(i+1) * time.Millisecond)})
		}
		return sl
	}
	want := sliceValues{goodput: 100, p50: 50, p99: 99, cpuPerOp: 5}
	ref := &measured{slices: []slice{build(1)}, speeds: []float64{1}}
	if got := ref.medianSlice(); got != want {
		t.Errorf("reference machine reads %+v, want %+v", got, want)
	}
	// A slice in which nothing completed is left out of the median.
	slow := &measured{slices: []slice{build(2), {}, build(2)}, speeds: []float64{0.4, 0.6}}
	if got := slow.medianSlice(); got != want {
		t.Errorf("machine at half speed reads %+v, want %+v", got, want)
	}
	// An open loop is paced by its schedule: rate and latencies are
	// reported as measured, processor time is scaled.
	paced := &measured{slices: []slice{build(2)}, speeds: []float64{0.5}}
	paced.slices[0].win.open = true
	if got, asMeasured := paced.medianSlice(), (sliceValues{goodput: 50, p50: 100, p99: 198, cpuPerOp: 5}); got != asMeasured {
		t.Errorf("open loop at half speed reads %+v, want %+v", got, asMeasured)
	}
	if got := endToEndValues(slow, []float64{3, 2, 1})["setup_s"].Value; got != 1 {
		t.Errorf("set-ups of 1, 2 and 3 s at half speed read %v s, want 1", got)
	}
}

func runsOf(workload string, metric string, vals ...float64) []record {
	var out []record
	for i, v := range vals {
		out = append(out, record{Workload: workload, Seed: int64(i), result: result{
			Metrics: map[string]value{metric: {Value: v, Unit: "ms"}},
		}})
	}
	return out
}

func verdictFor(t *testing.T, cs []comparison, workload, metric string) comparison {
	t.Helper()
	for _, c := range cs {
		if c.workload == workload && c.metric == metric {
			return c
		}
	}
	t.Fatalf("no comparison for %s on %s", metric, workload)
	return comparison{}
}

func TestCompareFlagsARegressionAndPassesAnIdenticalPair(t *testing.T) {
	base := runsOf("kvs-small-mem", "invoke_p50_ms", 2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.00, 2.01, 1.99)
	slower := runsOf("kvs-small-mem", "invoke_p50_ms", 2.60, 2.63, 2.57, 2.61, 2.59, 2.64, 2.56, 2.60, 2.61, 2.59)
	noisy := runsOf("kvs-small-mem", "invoke_p50_ms", 1.2, 3.1, 2.0, 2.9, 1.1, 2.4, 3.3, 1.6, 2.2, 2.8)

	if c := verdictFor(t, compareRecords(base, base), "kvs-small-mem", "invoke_p50_ms"); c.verdict != verdictPass {
		t.Errorf("identical pair: %s", c.verdict)
	}
	c := verdictFor(t, compareRecords(base, slower), "kvs-small-mem", "invoke_p50_ms")
	if c.verdict != verdictRegressed || math.Abs(c.worse-0.30) > 0.01 {
		t.Errorf("30%% slower: verdict %s, worse %.3f", c.verdict, c.worse)
	}
	if c := verdictFor(t, compareRecords(slower, base), "kvs-small-mem", "invoke_p50_ms"); c.verdict != verdictPass {
		t.Errorf("30%% faster: %s", c.verdict)
	}
	if c := verdictFor(t, compareRecords(base, noisy), "kvs-small-mem", "invoke_p50_ms"); c.verdict != verdictUnresolved {
		t.Errorf("spread wider than the bound: %s", c.verdict)
	}
	if c := verdictFor(t, compareRecords(base, base), "echo-open-lan", "invoke_p50_ms"); c.verdict != verdictUnresolved {
		t.Errorf("no runs on either side: %s", c.verdict)
	}
	// A higher-is-better metric regresses when it drops.
	fast := runsOf("kvs-small-mem", "goodput_ops_s", 1500, 1510, 1490, 1505, 1495)
	slow := runsOf("kvs-small-mem", "goodput_ops_s", 1000, 1010, 990, 1005, 995)
	if c := verdictFor(t, compareRecords(fast, slow), "kvs-small-mem", "goodput_ops_s"); c.verdict != verdictRegressed {
		t.Errorf("goodput down by a third: %s", c.verdict)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric and workload tables of
// the program in step with the BENCHMARK.json the driver reads.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, file.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, s := range want {
			if g := got[i]; g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || g.Bound != s.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, s)
			}
		}
	}
	same("end-to-end", file.EndToEnd, endToEnd)
	same("per-layer", file.PerLayer, perLayer)
}
