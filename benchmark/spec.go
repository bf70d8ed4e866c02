package main

import (
	"sort"
	"time"
)

// metricSpec declares one metric; BENCHMARK.json at the root of the
// repository lists the same names, units, directions and bounds (a test
// keeps the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_ops_s", "1/s", "higher", 0.25},
	{"invoke_p50_ms", "ms", "lower", 0.25},
	{"invoke_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// okLatencies returns the latencies, in ms, of the window's successful
// invocations.
func okLatencies(invs []invocation, keep func(*invocation) bool) []float64 {
	var out []float64
	for i := range invs {
		if invs[i].err == nil && (keep == nil || keep(&invs[i])) {
			out = append(out, ms(invs[i].latency()))
		}
	}
	return out
}

// sliceValues are the end-to-end readings of one slice of load.
type sliceValues struct {
	goodput, p50, p99, cpuPerOp float64
}

// valuesOfSlice reads one slice and scales it to the reference machine,
// given the speed of this one. Times are multiplied by the machine's speed
// and rates divided by it: a machine half as fast as the reference takes
// twice as long over the same work, and the result says what the reference
// machine would have taken. That holds for a closed loop, which the machine
// paces. An open loop is paced by its schedule and the injected delays and
// keeps a quarter of the machine busy: its rate and latencies barely follow
// the machine's speed and are reported as measured, its processor time per
// operation does and is scaled. A slice in which nothing completed has no
// readings.
func valuesOfSlice(sl *slice, speed float64) (sliceValues, bool) {
	lat := okLatencies(sl.win.invs, nil)
	length := sl.win.end.Sub(sl.win.start)
	if sl.stallGap > 0 {
		stalled, _ := stalledTime(&sl.win, sl.stallGap)
		length -= stalled
	}
	if len(lat) == 0 || length <= 0 {
		return sliceValues{}, false
	}
	pace := speed
	if sl.win.open {
		pace = 1
	}
	ok := float64(len(lat))
	cpu := sl.win.after.cpu - sl.win.before.cpu
	return sliceValues{
		goodput:  ok / length.Seconds() / pace,
		p50:      percentile(lat, 0.50) * pace,
		p99:      percentile(lat, 0.99) * pace,
		cpuPerOp: ms(cpu) / ok * speed,
	}, true
}

// medianSlice is what a run reports: the median of each reading over its
// slices, scaled by the mean of the run's readings of the machine's speed.
func (m *measured) medianSlice() sliceValues {
	var goodput, p50, p99, cpu []float64
	for i := range m.slices {
		if v, ok := valuesOfSlice(&m.slices[i], mean(m.speeds)); ok {
			goodput = append(goodput, v.goodput)
			p50 = append(p50, v.p50)
			p99 = append(p99, v.p99)
			cpu = append(cpu, v.cpuPerOp)
		}
	}
	return sliceValues{median(goodput), median(p50), median(p99), median(cpu)}
}

// endToEndValues derives the end-to-end metrics of one untraced run;
// setups are the set-up times the run took, in seconds as measured. The
// set-up of an open loop ends with a stretch of its schedule, which is most
// of it, and is reported as measured like its latencies.
func endToEndValues(m *measured, setups []float64) map[string]value {
	v := m.medianSlice()
	pace := mean(m.speeds)
	if len(m.slices) > 0 && m.slices[0].win.open {
		pace = 1
	}
	return map[string]value{
		"setup_s":       {median(setups) * pace, "s"},
		"goodput_ops_s": {v.goodput, "1/s"},
		"invoke_p50_ms": {v.p50, "ms"},
		"invoke_p99_ms": {v.p99, "ms"},
		"cpu_ms_per_op": {v.cpuPerOp, "ms"},
	}
}

// stalledTime adds up the gaps longer than minGap between successive
// completions in the window (its two ends count as completions), and
// returns the longest gap too.
func stalledTime(w *window, minGap time.Duration) (total, longest time.Duration) {
	done := make([]time.Time, 0, len(w.invs)+2)
	done = append(done, w.start, w.end)
	for i := range w.invs {
		if w.invs[i].err == nil {
			done = append(done, w.invs[i].returned)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	for i := 1; i < len(done); i++ {
		gap := done[i].Sub(done[i-1])
		if gap > longest {
			longest = gap
		}
		if gap > minGap {
			total += gap
		}
	}
	return total, longest
}

func perOp(total, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return total / ops
}
