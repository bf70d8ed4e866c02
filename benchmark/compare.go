package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison.
const (
	verdictPass       = "pass"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is the verdict on one (metric, workload) pair.
type comparison struct {
	workload, metric string
	// a and b are the medians of the two sets of runs; worse is how much
	// worse b reads than a, as a share of a (negative when it is better).
	a, b, worse float64
	// spread is the wider of the two sets' interquartile distances, as a
	// share of the median; bound is the metric's.
	spread, bound float64
	verdict       string
}

// readRecords loads a result file: one record per line, as -out writes.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// valuesOf collects a metric's values over the untraced runs of a workload.
func valuesOf(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareValues applies one metric's bound to two sets of runs of it. The
// change regresses when its median is worse than the parent's by more
// than the bound. Where the runs themselves spread wider than the bound
// the pair is unresolved, not unchanged, unless every run of the change
// reads better than every run of the parent.
func compareValues(spec metricSpec, a, b []float64) comparison {
	c := comparison{metric: spec.Name, bound: spec.Bound, verdict: verdictUnresolved}
	if len(a) == 0 || len(b) == 0 {
		return c
	}
	c.a, c.b = median(a), median(b)
	lower := spec.Better == "lower"
	if c.a != 0 {
		c.worse = (c.b - c.a) / c.a
		if !lower {
			c.worse = -c.worse
		}
	}
	c.spread = spreadShare(a)
	if s := spreadShare(b); s > c.spread {
		c.spread = s
	}
	switch {
	case c.spread > spec.Bound && !allBetter(a, b, lower):
		c.verdict = verdictUnresolved
	case c.worse > spec.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictPass
	}
	return c
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (lower && y >= x) || (!lower && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareRecords judges every (end-to-end metric, workload) pair.
func compareRecords(a, b []record) []comparison {
	var out []comparison
	for _, w := range workloadDefs {
		for _, spec := range endToEnd {
			c := compareValues(spec, valuesOf(a, w.name, spec.Name), valuesOf(b, w.name, spec.Name))
			c.workload = w.name
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the comparison of two result files and reports
// whether nothing regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, c := range compareRecords(a, b) {
		fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
			c.workload, c.metric, c.a, c.b, 100*c.worse, 100*c.spread, 100*c.bound, c.verdict)
		if c.verdict == verdictRegressed {
			ok = false
		}
	}
	return ok, nil
}
