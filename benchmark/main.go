// Command benchmark is the repository's benchmark: what a client of the
// replicated service sees (Invoke latency, goodput, CPU per operation) and
// what an operator of the control plane sees (time to replace a replica),
// on four workloads, with a per-layer budget traced from outside through
// the layers' public functions. See README.md in this directory.
//
//	go run ./benchmark -workload kvs-small-mem -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

const (
	// warmUp is load that runs before the window and is thrown away.
	warmUp = time.Second
	// setUps is how many times an untraced run sets the system up; it
	// reports the median and measures on the last.
	setUps = 3
	// hardTimeout fails a run that hangs (a stalled REMOVE, say) instead
	// of letting it sit.
	hardTimeout = 120 * time.Second
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a result with the run it came from; -out appends one per run
// and -compare reads them back.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames())
		seed         = flag.Int64("seed", 1, "seed of keys, schedule, network emulation, controller and dataset")
		seconds      = flag.Int("seconds", 16, "length of the measured window")
		traceFlag    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		out          = flag.String("out", "", "append the run's result to this file, one JSON object per line")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	def, ok := findWorkload(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, workloadNames()))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}

	// The watchdog ends the process even when the run is stuck somewhere
	// that does not watch its context.
	watchdog := time.AfterFunc(hardTimeout+5*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v, giving up\n", def.name, hardTimeout)
		os.Exit(1)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), hardTimeout)
	defer cancel()

	rec := record{Workload: def.name, Seed: *seed, Trace: *traceFlag != 0}
	var err error
	if rec.Trace {
		rec.result, err = runTraced(ctx, def, *seed, time.Duration(*seconds)*time.Second)
	} else {
		rec.result, err = runUntraced(ctx, def, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", def.name, err))
	}
	printTable(os.Stderr, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measured is one instance set up, loaded, verified and stopped.
type measured struct {
	slices []slice
	// speeds are the readings of the machine's speed taken during the run,
	// each a multiple of the reference machine's (see calibrate.go).
	speeds []float64
	// setup is how long the set-up took.
	setup time.Duration
	// verifyErr is a failed output check; the run still reports.
	// stragglers are the replicas the check left out (see "Settling").
	verifyErr  error
	stragglers int
}

// measureOnce sets the workload up, runs the warm-up and the window slice
// by slice with a reading of the machine's speed before the set-up and
// around every slice, checks the outputs and tears down.
func measureOnce(ctx context.Context, def workloadDef, seed int64, window time.Duration, tr *tracer) (*measured, error) {
	out := &measured{speeds: []float64{machineSpeed()}}
	start := time.Now()
	inst, err := def.setup(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.stop()
	out.setup = time.Since(start)
	if tr != nil {
		// The taps keep frames only while load runs, not during set-up.
		tr.recording.Store(true)
	}
	inst.load(ctx, -1, warmUp)
	n := inst.slices(window)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		out.speeds = append(out.speeds, machineSpeed())
		out.slices = append(out.slices, inst.load(ctx, i, window/time.Duration(n)))
	}
	out.speeds = append(out.speeds, machineSpeed())
	if tr != nil {
		tr.recording.Store(false)
	}
	out.stragglers, out.verifyErr = inst.verify(ctx)
	return out, nil
}

// runUntraced reports the end-to-end metrics: set up setUps times, keep
// the median set-up time, measure on the last instance.
func runUntraced(ctx context.Context, def workloadDef, seed int64, window time.Duration) (result, error) {
	var setups, speeds []float64
	for i := 0; i < setUps-1; i++ {
		speeds = append(speeds, machineSpeed())
		start := time.Now()
		inst, err := def.setup(ctx, seed, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst.stop()
	}
	m, err := measureOnce(ctx, def, seed, window, nil)
	if err != nil {
		return result{}, err
	}
	m.speeds = append(m.speeds, speeds...)
	res := newResult(m)
	for name, v := range endToEndValues(m, append(setups, m.setup.Seconds())) {
		res.Metrics[name] = v
	}
	return res, checkComplete(res, endToEnd)
}

// plainShare: the untraced instance of a traced run gets one part in
// plainShare of the window.
const plainShare = 4

// runTraced reports the per-layer metrics. It first measures an untraced
// instance for a quarter of the window, only to learn what tracing costs,
// then a traced one.
func runTraced(ctx context.Context, def workloadDef, seed int64, window time.Duration) (result, error) {
	plain, err := measureOnce(ctx, def, seed, window/plainShare, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	m, err := measureOnce(ctx, def, seed, window, tr)
	if err != nil {
		return result{}, err
	}
	res := newResult(m)
	if plain.verifyErr != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "benchmark: output check failed (untraced instance):", plain.verifyErr)
	}
	for name, v := range perLayerValues(m, tr, plain) {
		res.Metrics[name] = v
	}
	printBudget(os.Stderr, res.Metrics)
	return res, checkComplete(res, perLayer)
}

// printBudget prints the seven rows of the latency budget in the order a
// request passes them. Each request's rows sum to its latency, so the
// means sum to the mean latency of the traced requests.
func printBudget(w *os.File, metrics map[string]value) {
	fmt.Fprintf(w, "latency budget of a request, %.1f %% of the window's requests traced\n", metrics["trace.matched_share"].Value)
	var sum float64
	for _, row := range budgetRowNames {
		mean := metrics[row+"_mean_us"].Value
		sum += mean
		fmt.Fprintf(w, "  %-26s p50 %9.1f us   mean %9.1f us\n", row, metrics[row+"_us"].Value, mean)
	}
	fmt.Fprintf(w, "  %-26s %33.1f us\n", "sum of means = mean latency", sum)
}

// newResult fills the verdict fields: attempted and failed count the
// invocations of the window (and failed swap rounds), and a run is
// correct when nothing failed and every output check passed.
func newResult(m *measured) result {
	res := result{Metrics: make(map[string]value)}
	for i := range m.slices {
		sl := &m.slices[i]
		res.Attempted += len(sl.win.invs)
		for j := range sl.win.invs {
			if err := sl.win.invs[j].err; err != nil {
				if res.Failed == 0 {
					fmt.Fprintln(os.Stderr, "benchmark: first failed invocation:", err)
				}
				res.Failed++
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: slice %2d", i+1)
		if v, ok := valuesOfSlice(sl, 1); ok {
			fmt.Fprintf(os.Stderr, "  goodput %8.1f /s  p50 %7.3f ms  p99 %7.3f ms  cpu %6.3f ms/op", v.goodput, v.p50, v.p99, v.cpuPerOp)
		}
		if r := sl.round; r != nil {
			fmt.Fprintf(os.Stderr, "  refresh %6.1f ms  monitor %7.1f ms  reconfigured %v", ms(r.refresh), ms(r.monitor), r.reconfigured)
			res.Attempted++
			if r.err != nil {
				fmt.Fprint(os.Stderr, "  swap round failed: ", r.err)
				res.Failed++
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "benchmark: machine speed %.3f of the reference, readings %.3f\n", mean(m.speeds), m.speeds)
	if m.verifyErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: output check failed:", m.verifyErr)
	}
	res.Correct = res.Failed == 0 && m.verifyErr == nil && res.Attempted > 0
	return res
}

// checkComplete makes sure a run reports exactly the metrics it declares.
func checkComplete(res result, specs []metricSpec) error {
	for _, s := range specs {
		if _, ok := res.Metrics[s.Name]; !ok {
			return fmt.Errorf("metric %s was not produced", s.Name)
		}
	}
	if len(res.Metrics) != len(specs) {
		return fmt.Errorf("%d metrics produced, %d declared", len(res.Metrics), len(specs))
	}
	return nil
}

func printTable(w *os.File, rec record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  correct %v  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
