package controlplane

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lazarus/internal/transport"
)

// TestProbeReportsPositions pins the chaos probe's failure report: a probe
// that cannot commit gives up at its own deadline, and its error names
// every member with the epoch, view and last executed sequence it stands
// at, so a stalled run says which replica held it up.
func TestProbeReportsPositions(t *testing.T) {
	now := day(2018, 1, 15)
	ctrl, net, clientPriv := testController(t, smallCorpus(t), func() time.Time { return now })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	cl, err := ctrl.ServiceClient(transport.ClientIDBase+1, clientPriv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := probe(ctx, ctrl, cl, 15*time.Second, putOp("before", "ok")); err != nil {
		t.Fatalf("probe of a healthy group: %v", err)
	}

	members := ctrl.Status().Members
	for _, id := range members {
		net.Isolate(id)
	}
	start := time.Now()
	_, err = probe(ctx, ctrl, cl, 300*time.Millisecond, putOp("stalled", "ok"))
	if err == nil {
		t.Fatal("probe committed with every member isolated")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("probe took %v to give up, deadline 300ms", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("probe error %q does not wrap context.DeadlineExceeded", err)
	}
	_, reps := liveReplicas(ctrl)
	for _, id := range members {
		st := reps[id].Stats()
		want := fmt.Sprintf("replica %d epoch %d view %d lastExec %d ", id, st.CurrentEpoch, st.CurrentView, st.LastExecuted)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("probe error does not place member %d (%q):\n%v", id, want, err)
		}
	}
}

// TestChaosSwapHistoryReplays pins seeded reproducibility end to end:
// two chaos runs with the same seed must produce identical swap
// histories. Faults are disabled because their injection points are
// wall-clock sensitive (stalls and isolation race real timeouts); with
// a deterministic dataset, bomb schedule and risk manager, any history
// divergence means some decision drew from an unseeded source — the
// exact regression class of the global-rand TCP jitter (lazlint's
// globalrand rule guards the same invariant statically).
//
// The first run is also compared with pinnedSwapHistory, so a change
// that alters what the controller decides fails here rather than only
// between two runs of the same build. To regenerate the literal after
// an intended change of behaviour, run
//
//	go test ./internal/controlplane -run '^TestChaosSwapHistoryReplays$' -v
//
// and paste the quoted strings from its "pinned:" log lines.
func TestChaosSwapHistoryReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take tens of seconds")
	}
	if raceEnabled {
		t.Skip("two full chaos runs exceed the race-mode package budget; determinism is asserted in the plain pass")
	}
	run := func() []string {
		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
		defer cancel()
		report, err := RunChaos(ctx, ChaosConfig{
			Rounds:        8,
			Seed:          7,
			ClientWorkers: 0,
			BootFailProb:  -1,
			BootStallProb: -1,
			LTUFailProb:   -1,
			SilentProb:    -1,
			LinkLossProb:  -1,
			BombProb:      1,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatalf("RunChaos: %v", err)
		}
		hist := make([]string, 0, len(report.History))
		for _, rec := range report.History {
			// Timestamps are wall-clock and excluded; everything the
			// controller decided must replay exactly.
			hist = append(hist, fmt.Sprintf("%s->%s node %d->%d outcome=%v stage=%q retries=%d err=%q",
				rec.Removed, rec.Added, rec.OldNode, rec.NewNode,
				rec.Outcome, rec.FailedStage, rec.Retries, rec.Err))
		}
		return hist
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no swaps recorded: BombProb=1 over 8 rounds should force swaps")
	}
	for _, line := range first {
		t.Logf("pinned: %q,", line)
	}
	if got, want := strings.Join(first, "\n"), strings.Join(pinnedSwapHistory, "\n"); got != want {
		t.Errorf("history differs from the pinned one:\ngot:\n%s\npinned:\n%s", got, want)
	}
	if len(first) != len(second) {
		t.Fatalf("histories differ in length: %d vs %d\nfirst: %v\nsecond: %v",
			len(first), len(second), first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("swap %d diverged between identically-seeded runs:\n  first:  %s\n  second: %s",
				i, first[i], second[i])
		}
	}
}

// pinnedSwapHistory is TestChaosSwapHistoryReplays' swap history (seed 7,
// 8 rounds, no faults, BombProb 1).
var pinnedSwapHistory = []string{
	"WS12->FB11 node 0->4 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"UB17->UB16 node 2->5 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"SO11->SO10 node 1->6 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"UB16->DE8 node 5->7 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"FB11->FE25 node 4->8 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"OB61->OB60 node 3->9 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"SO10->W10 node 6->10 outcome=success stage=\"boot\" retries=0 err=\"\"",
	"DE8->OS42 node 7->11 outcome=success stage=\"boot\" retries=0 err=\"\"",
}

// TestChaosByzantineRounds runs every round with f attacker replicas,
// cycling through all four attack kinds — equivocation, stale-vote
// replay, corrupted state transfer, censoring primary — under client
// load and the regular boot/LTU fault dice. Throughout, the harness
// asserts safety (no two replicas execute different batches at the same
// sequence number, no forged reply is ever accepted) and liveness (every
// in-attack probe completes; a censoring primary is demoted by view
// change). Any failure surfaces as a report Violation.
func TestChaosByzantineRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take tens of seconds")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	report, err := RunChaos(ctx, ChaosConfig{
		Rounds:        20,
		Seed:          11,
		ClientWorkers: 2,
		ByzFaults:     true,
		ByzProb:       1, // every round Byzantine: 20 rounds, 5 per attack kind
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	for _, v := range report.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if report.ByzRounds != 20 {
		t.Errorf("byzantine rounds = %d, want 20", report.ByzRounds)
	}
	if report.ByzProbes != report.ByzRounds {
		t.Errorf("byz probes = %d, want one per byzantine round (%d)", report.ByzProbes, report.ByzRounds)
	}
	kinds := make(map[string]int)
	for _, entry := range report.ByzSchedule {
		var round int
		var kind string
		if _, err := fmt.Sscanf(entry, "r%d:%s", &round, &kind); err == nil {
			if at := len(kind); at > 0 {
				// Trim the "@[nodes]" suffix Sscanf's %s kept.
				for i := 0; i < len(kind); i++ {
					if kind[i] == '@' {
						kind = kind[:i]
						break
					}
				}
				kinds[kind]++
			}
		}
	}
	for _, want := range []string{"equivocate", "replay", "corrupt-state", "censor"} {
		if kinds[want] == 0 {
			t.Errorf("attack kind %q never ran (schedule: %v)", want, report.ByzSchedule)
		}
	}
	// The attackers must have actually attacked, not idled: every kind's
	// action counter moved.
	st := report.ByzStats
	t.Logf("byz stats: %+v, schedule: %v", st, report.ByzSchedule)
	if st.Equivocated == 0 {
		t.Error("no equivocating variants were emitted")
	}
	if st.Garbled == 0 {
		t.Error("no garbled-signature prepares were sent ahead of genuine ones")
	}
	if st.Replayed == 0 {
		t.Error("no stale votes were replayed")
	}
	if st.Corrupted == 0 {
		t.Error("no state messages were corrupted")
	}
	if st.Censored == 0 {
		t.Error("no primary traffic was censored")
	}
	if report.ClientOps == 0 {
		t.Error("client load completed zero operations under attack")
	}
}

// TestChaosByzantineScheduleReplays pins the attacker schedule to its
// seed: two identically-configured runs must arm the same attackers with
// the same kinds in the same rounds. Swaps and wall-clock-sensitive
// faults are disabled so the membership stays static and the schedule is
// a pure function of the Byzantine rng stream.
func TestChaosByzantineScheduleReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take tens of seconds")
	}
	if raceEnabled {
		t.Skip("two full chaos runs exceed the race-mode package budget; determinism is asserted in the plain pass")
	}
	run := func() []string {
		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
		defer cancel()
		report, err := RunChaos(ctx, ChaosConfig{
			Rounds:         8,
			Seed:           9,
			ClientWorkers:  0,
			BootFailProb:   -1,
			BootStallProb:  -1,
			LTUFailProb:    -1,
			SilentProb:     -1,
			LinkLossProb:   -1,
			BombProb:       -1,
			ByzFaults:      true,
			ByzProb:        0.6,
			ForceByzRounds: []int{0, 7},
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("RunChaos: %v", err)
		}
		for _, v := range report.Violations {
			t.Errorf("invariant violation: %s", v)
		}
		return report.ByzSchedule
	}
	first, second := run(), run()
	if len(first) < 2 {
		t.Fatalf("schedule too short to mean anything: %v", first)
	}
	if len(first) != len(second) {
		t.Fatalf("schedules differ in length: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("byz round %d diverged between identically-seeded runs: %q vs %q", i, first[i], second[i])
		}
	}
}

// TestChaosWANScheduleReplays pins the netem partition schedule to its
// seed, with Byzantine rounds enabled so the two fault schedulers
// interleave: identically-configured runs must open the same partition
// shapes in the same rounds, arm the same attackers, and every heal
// must be followed by a commit (post-heal liveness is a Violation
// check inside RunChaos).
func TestChaosWANScheduleReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take tens of seconds")
	}
	if raceEnabled {
		t.Skip("two full chaos runs exceed the race-mode package budget; determinism is asserted in the plain pass")
	}
	run := func() ([]string, []string) {
		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
		defer cancel()
		report, err := RunChaos(ctx, ChaosConfig{
			Rounds:         10,
			Seed:           1,
			ClientWorkers:  0,
			BootFailProb:   -1,
			BootStallProb:  -1,
			LTUFailProb:    -1,
			SilentProb:     -1,
			LinkLossProb:   -1,
			BombProb:       -1,
			ByzFaults:      true,
			ByzProb:        0.4,
			ForceByzRounds: []int{1},
			WANProfile:     "flaky",
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("RunChaos: %v", err)
		}
		for _, v := range report.Violations {
			t.Errorf("invariant violation: %s", v)
		}
		if report.WANProbes != report.WANRounds {
			t.Errorf("%d partition episodes but %d post-heal probes", report.WANRounds, report.WANProbes)
		}
		if report.Netem.Frames == 0 || report.Netem.DropsLink == 0 {
			t.Errorf("flaky profile moved no conditioned traffic: %+v", report.Netem)
		}
		return report.WANSchedule, report.ByzSchedule
	}
	wan1, byz1 := run()
	wan2, byz2 := run()
	if len(wan1) < 2 {
		t.Fatalf("partition schedule too short to mean anything: %v", wan1)
	}
	if fmt.Sprint(wan1) != fmt.Sprint(wan2) {
		t.Errorf("partition schedules diverged between identically-seeded runs:\n%v\n%v", wan1, wan2)
	}
	if fmt.Sprint(byz1) != fmt.Sprint(byz2) {
		t.Errorf("byzantine schedules diverged between identically-seeded runs:\n%v\n%v", byz1, byz2)
	}
}

// TestChaosRunDeterministic is the in-tree version of `lazbench chaos`: a
// seeded run of ≥20 monitor rounds under random boot failures, LTU
// faults, silent replicas and link loss, with two rounds forced to
// bomb-and-fail-boot so the rollback path provably executes. Throughout,
// the service must keep exactly n=3f+1 live correct replicas, the
// membership must mirror the OS→node map, and every failed swap must be
// compensated (rollback counter increments, no leaked nodes).
func TestChaosRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes tens of seconds")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	report, err := RunChaos(ctx, ChaosConfig{
		Rounds:              20,
		Seed:                42,
		ClientWorkers:       2,
		ForceBootFailRounds: []int{3, 11},
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}

	for _, v := range report.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if report.Rounds != 20 {
		t.Errorf("ran %d rounds, want 20", report.Rounds)
	}
	if report.FaultRounds == 0 {
		t.Error("no faults were injected — the chaos schedule is broken")
	}
	if report.Bombs == 0 {
		t.Error("no CVE bombs published — nothing could trigger swaps")
	}

	st := report.Stats
	t.Logf("swap stats: %+v", st)
	t.Logf("history: %d records, client ops %d (errs %d), net %+v",
		len(report.History), report.ClientOps, report.ClientErrs, report.Net)
	if st.Attempts == 0 {
		t.Error("no swaps were attempted across 20 bombed rounds")
	}
	// The two forced rounds bomb a shared critical CVE while every image
	// refuses to boot: each must produce at least one failed, rolled-back
	// swap. (More can fail from the random faults.)
	if st.Rollbacks < 2 {
		t.Errorf("rollbacks = %d, want >= 2 (two forced boot-failure rounds)", st.Rollbacks)
	}
	if st.RollbackFailures != 0 {
		t.Errorf("rollback failures = %d, want 0", st.RollbackFailures)
	}
	if st.Attempts != st.Successes+st.Rollbacks+st.RollbackFailures {
		t.Errorf("ledger unbalanced: attempts %d != successes %d + rollbacks %d + aborts %d",
			st.Attempts, st.Successes, st.Rollbacks, st.RollbackFailures)
	}
	// Every rollback shows up as a structured record with a failed stage.
	var recorded int
	for _, rec := range report.History {
		if rec.Outcome == SwapRolledBack {
			recorded++
			if rec.Err == "" {
				t.Errorf("rolled-back record %s->%s has no error", rec.Removed, rec.Added)
			}
		}
	}
	if uint64(recorded) != st.Rollbacks {
		t.Errorf("history shows %d rollbacks, counters show %d", recorded, st.Rollbacks)
	}

	// Closing state: exactly n replicas, membership == osToNode, no
	// orphans (checkInvariants already ran per round; re-assert the
	// essentials from the report for clarity).
	if len(report.Final.Config) != 4 || len(report.Final.Members) != 4 {
		t.Errorf("final config %v / members %v, want 4 each", report.Final.Config, report.Final.Members)
	}
	if len(report.Census.Orphans) != 0 {
		t.Errorf("leaked nodes: %v", report.Census.Orphans)
	}
	if report.ClientOps == 0 {
		t.Error("client load completed zero operations")
	}
	// The seed fixes the load: every worker issues its puts each round.
	if got, want := report.ClientOps+report.ClientErrs, uint64(report.Rounds*2*chaosPutsPerRound); got != want {
		t.Errorf("client invokes = %d, want rounds × workers × %d = %d", got, chaosPutsPerRound, want)
	}
}
