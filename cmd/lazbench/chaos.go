package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"lazarus/internal/chaos"
	"lazarus/internal/metrics"
)

// chaosRun drives the full control plane through a seeded fault schedule
// — random boot failures, stalled boots, LTU faults, silent replicas and
// link loss, plus forced boot-failure rounds — while two clients write a
// fixed number of puts per round to the replicated KVS. With controllerFaults the harness also
// kills the controller a few WAL appends into random rounds (usually
// mid-swap) and recovers a successor from the WAL, which must resolve
// the interrupted swap; walPath backs the log with a file so restart
// also exercises on-disk replay. It prints the swap-engine counters,
// the structured swap history and the transport statistics, and exits
// non-zero if any invariant was violated: the group must hold exactly
// n = 3f+1 live correct replicas and every failed swap must roll back
// cleanly. With byzFaults, rounds additionally turn f members into
// attacker replicas — equivocation, stale-vote replay, corrupted state
// snapshots, censoring primaries — and the run also asserts that no two
// replicas diverged and no forged reply was accepted. With wanProfile,
// the execution plane runs under that netem condition profile — latency,
// loss, reordering, bandwidth caps — with scheduled partition episodes
// (symmetric, asymmetric, isolating) that must each end in a post-heal
// commit; the replicas' progress timer is then 1.2s rather than 200ms,
// several geo3 round trips.
func chaosRun(rounds int, seed int64, metricsOut string, controllerFaults, byzFaults bool, walPath, wanProfile string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	reg := metrics.NewRegistry()
	fmt.Printf("== chaos: %d monitor rounds, seed %d, controller faults %v, byzantine faults %v, wan %q ==\n",
		rounds, seed, controllerFaults, byzFaults, wanProfile)
	rep, err := chaos.Run(ctx, chaos.Config{
		Rounds:        rounds,
		Seed:          seed,
		ClientWorkers: 2,
		// Two forced rounds bomb a critical CVE while every image refuses
		// to boot, so the rollback path provably executes.
		ForceBootFailRounds: []int{3, rounds/2 + 1},
		ControllerFaults:    controllerFaults,
		ByzFaults:           byzFaults,
		// Force the first four eligible rounds Byzantine so even short
		// runs cycle through every attack kind.
		ForceByzRounds: []int{0, 1, 2, 3},
		WANProfile:     wanProfile,
		WALPath:        walPath,
		Metrics:        reg,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	st := rep.Stats
	fmt.Println()
	fmt.Printf("rounds          %d (%d with faults, %d bombs, %d round errors)\n",
		rep.Rounds, rep.FaultRounds, rep.Bombs, rep.RoundErrors)
	fmt.Printf("swaps           %d attempted: %d succeeded, %d rolled back, %d rolled forward, %d left open (%d stage retries)\n",
		st.Attempts, st.Successes, st.Rollbacks, st.RolledForward, st.RollbackFailures, st.Retries)
	for stage, n := range st.StageFailures {
		fmt.Printf("  stage %-10v %d failed attempts\n", stage, n)
	}
	fmt.Printf("client load     %d ops (%d errors)\n", rep.ClientOps, rep.ClientErrs)
	if controllerFaults {
		fmt.Printf("controller      %d kills, %d recoveries (final generation %d), %d/%d down-probes served, %d WAL records\n",
			rep.ControllerKills, rep.Recoveries, rep.Generation,
			rep.DownProbes-rep.DownProbeErrs, rep.DownProbes, rep.WALRecords)
	}
	if byzFaults {
		fmt.Printf("byzantine       %d attack rounds, %d/%d in-attack probes served, actions %+v\n",
			rep.ByzRounds, rep.ByzProbes-rep.ByzProbeErrs, rep.ByzProbes, rep.ByzStats)
		fmt.Printf("  schedule      %v\n", rep.ByzSchedule)
	}
	if wanProfile != "" {
		fmt.Printf("wan             %d partition episodes, %d/%d post-heal probes served\n",
			rep.WANRounds, rep.WANProbes-rep.WANProbeErrs, rep.WANProbes)
		fmt.Printf("  schedule      %v\n", rep.WANSchedule)
		fmt.Printf("  netem         %+v\n", rep.Netem)
	}
	fmt.Printf("transport       %+v\n", rep.Net)
	fmt.Printf("final config    %v (epoch %d, members %v)\n",
		rep.Final.Config, rep.Final.Epoch, rep.Final.Members)
	fmt.Printf("census          %d tracked, %d running, %d orphans\n",
		rep.Census.Tracked, len(rep.Census.Running), len(rep.Census.Orphans))

	if len(rep.History) > 0 {
		fmt.Println("\nswap history:")
		for _, r := range rep.History {
			line := fmt.Sprintf("  %-22s node %2d -> %2d  %-13v", r.Removed+" -> "+r.Added,
				r.OldNode, r.NewNode, r.Outcome)
			if r.Err != "" {
				line += fmt.Sprintf("  [%v: %s]", r.FailedStage, r.Err)
			}
			fmt.Println(line)
		}
	}

	if metricsOut != "" {
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(metricsOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", metricsOut)
	}

	if len(rep.Violations) > 0 {
		fmt.Println("\nINVARIANT VIOLATIONS:")
		for _, v := range rep.Violations {
			fmt.Println("  -", v)
		}
		os.Exit(1)
	}
	fmt.Println("\nall invariants held: n=3f+1 retained, every failed swap rolled back")
	return nil
}
