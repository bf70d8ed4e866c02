// Command lazbench regenerates every table and figure of the paper's
// evaluation (§6 and §7) from this repository's implementation:
//
//	lazbench table1          clustered Table 1 XSS trio
//	lazbench fig2            score modifiers by vulnerability state
//	lazbench fig3            score evolution of the three example CVEs
//	lazbench fig5 [-runs N]  compromised runs per month, five strategies
//	lazbench fig6 [-runs N]  compromised runs under the 2017 attacks
//	lazbench table2          the 17 deployable OS versions and VM profiles
//	lazbench fig7            homogeneous-configuration throughput
//	lazbench fig8            diverse-configuration throughput
//	lazbench fig9            throughput during a live reconfiguration
//	lazbench fig10           application throughput (KVS, SieveQ, Fabric)
//	lazbench ablation        risk-metric ablations + threshold sweep
//	lazbench leader          leader-placement analysis (paper §9)
//	lazbench chaos [-rounds N] [-metrics-out F] [-controller-faults] [-byz-faults] [-wal F] [-wan P]
//	                         control-plane chaos run: swaps under faults;
//	                         -controller-faults also kills and WAL-recovers the
//	                         controller mid-swap (-wal backs it with a file WAL);
//	                         -byz-faults turns f members into attacker replicas
//	                         (equivocation, replay, corrupted state, censoring
//	                         primary) and asserts safety and liveness throughout;
//	                         -wan runs the whole thing under a netem profile
//	                         (lan|wan|flaky|geo3) with scheduled partition episodes
//	                         that must each end in a post-heal commit; -metrics-out
//	                         writes the run's metrics registry snapshot as JSON
//	lazbench all             everything above (except ablations and chaos)
//
// Absolute performance numbers come from the calibrated model
// (internal/perfmodel); risk numbers from the seeded synthetic dataset
// (internal/feeds). EXPERIMENTS.md records paper-vs-measured values. The
// running system's own speed is measured by benchmark/ (see its README).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lazbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lazbench", flag.ContinueOnError)
	runs := fs.Int("runs", 250, "runs per strategy for fig5/fig6 (paper: 1000)")
	seed := fs.Int64("seed", 1, "dataset and experiment seed")
	rounds := fs.Int("rounds", 25, "monitor rounds for the chaos run")
	ctrlFaults := fs.Bool("controller-faults", false, "chaos: kill and WAL-recover the controller mid-swap")
	byzFaults := fs.Bool("byz-faults", false, "chaos: turn f members into Byzantine attacker replicas per round")
	walPath := fs.String("wal", "", "chaos: back the control plane with a file WAL at this path")
	wan := fs.String("wan", "", "chaos: run under this netem profile (lan|wan|flaky|geo3)")
	metricsOut := fs.String("metrics-out", "", "chaos: write the metrics registry snapshot as JSON to this file")
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (table1|fig2|fig3|fig5|fig6|table2|fig7|fig8|fig9|fig10|ablation|leader|chaos|all)")
	}
	sub := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cmds := map[string]func(int, int64) error{
		"table1":   func(int, int64) error { return table1() },
		"fig2":     func(int, int64) error { return fig2() },
		"fig3":     func(int, int64) error { return fig3() },
		"fig5":     func(r int, s int64) error { return fig5(r, s) },
		"fig6":     func(r int, s int64) error { return fig6(r, s) },
		"table2":   func(int, int64) error { return table2() },
		"fig7":     func(int, int64) error { return fig7() },
		"fig8":     func(int, int64) error { return fig8() },
		"fig9":     func(int, int64) error { return fig9() },
		"fig10":    func(int, int64) error { return fig10() },
		"ablation": func(r int, s int64) error { return ablation(r, s) },
		"leader":   func(int, int64) error { return leaderPlacement() },
		"chaos": func(_ int, s int64) error {
			return chaosRun(*rounds, s, *metricsOut, *ctrlFaults, *byzFaults, *walPath, *wan)
		},
	}
	if sub == "all" {
		for _, name := range []string{"table1", "fig2", "fig3", "table2", "fig7", "fig8", "fig9", "fig10", "fig5", "fig6"} {
			if err := cmds[name](*runs, *seed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	cmd, ok := cmds[sub]
	if !ok {
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	return cmd(*runs, *seed)
}
