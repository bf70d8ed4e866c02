// Control-plane chaos harness: runs the full Lazarus loop — intel
// refresh, Algorithm 1 rounds, staged swaps — under client load while
// randomly injecting boot failures, LTU faults, silent replicas and
// transport loss, then verifies that the service invariant held (n=3f+1
// live correct replicas, membership exactly mirroring the OS→node map)
// and that every failed swap was compensated. `lazbench chaos` drives it
// interactively; a deterministic seeded version runs in the test suite.
package controlplane

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/deploy"
	"lazarus/internal/feeds"
	"lazarus/internal/ltu"
	"lazarus/internal/metrics"
	"lazarus/internal/netem"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

// ChaosConfig parameterizes a chaos run. The zero value gets sensible
// defaults from fill.
type ChaosConfig struct {
	// Rounds is how many monitor rounds to run (default 25).
	Rounds int
	// Seed drives every random choice: the synthetic dataset, the
	// controller, and the fault schedule.
	Seed int64
	// N is the replica-set size (default 4).
	N int
	// ClientWorkers is how many KVS clients load the run; each issues
	// chaosPutsPerRound puts every round (0 disables load).
	ClientWorkers int

	// Per-round fault probabilities.
	BootFailProb  float64 // power-on failures for every image (default 0.2)
	BootStallProb float64 // boots stall past the stage timeout (default 0.1)
	LTUFailProb   float64 // LTU commands error out (default 0.15)
	SilentProb    float64 // one member isolated for the round (default 0.2)
	LinkLossProb  float64 // one replica pair cut for the round (default 0.2)
	// BombProb is the chance a fresh critical shared CVE is published
	// before a round (default 0.6) — the trigger that makes swaps happen.
	BombProb float64

	// ByzFaults enables Byzantine attacker replicas: rounds randomly turn
	// f current members Byzantine by intercepting their outgoing traffic
	// with their own signing keys (bft.Attacker) — equivocating
	// proposals, stale-vote replay, corrupted state snapshots, or a
	// censoring primary, cycling through the four kinds. Byzantine rounds
	// suppress the silent-replica and link-loss faults so the total
	// faulty count stays within the f the protocol tolerates; while the
	// attack runs the harness probes liveness (a censoring primary must
	// be demoted by view change) and reply integrity, and afterwards it
	// cross-checks every replica's execution trace for safety.
	ByzFaults bool
	// ByzProb is the per-round probability of a Byzantine round when
	// ByzFaults is on (default 0.5). The Byzantine dice use their own rng
	// stream, so enabling attacks does not perturb the dataset, fault, or
	// swap-decision schedule of the same seed.
	ByzProb float64
	// ForceByzRounds lists rounds (0-based) that deterministically get an
	// attack, so short runs exercise every attack kind regardless of the
	// dice.
	ForceByzRounds []int
	// ForceBootFailRounds lists rounds (0-based) that deterministically
	// get both a CVE bomb and an all-images boot-failure policy, so runs
	// exercise the rollback path regardless of the dice.
	ForceBootFailRounds []int

	// ControllerFaults enables controller kill/restart chaos: rounds
	// randomly arm a crash plan that kills the controller a few WAL
	// appends into the round — usually mid-swap, between an intent record
	// and its outcome. The harness then probes the service while the
	// control plane is down and Recovers a successor from the WAL, which
	// must resolve the interrupted swap (resume, roll back, or roll
	// forward) without leaking nodes or unbalancing the ledger.
	ControllerFaults bool
	// ControllerKillProb is the per-round probability of arming a kill
	// when ControllerFaults is on (default 0.35). The kill dice use
	// their own rng stream, so enabling controller faults does not
	// perturb the dataset, fault, or swap-decision schedule of the
	// same seed.
	ControllerKillProb float64
	// WALPath, when set, backs the control plane with a file WAL at this
	// path, so crash-restart cycles also exercise on-disk replay (torn
	// tails, checksums). Empty keeps the WAL in memory.
	WALPath string

	// WANProfile, when non-empty, wraps the execution-plane network in
	// the named netem profile (see netem.Names): per-link latency, loss,
	// reordering and bandwidth caps, plus scheduled partition episodes —
	// symmetric splits, asymmetric mutes and node isolations cycling per
	// the profile's PartitionProb. Partition dice roll on their own rng
	// stream ("wan\0"), so enabling WAN conditions does not perturb the
	// fault or swap-decision schedule of the same seed. WAN runs set the
	// replicas' progress timer to 1.2s (200ms in memory) and widen the
	// swap-stage and catch-up deadlines (see RunChaos); every partitioned
	// round must reach a post-heal commit or it is a Violation.
	WANProfile string

	// Metrics, when set, aggregates the whole run: transport, every
	// replica, and the controller all report into it.
	Metrics *metrics.Registry
	// Logf receives progress logging (nil = discard).
	Logf func(format string, args ...any)
}

func (c *ChaosConfig) fill() {
	if c.Rounds <= 0 {
		c.Rounds = 25
	}
	if c.N <= 0 {
		c.N = 4
	}
	if c.ClientWorkers < 0 {
		c.ClientWorkers = 0
	}
	def := func(p *float64, v float64) {
		if *p == 0 {
			*p = v
		} else if *p < 0 {
			*p = 0
		}
	}
	def(&c.BootFailProb, 0.2)
	def(&c.BootStallProb, 0.1)
	def(&c.LTUFailProb, 0.15)
	def(&c.SilentProb, 0.2)
	def(&c.LinkLossProb, 0.2)
	def(&c.BombProb, 0.6)
	def(&c.ControllerKillProb, 0.35)
	def(&c.ByzProb, 0.5)
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ChaosReport summarizes a chaos run.
type ChaosReport struct {
	// Rounds actually executed.
	Rounds int
	// Reconfigs is how many rounds decided a replacement.
	Reconfigs int
	// RoundErrors is how many rounds returned an error (failed swaps,
	// exhausted pools under fault pressure, ...).
	RoundErrors int
	// Bombs is how many critical shared CVEs were published.
	Bombs int
	// FaultRounds counts rounds that had at least one fault active.
	FaultRounds int
	// Stats is the controller's final swap-engine telemetry.
	Stats SwapStats
	// History is the structured swap record.
	History []SwapRecord
	// Net is the transport's frame/drop counters.
	Net transport.Stats
	// Final is the controller's closing status.
	Final Status
	// Census is the closing execution-plane census.
	Census Census
	// ClientOps and ClientErrs tally the load clients' invokes; they sum
	// to Rounds × ClientWorkers × chaosPutsPerRound.
	ClientOps, ClientErrs uint64
	// ControllerKills and Recoveries count crash-restart cycles
	// (ControllerFaults runs; every kill must be matched by a recovery).
	ControllerKills, Recoveries int
	// DownProbes and DownProbeErrs tally the service probes issued while
	// the controller was dead. Individual probes may fail under
	// concurrent network faults; a kill round where none succeed is a
	// Violation (the execution plane must not depend on the control
	// plane for liveness).
	DownProbes, DownProbeErrs int
	// ByzRounds counts rounds that ran with attacker replicas installed.
	ByzRounds int
	// ByzSchedule records one "r<round>:<kind>@<nodes>" entry per
	// Byzantine round; identically-seeded runs must produce identical
	// schedules.
	ByzSchedule []string
	// ByzStats aggregates what the attackers actually did across the run
	// (a schedule full of idle attackers proves nothing).
	ByzStats bft.AttackerStats
	// ByzProbes and ByzProbeErrs tally the liveness/integrity probes
	// issued while attacks were live. A probe that cannot complete — or
	// that reads back a forged value — is a Violation.
	ByzProbes, ByzProbeErrs int
	// WANRounds counts rounds that opened a partition episode;
	// WANSchedule records one "r<round>:<desc>" entry per episode —
	// identically-seeded runs must produce identical schedules.
	WANRounds   int
	WANSchedule []string
	// WANProbes and WANProbeErrs tally the post-heal liveness probes. A
	// partitioned round whose heal is not followed by a commit is a
	// Violation.
	WANProbes, WANProbeErrs int
	// Netem is the condition layer's frame/drop/delay telemetry
	// (zero unless WANProfile was set).
	Netem netem.Stats
	// Generation is the final controller's recovery generation
	// (0 = the bootstrap controller survived the whole run).
	Generation int
	// WALRecords is the closing length of the control-plane WAL.
	WALRecords int
	// Violations lists every invariant violation observed (empty on a
	// healthy run).
	Violations []string
}

// chaosPutsPerRound is each load worker's work per chaos round.
const chaosPutsPerRound = 16

// ltuFaultMode is the per-round LTU fault switch.
type ltuFaultMode int32

const (
	ltuHealthy  ltuFaultMode = iota
	ltuFailing               // every command errors after authentication
	ltuStalling              // every command stalls past the stage timeout
)

// RunChaos builds a controller over an in-memory execution plane and runs
// the chaos loop. It returns an error only when the harness itself cannot
// run (bootstrap failure); protocol-level trouble shows up in the
// report's Violations instead.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	cfg.fill()
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	// The kill dice live on their own stream so controller faults never
	// shift the main schedule (dataset, faults, swap decisions) of a
	// given seed — runs with and without kills stay comparable.
	killRng := mrand.New(mrand.NewSource(cfg.Seed ^ 0x6b696c6c))
	// The Byzantine dice likewise get their own stream ("byza"), keeping
	// the main schedule comparable with and without attacks.
	byzRng := mrand.New(mrand.NewSource(cfg.Seed ^ 0x62797a61))
	// The WAN partition dice get their own stream ("wan\0") for the same
	// reason: a run with -wan keeps the fault/swap schedule of the plain
	// run with that seed.
	wanRng := mrand.New(mrand.NewSource(cfg.Seed ^ 0x77616e00))

	var wanProf *netem.Profile
	if cfg.WANProfile != "" {
		var err error
		if wanProf, err = netem.ByName(cfg.WANProfile); err != nil {
			return nil, err
		}
	}
	// The replicas' progress timer and the swap deadlines follow the
	// network the run builds. In memory they are LAN-tuned. Under a netem
	// profile a consensus round trip costs continental latency, so the
	// progress timer waits 1.2s (several geo3 round trips, as the bft WAN
	// tests run) and swap stages get real headroom: the LAN-tuned 2s stage
	// deadline aborts healthy swaps under continental RTTs, and a
	// timing-dependent abort makes the swap history diverge between
	// identically-seeded runs. The margin is deliberately generous — a
	// swap landing right after a censoring-primary round waits out the
	// view changes that demote it before its reconfig can commit, and a
	// shared CI box stretches every one of those latencies further.
	progressTimeout, stageTimeout, catchUpTimeout := 200*time.Millisecond, 2*time.Second, 2500*time.Millisecond
	if wanProf != nil {
		progressTimeout, stageTimeout, catchUpTimeout = 1200*time.Millisecond, 15*time.Second, 20*time.Second
	}

	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  cfg.Seed,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, err
	}

	// The memory network stays in `net` for the fault injectors
	// (Intercept/Isolate/Cut act on real queues); the controller and every
	// replica/client endpoint go through `cnet`, which is the netem
	// wrapper when a WAN profile is set. Closing the wrapper closes the
	// inner network too.
	net := transport.NewMemory(transport.MemoryConfig{Seed: cfg.Seed, Metrics: cfg.Metrics})
	var cnet transport.Network = net
	var wnet *netem.Network
	if wanProf != nil {
		wnet = netem.Wrap(net, netem.Config{Profile: wanProf, Seed: cfg.Seed, Metrics: cfg.Metrics})
		cnet = wnet
	}
	defer cnet.Close()

	// Hybrid clock: simulated days advance when intel is published, real
	// time keeps flowing so catch-up deadlines expire on the wall clock.
	base := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	var simDays atomic.Int64
	clock := func() time.Time {
		return base.Add(time.Duration(simDays.Load())*24*time.Hour + time.Since(start))
	}

	// Register the load workers plus the probe identities as clients. The
	// probe ids are fixed offsets past the workers: +1 controller-down,
	// +2 Byzantine, +3 post-heal WAN, +4 final liveness — registered
	// unconditionally so enabling a fault class never renumbers the rest.
	probes := cfg.ClientWorkers + 4
	clientKeys := make(map[transport.NodeID]ed25519.PublicKey, probes)
	clientPrivs := make(map[transport.NodeID]ed25519.PrivateKey, probes)
	for i := 0; i < probes; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		id := transport.ClientIDBase + transport.NodeID(1+i)
		clientKeys[id] = pub
		clientPrivs[id] = priv
	}

	// One WAL outlives every controller incarnation: the bootstrap
	// controller writes it, each recovered successor replays and extends
	// it.
	var wal WAL
	if cfg.WALPath != "" {
		fw, err := OpenFileWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		defer fw.Close()
		wal = fw
	} else {
		wal = NewMemWAL()
	}

	// published accumulates everything the OSINT layer has seen — the
	// synthetic corpus plus every bomb — because a recovering controller
	// rebuilds its risk state from the feeds, not the WAL.
	published := append([]*osint.Vulnerability(nil), ds.All()...)

	// stores keeps each node's latest store, so that a replay attacker can
	// answer reads from a copy of its replica's state frozen when armed.
	var storesMu sync.Mutex
	stores := make(map[transport.NodeID]*kvs.Store)

	var ltuMode atomic.Int32
	mkConfig := func(vulns []*osint.Vulnerability) Config {
		return Config{
			N:            cfg.N,
			Seed:         cfg.Seed,
			Clock:        clock,
			InitialVulns: vulns,
			Net:          cnet,
			App:          func() bft.Application { return kvs.New() },
			ClientKeys:   clientKeys,
			LTUSecret:    []byte("chaos-ltu-secret"),
			ReplicaTuning: func(rc *bft.ReplicaConfig) {
				if st, ok := rc.App.(*kvs.Store); ok {
					storesMu.Lock()
					stores[rc.ID] = st
					storesMu.Unlock()
				}
				rc.CheckpointInterval = 8
				rc.ViewChangeTimeout = progressTimeout
				rc.BatchDelay = time.Millisecond
			},
			CatchUpTimeout:   catchUpTimeout,
			SwapStageTimeout: stageTimeout,
			SwapAttempts:     2,
			SwapBackoff:      25 * time.Millisecond,
			SwapBackoffMax:   200 * time.Millisecond,
			WAL:              wal,
			Metrics:          cfg.Metrics,
			LTUInjector: func(node transport.NodeID, cmd ltu.Command) error {
				switch ltuFaultMode(ltuMode.Load()) {
				case ltuFailing:
					return fmt.Errorf("chaos: injected LTU fault on node %d", node)
				case ltuStalling:
					time.Sleep(stageTimeout + 250*time.Millisecond)
					return fmt.Errorf("chaos: stalled LTU on node %d", node)
				default:
					return nil
				}
			},
			Logf: cfg.Logf,
		}
	}
	ctrl, err := New(mkConfig(published))
	if err != nil {
		return nil, err
	}
	// ctrl is the live controller; it moves on crash-restart. A killed
	// predecessor is never Stop()ped — its nodes belong to the successor
	// now — only its control client dies.
	defer func() { ctrl.Stop() }()

	if err := ctrl.Bootstrap(ctx); err != nil {
		return nil, fmt.Errorf("chaos bootstrap: %w", err)
	}

	// The probe clients, one per probe path at the ids registered above:
	// controller-down (the execution plane serves without the control
	// plane), Byzantine (liveness and reply integrity under attack),
	// post-heal (every partition episode ends in a commit) and final.
	var probeCls [4]*bft.Client
	for i, on := range []bool{cfg.ControllerFaults, cfg.ByzFaults, wanProf != nil, true} {
		if !on {
			continue
		}
		id := transport.ClientIDBase + transport.NodeID(cfg.ClientWorkers+1+i)
		cl, err := ctrl.ServiceClient(id, clientPrivs[id])
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		probeCls[i] = cl
	}
	downCl, byzCl, wanCl, finalCl := probeCls[0], probeCls[1], probeCls[2], probeCls[3]

	// Client load: each round, every worker issues chaosPutsPerRound KVS
	// puts through the round's membership, so a seed fixes how much work
	// the run does. Their errors are expected under faults and only
	// tallied.
	var ops, opErrs atomic.Uint64
	workers := make([]*bft.Client, cfg.ClientWorkers)
	for w := range workers {
		id := transport.ClientIDBase + transport.NodeID(1+w)
		cl, err := ctrl.ServiceClient(id, clientPrivs[id])
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		workers[w] = cl
	}
	var load sync.WaitGroup
	startLoad := func(round int, m *bft.Membership) {
		for w, cl := range workers {
			cl.UpdateMembership(m.Replicas, m.Keys)
			load.Add(1)
			go func() {
				defer load.Done()
				for p := 0; p < chaosPutsPerRound; p++ {
					i := round*chaosPutsPerRound + p
					op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("w%d-k%d", w, i%32), Value: []byte{byte(i)}})
					ictx, cancel := context.WithTimeout(ctx, 2*time.Second)
					_, err := cl.Invoke(ictx, op)
					cancel()
					if err != nil {
						opErrs.Add(1)
						// Back off instead of hammering a disrupted group.
						select {
						case <-ctx.Done():
						case <-time.After(50 * time.Millisecond):
						}
						continue
					}
					ops.Add(1)
				}
			}()
		}
	}

	report := &ChaosReport{}
	forced := make(map[int]bool, len(cfg.ForceBootFailRounds))
	for _, r := range cfg.ForceBootFailRounds {
		forced[r] = true
	}
	forcedByz := make(map[int]bool, len(cfg.ForceByzRounds))
	for _, r := range cfg.ForceByzRounds {
		forcedByz[r] = true
	}
	// Attackers armed for the current round; cleared (and their actions
	// folded into the report) by disarmByz on every exit path.
	type armedAttacker struct {
		id  transport.NodeID
		atk *bft.Attacker
	}
	var attackers []armedAttacker
	disarmByz := func() {
		for _, aa := range attackers {
			net.Intercept(aa.id, nil)
			net.Observe(aa.id, nil)
			report.ByzStats.Add(aa.atk.Stats())
		}
		attackers = nil
	}
	defer disarmByz()
	allImages := func() map[string]bool {
		m := make(map[string]bool)
		for _, os := range catalog.Deployable() {
			m[os.ID] = true
		}
		return m
	}()
	bombSeq := 0
	checkRound := func(tag string) {
		for _, v := range checkInvariants(ctrl, cfg.N) {
			report.Violations = append(report.Violations, fmt.Sprintf("%s: %s", tag, v))
		}
	}

	// The silent member and the cut link of the current round (-1: none).
	var isolated, cutA, cutB transport.NodeID = -1, -1, -1
	// clearFaults lifts every fault the round installed: attackers, the
	// boot and LTU policies on c, the silent member and the cut link.
	clearFaults := func(c *Controller) {
		disarmByz()
		c.SetFaultPolicy(nil)
		ltuMode.Store(int32(ltuHealthy))
		if isolated >= 0 {
			net.Rejoin(isolated)
			isolated = -1
		}
		if cutA >= 0 {
			net.Heal(cutA, cutB)
			cutA, cutB = -1, -1
		}
	}

	for round := 0; round < cfg.Rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		report.Rounds++
		cur := ctrl
		startLoad(round, cur.Membership())

		// 1. Install this round's faults (last round's were cleared).
		faulty := false
		bomb := rng.Float64() < cfg.BombProb
		switch {
		case forced[round]:
			bomb = true
			cur.SetFaultPolicy(&deploy.FaultPolicy{FailPowerOnOS: allImages})
			faulty = true
		case rng.Float64() < cfg.BootFailProb:
			cur.SetFaultPolicy(&deploy.FaultPolicy{FailPowerOnOS: allImages})
			faulty = true
		case rng.Float64() < cfg.BootStallProb:
			cur.SetFaultPolicy(&deploy.FaultPolicy{StallBoot: stageTimeout + 300*time.Millisecond})
			faulty = true
		}
		if !faulty && rng.Float64() < cfg.LTUFailProb {
			if rng.Intn(2) == 0 {
				ltuMode.Store(int32(ltuFailing))
			} else {
				ltuMode.Store(int32(ltuStalling))
			}
			faulty = true
		}
		// 1b. Maybe turn f members Byzantine for the round. The kinds
		// cycle deterministically so every attack class gets exercised.
		// Byzantine replicas count against the same f budget as crash
		// faults, so a Byzantine round suppresses the silent-replica and
		// link-loss faults below: safety and liveness are only promised
		// for at most f simultaneous faulty members.
		byzKind := bft.AttackEquivocate
		if cfg.ByzFaults && (forcedByz[round] || byzRng.Float64() < cfg.ByzProb) {
			if mem := cur.Membership(); mem != nil && mem.F() > 0 {
				byzKind = bft.AttackKind(report.ByzRounds % 4)
				perm := byzRng.Perm(len(mem.Replicas))
				var ids []transport.NodeID
				for i := 0; i < mem.F(); i++ {
					id := mem.Replicas[perm[i]]
					key, kerr := cur.builder.PrivateKey(id)
					if kerr != nil {
						report.Violations = append(report.Violations,
							fmt.Sprintf("round %d: no key for attacker %d: %v", round, id, kerr))
						continue
					}
					atk := bft.NewAttacker(id, key, clientKeys, byzKind, byzRng.Int63())
					if byzKind == bft.AttackReplay {
						storesMu.Lock()
						live := stores[id]
						storesMu.Unlock()
						if frozen, ferr := frozenCopy(live); ferr == nil {
							atk.FreezeReads(frozen)
							net.Observe(id, atk.Observe)
						} else {
							cfg.Logf("chaos: round %d: replay attacker %d answers reads live: %v", round, id, ferr)
						}
					}
					net.Intercept(id, atk.Intercept)
					attackers = append(attackers, armedAttacker{id, atk})
					ids = append(ids, id)
				}
				if len(attackers) > 0 {
					report.ByzRounds++
					report.ByzSchedule = append(report.ByzSchedule,
						fmt.Sprintf("r%d:%s@%v", round, byzKind, ids))
					faulty = true
				}
			}
		}
		members := cur.Status().Members
		if len(attackers) == 0 && len(members) > 0 && rng.Float64() < cfg.SilentProb {
			isolated = members[rng.Intn(len(members))]
			net.Isolate(isolated)
			faulty = true
		}
		if len(attackers) == 0 && len(members) > 1 && rng.Float64() < cfg.LinkLossProb {
			cutA = members[rng.Intn(len(members))]
			cutB = members[rng.Intn(len(members))]
			if cutA != cutB {
				net.Cut(cutA, cutB)
				faulty = true
			} else {
				cutA, cutB = -1, -1
			}
		}
		// 1c. Maybe open a WAN partition episode: apply the drawn shape,
		// hold it long enough for the progress timers to take the strain,
		// heal, and demand a post-heal commit before the round proceeds.
		// Byzantine rounds are exempt — a partition on top of f attackers
		// exceeds what the protocol promises to survive. The episode runs
		// before MonitorRound so a quorum-denying cut never overlaps a
		// staged swap (that failure mode is the swap engine's own timeout
		// path, already exercised by the boot/LTU faults).
		if wnet != nil && len(attackers) == 0 && len(members) > 1 &&
			wanRng.Float64() < wanProf.PartitionProb {
			ep := netem.DrawPartition(wanRng, members, report.WANRounds)
			wnet.Apply(ep)
			report.WANRounds++
			report.WANSchedule = append(report.WANSchedule, fmt.Sprintf("r%d:%s", round, ep.Desc))
			faulty = true
			hold := time.Duration(400+wanRng.Intn(400)) * time.Millisecond
			select {
			case <-ctx.Done():
			case <-time.After(hold):
			}
			wnet.Revert(ep)
			report.WANProbes++
			if _, perr := probe(ctx, cur, wanCl, 10*time.Second, putOp(fmt.Sprintf("wan-r%d", round), "healed")); perr != nil {
				report.WANProbeErrs++
				report.Violations = append(report.Violations,
					fmt.Sprintf("round %d: no commit after healing %s: %v", round, ep.Desc, perr))
			}
		}
		if faulty {
			report.FaultRounds++
		}
		cfg.Logf("chaos: round %d: bomb=%v fault=%+v ltu=%d isolated=%d cut=%d-%d",
			round, bomb, cur.builder.FaultPolicy(), ltuMode.Load(), isolated, cutA, cutB)

		// 2. Maybe publish a fresh critical CVE shared by running OSes.
		if bomb {
			simDays.Add(1)
			now := clock()
			cfgOSes := cur.Status().Config
			if len(cfgOSes) >= 3 {
				var products []string
				for _, id := range cfgOSes[:3] {
					if os, err := catalog.ByID(id); err == nil {
						products = append(products, os.CPEProduct)
					}
				}
				bombSeq++
				v := &osint.Vulnerability{
					ID:          fmt.Sprintf("CVE-2018-77%03d", bombSeq),
					Description: "Remote code execution in the shared hypervisor escape path allows full host compromise via crafted descriptors.",
					Products:    products,
					Published:   now.AddDate(0, 0, -1),
					CVSS:        9.8,
					ExploitAt:   now.AddDate(0, 0, -1),
				}
				published = append(published, v)
				if err := cur.RefreshIntel(ctx, v); err != nil {
					report.Violations = append(report.Violations, fmt.Sprintf("round %d: refresh: %v", round, err))
				}
				report.Bombs++
			}
		}

		// 2b. Maybe arm a controller kill: the crash plan fires a few WAL
		// appends into the round, which on a swap round lands between a
		// stage intent and its outcome — the worst window.
		if cfg.ControllerFaults && killRng.Float64() < cfg.ControllerKillProb {
			left := new(atomic.Int64)
			left.Store(int64(1 + killRng.Intn(12)))
			cur.ScheduleCrash(func(WALRecord) bool { return left.Add(-1) == 0 })
		}

		// 3. One Algorithm 1 round with whatever faults are active.
		d, err := cur.MonitorRound(ctx)
		cur.ScheduleCrash(nil)
		if cur.isCrashed() {
			report.ControllerKills++
			cfg.Logf("chaos: round %d: controller killed (generation %d)", round, cur.Generation())

			// The execution plane must not depend on the control plane:
			// order requests through the dead controller's last membership
			// view. Individual probes may lose to the round's network
			// faults; all of them failing is a violation.
			served := 0
			var perr error
			for p := 0; p < 2; p++ {
				report.DownProbes++
				if _, perr = probe(ctx, cur, downCl, 3*time.Second, putOp(fmt.Sprintf("down-r%d-p%d", round, p), "ok")); perr != nil {
					report.DownProbeErrs++
				} else {
					served++
				}
			}
			if served == 0 {
				report.Violations = append(report.Violations,
					fmt.Sprintf("round %d: service unavailable while controller down: %v", round, perr))
			}

			// Clear the injected faults before recovery, like a restart
			// that outlives the transient failure, then bring up the
			// successor from the shared WAL and the surviving plant.
			load.Wait()
			clearFaults(cur)
			next, rerr := Recover(ctx, mkConfig(append([]*osint.Vulnerability(nil), published...)), cur.Plant())
			if rerr != nil {
				report.Violations = append(report.Violations, fmt.Sprintf("round %d: recover: %v", round, rerr))
				break
			}
			report.Recoveries++
			if cur.client != nil {
				cur.client.Close()
			}
			ctrl, cur = next, next
		} else if err != nil {
			report.RoundErrors++
			cfg.Logf("chaos: round %d: %v", round, err)
		}
		if d.Reconfigured && err == nil {
			report.Reconfigs++
		}

		// 3b. While the attack is still live, prove liveness and reply
		// integrity: the group must order fresh commands with f members
		// Byzantine — a censoring primary in particular must have been
		// demoted by view change — and the probe client must read back
		// the true value, never a forged reply (it needs f+1 matching
		// replies, and only the f attackers lie).
		if len(attackers) > 0 {
			report.ByzProbes++
			// Demoting a censoring primary takes several progress-timer
			// firings; under a WAN profile each one waits the 1.2s timer,
			// so the probe deadline scales with them.
			probeTimeout := 5 * time.Second
			if wanProf != nil {
				probeTimeout = 20 * time.Second
			}
			key := fmt.Sprintf("byz-r%d", round)
			val := fmt.Sprintf("v%d", round)
			getOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: key})
			res, perr := probe(ctx, cur, byzCl, probeTimeout, putOp(key, val), getOp)
			switch want := "VAL" + val; {
			case perr != nil:
				report.ByzProbeErrs++
				report.Violations = append(report.Violations,
					fmt.Sprintf("round %d: no progress under %s attack: %v", round, byzKind, perr))
			case string(res) != want:
				report.ByzProbeErrs++
				report.Violations = append(report.Violations,
					fmt.Sprintf("round %d: %s attack forged a reply: got %q want %q", round, byzKind, res, want))
			}
		}

		// 4. Clear transient faults and verify the invariants held. After
		// a Byzantine round, also cross-check every replica's execution
		// trace: no two replicas may have executed different commands at
		// the same sequence number, no matter what the attackers sent.
		byzRound := len(attackers) > 0
		load.Wait()
		clearFaults(cur)
		if byzRound {
			for _, v := range checkExecTraces(cur) {
				report.Violations = append(report.Violations, fmt.Sprintf("round %d: %s", round, v))
			}
		}
		checkRound(fmt.Sprintf("round %d", round))
	}

	// Settling rounds with no faults: quarantined images requeue, and any
	// pending replacement gets a clean shot.
	for i := 0; i < 2 && ctx.Err() == nil; i++ {
		if _, err := ctrl.MonitorRound(ctx); err != nil {
			cfg.Logf("chaos: settling round: %v", err)
		}
	}
	checkRound("final")
	if cfg.ByzFaults {
		for _, v := range checkExecTraces(ctrl) {
			report.Violations = append(report.Violations, fmt.Sprintf("final: %s", v))
		}
	}

	// Closing liveness probe: the service must still order requests
	// through the final membership.
	if _, err := probe(ctx, ctrl, finalCl, 15*time.Second, putOp("chaos-final", "ok")); err != nil {
		report.Violations = append(report.Violations, fmt.Sprintf("final liveness probe: %v", err))
	}

	report.Stats = ctrl.SwapStats()
	report.History = ctrl.SwapHistory()
	report.Net = net.Stats()
	if wnet != nil {
		report.Netem = wnet.NetemStats()
	}
	report.Final = ctrl.Status()
	report.Census = ctrl.Census()
	report.ClientOps = ops.Load()
	report.ClientErrs = opErrs.Load()
	report.Generation = ctrl.Generation()
	switch w := wal.(type) {
	case *MemWAL:
		report.WALRecords = w.Len()
	default:
		n := 0
		if err := wal.Replay(func(WALRecord) error { n++; return nil }); err == nil {
			report.WALRecords = n
		}
	}
	return report, nil
}

// liveReplicas collects every running replica of the controller's nodes,
// with their ids in ascending order.
func liveReplicas(c *Controller) ([]transport.NodeID, map[transport.NodeID]*bft.Replica) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reps := make(map[transport.NodeID]*bft.Replica, len(c.nodes))
	ids := make([]transport.NodeID, 0, len(c.nodes))
	for id, slot := range c.nodes {
		if slot == nil || slot.node == nil {
			continue
		}
		if r := slot.node.Replica(); r != nil {
			reps[id] = r
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, reps
}

// frozenCopy returns a new store holding live's current state.
func frozenCopy(live *kvs.Store) (*kvs.Store, error) {
	if live == nil {
		return nil, errors.New("chaos: no store to freeze")
	}
	snap, err := live.Snapshot()
	if err != nil {
		return nil, err
	}
	frozen := kvs.New()
	return frozen, frozen.Restore(snap)
}

// probe points cl at c's current membership and runs ops through it in
// order, each under timeout: the deadline the harness declares for this
// probe is the only bound on its wait. It returns the last op's result.
// A failed probe's error says where every live replica stood, so the
// report of a stall names the replica holding it up.
func probe(ctx context.Context, c *Controller, cl *bft.Client, timeout time.Duration, ops ...[]byte) ([]byte, error) {
	if m := c.Membership(); m != nil {
		cl.UpdateMembership(m.Replicas, m.Keys)
	}
	var res []byte
	for _, op := range ops {
		ictx, cancel := context.WithTimeout(ctx, timeout)
		var err error
		res, err = cl.Invoke(ictx, op)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%w; positions: %s", err, positions(c))
		}
	}
	return res, nil
}

// putOp encodes a KVS put of value under key.
func putOp(key, value string) []byte {
	op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: key, Value: []byte(value)})
	return op
}

// positions reports every running replica's protocol position, by id.
func positions(c *Controller) string {
	ids, reps := liveReplicas(c)
	var b strings.Builder
	for i, id := range ids {
		st := reps[id].Stats()
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "replica %d epoch %d view %d lastExec %d low %d pending %d vcs %d xfers %d",
			id, st.CurrentEpoch, st.CurrentView, st.LastExecuted, st.LowWater,
			st.PendingRequests, st.ViewChanges, st.StateTransfers)
	}
	return b.String()
}

// checkExecTraces is the Byzantine safety cross-check: it collects every
// running replica's recent execution trace and verifies that no two
// replicas executed different command batches at the same sequence
// number. The attackers only control compromised replicas' *sends*, so
// every replica's own trace is trustworthy evidence of what it executed.
func checkExecTraces(c *Controller) []string {
	ids, reps := liveReplicas(c)
	var v []string
	nullDigest := (&bft.Batch{}).Digest()
	kind := func(d bft.Digest) string {
		if d == nullDigest {
			return "null"
		}
		return fmt.Sprintf("%x", d[:4])
	}
	first := make(map[uint64]bft.ExecRecord)   // seq -> first record seen
	owner := make(map[uint64]transport.NodeID) // seq -> replica that set it
	for _, id := range ids {
		for _, rec := range reps[id].ExecTrace() {
			if prev, ok := first[rec.Seq]; ok {
				if prev.Digest != rec.Digest {
					v = append(v, fmt.Sprintf(
						"SAFETY: replicas %d and %d executed different batches at seq %d "+
							"(%d: batch %s at epoch %d view %d; %d: batch %s at epoch %d view %d)",
						owner[rec.Seq], id, rec.Seq,
						owner[rec.Seq], kind(prev.Digest), prev.Epoch, prev.View,
						id, kind(rec.Digest), rec.Epoch, rec.View))
				}
				continue
			}
			first[rec.Seq] = rec
			owner[rec.Seq] = id
		}
	}
	return v
}

// checkInvariants verifies the chaos safety conditions against the
// controller's current state:
//
//  1. the service runs exactly n=3f+1 replicas, all of them members;
//  2. the membership mirrors the OS→node map exactly (no half-applied
//     ADDs, no forgotten REMOVEs);
//  3. no node runs outside the membership (no leaked joiners);
//  4. the swap ledger balances: attempts = successes + rollbacks, with
//     no failed compensations.
func checkInvariants(c *Controller, n int) []string {
	var v []string
	st := c.Status()
	census := c.Census()

	if len(st.Config) != n {
		v = append(v, fmt.Sprintf("config has %d OSes, want %d (%v)", len(st.Config), n, st.Config))
	}
	if len(st.Members) != n {
		v = append(v, fmt.Sprintf("membership has %d replicas, want %d (%v)", len(st.Members), n, st.Members))
	}
	if len(st.Nodes) != n {
		v = append(v, fmt.Sprintf("os->node map has %d entries, want %d (%v)", len(st.Nodes), n, st.Nodes))
	}
	// Membership and osToNode must be exactly the same node set.
	nodeSet := make([]transport.NodeID, 0, len(st.Nodes))
	for _, id := range st.Nodes {
		nodeSet = append(nodeSet, id)
	}
	sort.Slice(nodeSet, func(i, j int) bool { return nodeSet[i] < nodeSet[j] })
	members := append([]transport.NodeID(nil), st.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if fmt.Sprint(nodeSet) != fmt.Sprint(members) {
		v = append(v, fmt.Sprintf("membership %v != os->node nodes %v", members, nodeSet))
	}
	// Every config OS maps to a node.
	for _, osID := range st.Config {
		if _, ok := st.Nodes[osID]; !ok {
			v = append(v, fmt.Sprintf("config OS %s has no node", osID))
		}
	}
	if len(census.Running) != n {
		v = append(v, fmt.Sprintf("%d replicas running, want %d", len(census.Running), n))
	}
	if len(census.Orphans) > 0 {
		v = append(v, fmt.Sprintf("leaked nodes running outside the membership: %v", census.Orphans))
	}
	stats := c.SwapStats()
	if stats.RollbackFailures > 0 {
		v = append(v, fmt.Sprintf("%d swap compensations failed", stats.RollbackFailures))
	}
	if stats.Attempts != stats.Successes+stats.Rollbacks+stats.RollbackFailures {
		v = append(v, fmt.Sprintf("swap ledger unbalanced: %d attempts vs %d successes + %d rollbacks + %d aborts",
			stats.Attempts, stats.Successes, stats.Rollbacks, stats.RollbackFailures))
	}
	return v
}
