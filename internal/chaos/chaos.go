// Package chaos is the control plane's fault-injection harness. It runs
// the full Lazarus loop — intel refresh, Algorithm 1 rounds, staged swaps
// — under client load while a seeded schedule injects one fault family
// per mechanism: provisioning faults through the LTU injector, partitions
// (a silent member, a cut link, WAN episodes) through one netem layer,
// Byzantine replicas through the memory network's send hooks, and
// controller kills through the WAL crash plan. It then verifies that the
// service invariant held (n=3f+1 live correct replicas, membership
// exactly mirroring the OS→node map), that every failed swap was
// compensated, and, after Byzantine rounds, that no two replicas executed
// different batches. `lazbench chaos` drives it; seeded runs are in the
// test suite.
//
// The harness uses only the controller's exported API.
package chaos

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/ltu"
	"lazarus/internal/metrics"
	"lazarus/internal/netem"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

// Config parameterizes a chaos run. The zero value gets sensible
// defaults from fill.
type Config struct {
	// Rounds is how many monitor rounds to run (default 25).
	Rounds int
	// Seed drives every random choice: the synthetic dataset, the
	// controller, and the fault schedule.
	Seed int64
	// ClientWorkers is how many KVS clients load the run; each issues
	// PutsPerRound puts every round (0 disables load).
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
	// get both a CVE bomb and an all-images boot failure, so runs
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

	// WANProfile, when non-empty, conditions the execution-plane network
	// with the named netem profile (see netem.Names): per-link latency,
	// loss, reordering and bandwidth caps, plus scheduled partition
	// episodes — symmetric splits, asymmetric mutes and node isolations
	// cycling per the profile's PartitionProb. Partition dice roll on
	// their own rng stream ("wan\0"), so enabling WAN conditions does not
	// perturb the fault or swap-decision schedule of the same seed. WAN
	// runs set the replicas' progress timer to 1.2s (200ms in memory) and
	// widen the swap-stage and catch-up deadlines (see Run); every
	// partitioned round must reach a post-heal commit or it is a
	// Violation.
	WANProfile string

	// Metrics, when set, aggregates the whole run: transport, every
	// replica, and the controller all report into it.
	Metrics *metrics.Registry
	// Logf receives progress logging (nil = discard).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Rounds <= 0 {
		c.Rounds = 25
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

// Report summarizes a chaos run.
type Report struct {
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
	Stats controlplane.SwapStats
	// History is the structured swap record.
	History []controlplane.SwapRecord
	// Net is the memory network's frame/drop counters.
	Net transport.Stats
	// Final is the controller's closing status.
	Final controlplane.Status
	// Census is the closing execution-plane census.
	Census controlplane.Census
	// ClientOps and ClientErrs tally the load clients' invokes; they sum
	// to Rounds × ClientWorkers × PutsPerRound.
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
	// issued while attacks were live, one per Byzantine round (kill
	// rounds included). A probe that cannot complete — or that reads back
	// a forged value — is a Violation.
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
	// Netem is the condition layer's frame/drop/delay telemetry; without
	// a WANProfile only partitions drop, and nothing is delayed.
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

// PutsPerRound is each load worker's work per chaos round.
const PutsPerRound = 16

// ltuMode is the LTU injector's per-round fault: the harness's one
// handle on provisioning, as every power command goes through an LTU.
type ltuMode int32

const (
	ltuHealthy   ltuMode = iota
	bootFailing          // power-on commands error out
	bootStalling         // a node's first power-on stalls past the stage timeout, then boots
	ltuFailing           // every command errors out
	ltuStalling          // every command stalls past the stage timeout, then errors out
)

// harness is one chaos run's state.
type harness struct {
	cfg    Config
	ctx    context.Context
	report *Report

	// The four rng streams. The kill, Byzantine and WAN dice each get
	// their own, so enabling those faults never shifts the main schedule
	// (dataset, faults, swap decisions) of a seed.
	rng, killRng, byzRng, wanRng *mrand.Rand

	wan          *netem.Profile // nil: no conditioning, partitions only
	stageTimeout time.Duration
	mem          *transport.Memory // attackers hook its sends
	net          *netem.Network    // every endpoint and every partition
	ltu          atomic.Int32      // the LTU injector's ltuMode
	stallMu      sync.Mutex
	stalled      map[transport.NodeID]bool // nodes whose boot stalled this round

	ctrl             *controlplane.Controller // the live one; moves on recovery
	controllerConfig func(vulns []*osint.Vulnerability) controlplane.Config
	clock            func() time.Time
	simDays          atomic.Int64
	bombSeq          int
	// published accumulates everything the OSINT layer has seen — the
	// synthetic corpus plus every bomb — because a recovering controller
	// rebuilds its risk state from the feeds, not the WAL.
	published []*osint.Vulnerability

	clientKeys            map[transport.NodeID]ed25519.PublicKey
	probeCl               *bft.Client
	workers               []*bft.Client
	load                  sync.WaitGroup
	clientOps, clientErrs atomic.Uint64

	// stores keeps each node's latest store, so that a replay attacker
	// can answer reads from a copy of its replica's state frozen when
	// armed.
	storesMu sync.Mutex
	stores   map[transport.NodeID]*kvs.Store
}

// round is one monitor round's armed faults.
type round struct {
	n         int
	ctrl      *controlplane.Controller
	members   []transport.NodeID
	bomb      bool
	armed     []string // the faults armed, for the report and the log
	attackers map[transport.NodeID]*bft.Attacker
	byzKind   bft.AttackKind
	parts     []*netem.Partition // applied partitions, reverted at the round's end
}

// faultSteps arm a round's faults, in this order. The order is the rng
// streams' contract: a seed replays its schedule only while every step
// draws exactly what it drew before, one draw for one draw.
var faultSteps = [...]func(*harness, *round){
	(*harness).bombStep,
	(*harness).bootStep,
	(*harness).ltuStep,
	(*harness).byzStep,
	(*harness).silentStep,
	(*harness).linkStep,
	(*harness).wanStep,
}

// Run builds a controller over an in-memory execution plane and runs the
// chaos loop. It returns an error only when the harness itself cannot run
// (bootstrap failure); protocol-level trouble shows up in the report's
// Violations instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.fill()
	h := &harness{
		cfg:     cfg,
		ctx:     ctx,
		report:  &Report{},
		rng:     mrand.New(mrand.NewSource(cfg.Seed)),
		killRng: mrand.New(mrand.NewSource(cfg.Seed ^ 0x6b696c6c)), // "kill"
		byzRng:  mrand.New(mrand.NewSource(cfg.Seed ^ 0x62797a61)), // "byza"
		wanRng:  mrand.New(mrand.NewSource(cfg.Seed ^ 0x77616e00)), // "wan\0"
		stores:  make(map[transport.NodeID]*kvs.Store),
		stalled: make(map[transport.NodeID]bool),
	}
	if cfg.WANProfile != "" {
		var err error
		if h.wan, err = netem.ByName(cfg.WANProfile); err != nil {
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
	progressTimeout, catchUpTimeout := 200*time.Millisecond, 2500*time.Millisecond
	h.stageTimeout = 2 * time.Second
	if h.wan != nil {
		progressTimeout, catchUpTimeout = 1200*time.Millisecond, 20*time.Second
		h.stageTimeout = 15 * time.Second
	}

	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  cfg.Seed,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, err
	}

	// Every endpoint goes through the netem layer, where the partitions
	// live; attackers hook the memory network beneath it. Closing the
	// layer closes the memory network too.
	h.mem = transport.NewMemory(transport.MemoryConfig{Seed: cfg.Seed, Metrics: cfg.Metrics})
	h.net = netem.Wrap(h.mem, netem.Config{Profile: h.wan, Seed: cfg.Seed, Metrics: cfg.Metrics})
	defer h.net.Close()

	// Hybrid clock: simulated days advance when intel is published, real
	// time keeps flowing so catch-up deadlines expire on the wall clock.
	base := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	start := time.Now()
	h.clock = func() time.Time {
		return base.Add(time.Duration(h.simDays.Load())*24*time.Hour + time.Since(start))
	}

	// Register the load workers, then the probe client, as clients.
	h.clientKeys = make(map[transport.NodeID]ed25519.PublicKey, cfg.ClientWorkers+1)
	clientPrivs := make(map[transport.NodeID]ed25519.PrivateKey, cfg.ClientWorkers+1)
	for i := 0; i <= cfg.ClientWorkers; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		id := transport.ClientIDBase + transport.NodeID(1+i)
		h.clientKeys[id] = pub
		clientPrivs[id] = priv
	}

	// One WAL outlives every controller incarnation: the bootstrap
	// controller writes it, each recovered successor replays and extends
	// it.
	var wal controlplane.WAL
	if cfg.WALPath != "" {
		fw, err := controlplane.OpenFileWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		defer fw.Close()
		wal = fw
	} else {
		wal = controlplane.NewMemWAL()
	}

	h.published = append([]*osint.Vulnerability(nil), ds.All()...)

	h.controllerConfig = func(vulns []*osint.Vulnerability) controlplane.Config {
		return controlplane.Config{
			Seed:         cfg.Seed,
			Clock:        h.clock,
			InitialVulns: vulns,
			Net:          h.net,
			App:          func() bft.Application { return kvs.New() },
			ClientKeys:   h.clientKeys,
			LTUSecret:    []byte("chaos-ltu-secret"),
			ReplicaTuning: func(rc *bft.ReplicaConfig) {
				if st, ok := rc.App.(*kvs.Store); ok {
					h.storesMu.Lock()
					h.stores[rc.ID] = st
					h.storesMu.Unlock()
				}
				rc.CheckpointInterval = 8
				rc.ViewChangeTimeout = progressTimeout
				rc.BatchDelay = time.Millisecond
			},
			CatchUpTimeout:   catchUpTimeout,
			SwapStageTimeout: h.stageTimeout,
			SwapAttempts:     2,
			SwapBackoff:      25 * time.Millisecond,
			SwapBackoffMax:   200 * time.Millisecond,
			WAL:              wal,
			Metrics:          cfg.Metrics,
			LTUInjector:      h.injectLTU,
			Logf:             cfg.Logf,
		}
	}
	if h.ctrl, err = controlplane.New(h.controllerConfig(h.published)); err != nil {
		return nil, err
	}
	// A killed predecessor is never Stop()ped — its nodes belong to the
	// successor now — and Recover closes its control client.
	defer func() { h.ctrl.Stop() }()
	if err := h.ctrl.Bootstrap(ctx); err != nil {
		return nil, fmt.Errorf("chaos bootstrap: %w", err)
	}

	// One probe client serves every probe path: controller-down (the
	// execution plane serves without the control plane), Byzantine
	// (liveness and reply integrity under attack), post-heal (every
	// partition episode ends in a commit) and final. Probes run one at a
	// time.
	probeID := transport.ClientIDBase + transport.NodeID(cfg.ClientWorkers+1)
	if h.probeCl, err = h.ctrl.ServiceClient(probeID, clientPrivs[probeID]); err != nil {
		return nil, err
	}
	defer h.probeCl.Close()
	h.workers = make([]*bft.Client, cfg.ClientWorkers)
	for w := range h.workers {
		id := transport.ClientIDBase + transport.NodeID(1+w)
		if h.workers[w], err = h.ctrl.ServiceClient(id, clientPrivs[id]); err != nil {
			return nil, err
		}
		defer h.workers[w].Close()
	}

	for n := 0; n < cfg.Rounds && ctx.Err() == nil; n++ {
		if !h.runRound(n) {
			break
		}
	}

	// Settling rounds with no faults: quarantined images requeue, and any
	// pending replacement gets a clean shot.
	for i := 0; i < 2 && ctx.Err() == nil; i++ {
		if _, err := h.ctrl.MonitorRound(ctx); err != nil {
			cfg.Logf("chaos: settling round: %v", err)
		}
	}
	h.check("final", h.ctrl.Invariants())
	if cfg.ByzFaults {
		h.check("final", checkExecTraces(h.ctrl))
	}

	// Closing liveness probe: the service must still order requests
	// through the final membership.
	if _, err := probe(ctx, h.ctrl, h.probeCl, 15*time.Second, putOp("chaos-final", "ok")); err != nil {
		h.violation("final liveness probe: %v", err)
	}
	return h.finish(wal), nil
}

// runRound runs one monitor round: arm the faults, publish the bomb, arm
// the kill, run Algorithm 1, probe, clear, recover a killed controller,
// and check. It reports false when the run cannot go on.
func (h *harness) runRound(n int) bool {
	ctx, rep := h.ctx, h.report
	rep.Rounds++
	r := &round{n: n, ctrl: h.ctrl}
	m := r.ctrl.Membership()
	r.members = m.Replicas
	h.startLoad(n, m)

	// 1. Arm this round's faults (the last round's were cleared).
	for _, step := range faultSteps {
		step(h, r)
	}
	if len(r.armed) > 0 {
		rep.FaultRounds++
	}
	h.cfg.Logf("chaos: round %d: bomb=%v faults=%v", n, r.bomb, r.armed)

	// 2. Maybe publish a fresh critical CVE shared by running OSes.
	if r.bomb {
		h.publishBomb(r)
	}

	// 2b. Maybe arm a controller kill: the crash plan fires a few WAL
	// appends into the round, which on a swap round lands between a
	// stage intent and its outcome — the worst window.
	if h.cfg.ControllerFaults && h.killRng.Float64() < h.cfg.ControllerKillProb {
		left := new(atomic.Int64)
		left.Store(int64(1 + h.killRng.Intn(12)))
		r.ctrl.ScheduleCrash(func(controlplane.WALRecord) bool { return left.Add(-1) == 0 })
	}

	// 3. One Algorithm 1 round with whatever faults are active.
	d, err := r.ctrl.MonitorRound(ctx)
	r.ctrl.ScheduleCrash(nil)
	killed := r.ctrl.Crashed()
	switch {
	case killed:
		rep.ControllerKills++
		h.cfg.Logf("chaos: round %d: controller killed (generation %d)", n, r.ctrl.Generation())
		h.downProbes(r)
	case err != nil:
		rep.RoundErrors++
		h.cfg.Logf("chaos: round %d: %v", n, err)
	}
	if d.Reconfigured && err == nil {
		rep.Reconfigs++
	}

	// 3b. While the attack is still live — on a kill round too, beside
	// the controller-down probes — prove liveness and reply integrity.
	byzRound := len(r.attackers) > 0
	if byzRound {
		h.byzProbe(r)
	}

	// 4. Clear the round's faults. A killed controller's successor comes
	// up after them, like a restart that outlives the transient failure,
	// from the shared WAL and the surviving plant.
	h.load.Wait()
	h.disarm(r)
	if killed {
		next, rerr := controlplane.Recover(ctx,
			h.controllerConfig(append([]*osint.Vulnerability(nil), h.published...)), r.ctrl.Plant())
		if rerr != nil {
			h.violation("round %d: recover: %v", n, rerr)
			return false
		}
		rep.Recoveries++
		h.ctrl = next
	}

	// 5. Verify the invariants held. After a Byzantine round, also
	// cross-check every replica's execution trace: no two replicas may
	// have executed different commands at the same sequence number, no
	// matter what the attackers sent.
	tag := fmt.Sprintf("round %d", n)
	if byzRound {
		h.check(tag, checkExecTraces(h.ctrl))
	}
	h.check(tag, h.ctrl.Invariants())
	return true
}

// bombStep draws whether a critical shared CVE is published this round.
func (h *harness) bombStep(r *round) {
	r.bomb = h.rng.Float64() < h.cfg.BombProb
}

// bootStep arms an all-images boot failure (forced rounds also bomb) or a
// boot stall.
func (h *harness) bootStep(r *round) {
	switch {
	case slices.Contains(h.cfg.ForceBootFailRounds, r.n):
		r.bomb = true
		h.armLTU(r, bootFailing, "boot-fail")
	case h.rng.Float64() < h.cfg.BootFailProb:
		h.armLTU(r, bootFailing, "boot-fail")
	case h.rng.Float64() < h.cfg.BootStallProb:
		h.armLTU(r, bootStalling, "boot-stall")
	}
}

// ltuStep arms failing or stalling LTUs, in a round without a boot fault.
func (h *harness) ltuStep(r *round) {
	if len(r.armed) > 0 || h.rng.Float64() >= h.cfg.LTUFailProb {
		return
	}
	if h.rng.Intn(2) == 0 {
		h.armLTU(r, ltuFailing, "ltu-fail")
	} else {
		h.armLTU(r, ltuStalling, "ltu-stall")
	}
}

func (h *harness) armLTU(r *round, mode ltuMode, desc string) {
	h.ltu.Store(int32(mode))
	r.armed = append(r.armed, desc)
}

// injectLTU is every LTU's fault hook: it fails or stalls the commands
// the round's mode names.
func (h *harness) injectLTU(node transport.NodeID, cmd ltu.Command) error {
	mode := ltuMode(h.ltu.Load())
	powerOn := cmd.Action == ltu.ActionPowerOn
	switch {
	case mode == ltuFailing || mode == bootFailing && powerOn:
		return fmt.Errorf("chaos: injected %v fault on node %d", cmd.Action, node)
	case mode == ltuStalling:
		time.Sleep(h.stageTimeout + 250*time.Millisecond)
		return fmt.Errorf("chaos: stalled LTU on node %d", node)
	case mode == bootStalling && powerOn:
		// An image that boots far slower than its profile: the retry the
		// stage timeout provokes finds the node running and succeeds.
		h.stallMu.Lock()
		first := !h.stalled[node]
		h.stalled[node] = true
		h.stallMu.Unlock()
		if first {
			time.Sleep(h.stageTimeout + 300*time.Millisecond)
		}
	}
	return nil
}

// byzStep maybe turns f members Byzantine for the round. The kinds cycle
// deterministically so every attack class gets exercised. Byzantine
// replicas count against the same f budget as crash faults, so a
// Byzantine round suppresses the partition steps after it: safety and
// liveness are only promised for at most f simultaneous faulty members.
func (h *harness) byzStep(r *round) {
	if !h.cfg.ByzFaults || !(slices.Contains(h.cfg.ForceByzRounds, r.n) || h.byzRng.Float64() < h.cfg.ByzProb) {
		return
	}
	m := r.ctrl.Membership()
	if m.F() == 0 {
		return
	}
	kind := bft.AttackKind(h.report.ByzRounds % 4)
	perm := h.byzRng.Perm(len(m.Replicas))
	r.attackers = make(map[transport.NodeID]*bft.Attacker)
	var ids []transport.NodeID
	for i := 0; i < m.F(); i++ {
		id := m.Replicas[perm[i]]
		key, err := r.ctrl.NodeKey(id)
		if err != nil {
			h.violation("round %d: no key for attacker %d: %v", r.n, id, err)
			continue
		}
		atk := bft.NewAttacker(id, key, h.clientKeys, kind, h.byzRng.Int63())
		if kind == bft.AttackReplay {
			h.storesMu.Lock()
			live := h.stores[id]
			h.storesMu.Unlock()
			if frozen, ferr := frozenCopy(live); ferr == nil {
				atk.FreezeReads(frozen)
				h.mem.Observe(id, atk.Observe)
			} else {
				h.cfg.Logf("chaos: round %d: replay attacker %d answers reads live: %v", r.n, id, ferr)
			}
		}
		h.mem.Intercept(id, atk.Intercept)
		r.attackers[id] = atk
		ids = append(ids, id)
	}
	if len(r.attackers) > 0 {
		r.byzKind = kind
		h.report.ByzRounds++
		h.report.ByzSchedule = append(h.report.ByzSchedule, fmt.Sprintf("r%d:%s@%v", r.n, kind, ids))
		r.armed = append(r.armed, fmt.Sprintf("%s@%v", kind, ids))
	}
}

// silentStep maybe isolates one member from every other endpoint, both
// ways, for the round.
func (h *harness) silentStep(r *round) {
	if len(r.attackers) > 0 || len(r.members) == 0 || h.rng.Float64() >= h.cfg.SilentProb {
		return
	}
	victim := r.members[h.rng.Intn(len(r.members))]
	h.partition(r, netem.IsolateNode(h.net.Nodes(), victim))
}

// linkStep maybe cuts the link between two members, both ways, for the
// round.
func (h *harness) linkStep(r *round) {
	if len(r.attackers) > 0 || len(r.members) < 2 || h.rng.Float64() >= h.cfg.LinkLossProb {
		return
	}
	a := r.members[h.rng.Intn(len(r.members))]
	b := r.members[h.rng.Intn(len(r.members))]
	if a != b {
		h.partition(r, netem.SymmetricSplit([]transport.NodeID{a, b}, 1))
	}
}

// wanStep maybe opens a WAN partition episode: apply the drawn shape,
// hold it long enough for the progress timers to take the strain, heal,
// and demand a post-heal commit before the round proceeds. Byzantine
// rounds are exempt — a partition on top of f attackers exceeds what the
// protocol promises to survive. The episode runs before MonitorRound so a
// quorum-denying cut never overlaps a staged swap (that failure mode is
// the swap engine's own timeout path, already exercised by the boot/LTU
// faults).
func (h *harness) wanStep(r *round) {
	if h.wan == nil || len(r.attackers) > 0 || len(r.members) < 2 ||
		h.wanRng.Float64() >= h.wan.PartitionProb {
		return
	}
	rep := h.report
	ep := netem.DrawPartition(h.wanRng, r.members, rep.WANRounds)
	h.partition(r, ep) // the round's last partition, healed below
	rep.WANRounds++
	rep.WANSchedule = append(rep.WANSchedule, fmt.Sprintf("r%d:%s", r.n, ep.Desc))
	hold := time.Duration(400+h.wanRng.Intn(400)) * time.Millisecond
	select {
	case <-h.ctx.Done():
	case <-time.After(hold):
	}
	h.net.Revert(ep)
	r.parts = r.parts[:len(r.parts)-1]
	rep.WANProbes++
	if _, err := probe(h.ctx, r.ctrl, h.probeCl, 10*time.Second, putOp(fmt.Sprintf("wan-r%d", r.n), "healed")); err != nil {
		rep.WANProbeErrs++
		h.violation("round %d: no commit after healing %s: %v", r.n, ep.Desc, err)
	}
}

// partition applies p until the round's end.
func (h *harness) partition(r *round, p *netem.Partition) {
	h.net.Apply(p)
	r.parts = append(r.parts, p)
	r.armed = append(r.armed, p.Desc)
}

// disarm clears every fault the round armed: the LTU mode, the attackers
// (folding their actions into the report), and the partitions.
func (h *harness) disarm(r *round) {
	h.ltu.Store(int32(ltuHealthy))
	h.stallMu.Lock()
	clear(h.stalled)
	h.stallMu.Unlock()
	for id, atk := range r.attackers {
		h.mem.Intercept(id, nil)
		h.mem.Observe(id, nil)
		h.report.ByzStats.Add(atk.Stats())
	}
	r.attackers = nil
	for _, p := range r.parts {
		h.net.Revert(p)
	}
	r.parts = nil
}

// publishBomb publishes a fresh critical CVE shared by the first three
// configured OSes, one simulated day after the last.
func (h *harness) publishBomb(r *round) {
	h.simDays.Add(1)
	now := h.clock()
	cfgOSes := r.ctrl.Status().Config
	if len(cfgOSes) < 3 {
		return
	}
	var products []string
	for _, id := range cfgOSes[:3] {
		if os, err := catalog.ByID(id); err == nil {
			products = append(products, os.CPEProduct)
		}
	}
	h.bombSeq++
	v := &osint.Vulnerability{
		ID:          fmt.Sprintf("CVE-2018-77%03d", h.bombSeq),
		Description: "Remote code execution in the shared hypervisor escape path allows full host compromise via crafted descriptors.",
		Products:    products,
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
	h.published = append(h.published, v)
	if err := r.ctrl.RefreshIntel(h.ctx, v); err != nil {
		h.violation("round %d: refresh: %v", r.n, err)
	}
	h.report.Bombs++
}

// startLoad sets every worker issuing PutsPerRound KVS puts through the
// round's membership, so a seed fixes how much work the run does. Their
// errors are expected under faults and only tallied.
func (h *harness) startLoad(n int, m *bft.Membership) {
	for w, cl := range h.workers {
		cl.UpdateMembership(m.Replicas, m.Keys)
		h.load.Add(1)
		go func() {
			defer h.load.Done()
			for p := 0; p < PutsPerRound; p++ {
				i := n*PutsPerRound + p
				op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("w%d-k%d", w, i%32), Value: []byte{byte(i)}})
				ictx, cancel := context.WithTimeout(h.ctx, 2*time.Second)
				_, err := cl.Invoke(ictx, op)
				cancel()
				if err != nil {
					h.clientErrs.Add(1)
					// Back off instead of hammering a disrupted group.
					select {
					case <-h.ctx.Done():
					case <-time.After(50 * time.Millisecond):
					}
					continue
				}
				h.clientOps.Add(1)
			}
		}()
	}
}

// downProbes orders requests through the dead controller's last
// membership view: the execution plane must not depend on the control
// plane. Individual probes may lose to the round's network faults; all of
// them failing is a violation.
func (h *harness) downProbes(r *round) {
	served := 0
	var err error
	for p := 0; p < 2; p++ {
		h.report.DownProbes++
		if _, err = probe(h.ctx, r.ctrl, h.probeCl, 3*time.Second, putOp(fmt.Sprintf("down-r%d-p%d", r.n, p), "ok")); err != nil {
			h.report.DownProbeErrs++
		} else {
			served++
		}
	}
	if served == 0 {
		h.violation("round %d: service unavailable while controller down: %v", r.n, err)
	}
}

// byzProbe proves liveness and reply integrity under the round's attack:
// the group must order fresh commands with f members Byzantine — a
// censoring primary in particular must have been demoted by view change —
// and the probe client must read back the true value, never a forged
// reply (it needs f+1 matching replies, and only the f attackers lie).
func (h *harness) byzProbe(r *round) {
	h.report.ByzProbes++
	// Demoting a censoring primary takes several progress-timer firings;
	// under a WAN profile each one waits the 1.2s timer, so the probe
	// deadline scales with them.
	timeout := 5 * time.Second
	if h.wan != nil {
		timeout = 20 * time.Second
	}
	key, val := fmt.Sprintf("byz-r%d", r.n), fmt.Sprintf("v%d", r.n)
	getOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: key})
	res, err := probe(h.ctx, r.ctrl, h.probeCl, timeout, putOp(key, val), getOp)
	switch want := "VAL" + val; {
	case err != nil:
		h.report.ByzProbeErrs++
		h.violation("round %d: no progress under %s attack: %v", r.n, r.byzKind, err)
	case string(res) != want:
		h.report.ByzProbeErrs++
		h.violation("round %d: %s attack forged a reply: got %q want %q", r.n, r.byzKind, res, want)
	}
}

func (h *harness) violation(format string, args ...any) {
	h.report.Violations = append(h.report.Violations, fmt.Sprintf(format, args...))
}

// check records each of vs as a violation tagged with where it was seen.
func (h *harness) check(tag string, vs []string) {
	for _, v := range vs {
		h.violation("%s: %s", tag, v)
	}
}

// finish fills the report's closing state.
func (h *harness) finish(wal controlplane.WAL) *Report {
	rep := h.report
	rep.Stats = h.ctrl.SwapStats()
	rep.History = h.ctrl.SwapHistory()
	rep.Net = h.mem.Stats()
	rep.Netem = h.net.NetemStats()
	rep.Final = h.ctrl.Status()
	rep.Census = h.ctrl.Census()
	rep.ClientOps = h.clientOps.Load()
	rep.ClientErrs = h.clientErrs.Load()
	rep.Generation = h.ctrl.Generation()
	if err := wal.Replay(func(controlplane.WALRecord) error { rep.WALRecords++; return nil }); err != nil {
		h.cfg.Logf("chaos: counting WAL records: %v", err)
	}
	return rep
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
func probe(ctx context.Context, c *controlplane.Controller, cl *bft.Client, timeout time.Duration, ops ...[]byte) ([]byte, error) {
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

// liveReplicas returns the controller's running replicas with their ids
// in ascending order.
func liveReplicas(c *controlplane.Controller) ([]transport.NodeID, map[transport.NodeID]*bft.Replica) {
	reps := c.Replicas()
	ids := make([]transport.NodeID, 0, len(reps))
	for id := range reps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, reps
}

// positions reports every running replica's protocol position, by id.
func positions(c *controlplane.Controller) string {
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
func checkExecTraces(c *controlplane.Controller) []string {
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
