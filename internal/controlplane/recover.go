// Controller recovery (ROADMAP "replicated, restartable control plane",
// second half): a new process replays its predecessor's WAL, re-adopts
// the surviving execution plane, and resolves whatever swap was in
// flight when the predecessor died. The WAL bounds what the cluster
// state CAN be (intent before side effect, outcome after); probing the
// actual cluster — is the joiner's node running, is it a member, does
// removing it shrink the group below n — resolves the one ambiguity a
// log cannot: intent recorded, outcome unknown. Resolution reuses the
// live swap machinery, whose stages are idempotent under re-execution.
//
// Resume decision table (see DESIGN.md §9):
//
//	evidence for the in-flight swap        resolution
//	------------------------------------   -----------------------------
//	begin, no census after it              close as rolled back (the
//	                                       monitor never recorded the
//	                                       decision; the next round will
//	                                       re-decide it)
//	begin + census, no stage records       re-run from boot
//	boot intent, no outcome                probe node: running the new
//	                                       OS → resume at ADD, else
//	                                       re-run boot
//	boot outcome ok                        resume at ADD
//	ADD intent, no outcome                 re-run ADD pessimistically
//	                                       ("already a member" = done)
//	ADD outcome ok                         commit locally, resume at
//	                                       catch-up
//	catch-up intent / outcome ok           re-run catch-up / resume at
//	                                       REMOVE
//	REMOVE intent, no outcome              re-run REMOVE ("not a member"
//	                                       = done)
//	REMOVE outcome ok                      commit locally, resume at
//	                                       power-off
//	power-off intent / outcome             re-issue power-off (idle node
//	                                       = no-op), finish
//	any failed outcome, or any             re-run compensation: the
//	compensating record                    joiner's REMOVE verdict says
//	                                       roll back or roll forward
package controlplane

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/core"
	"lazarus/internal/transport"
	"lazarus/internal/vulndb"
)

// stageEvent is one replayed stage record of the in-flight swap.
type stageEvent struct {
	stage        SwapStage
	compensating bool
	outcome      bool // outcome record (else intent)
	ok           bool
	err          string
}

// inFlightSwap is a swap the WAL opened but never closed.
type inFlightSwap struct {
	swapID             uint64
	removedOS, addedOS string
	oldNode, newNode   transport.NodeID
	// censusAfterBegin: the post-decision census landed, so the restored
	// monitor reflects the swap decision and the joiner's slot exists.
	censusAfterBegin bool
	// pre is the group view when the swap began (the last membership
	// record before it) — what compensation restores on rollback.
	pre    *bft.Membership
	events []stageEvent
}

// walState is everything replayWALState distills from the log.
type walState struct {
	ctrlKey    ed25519.PrivateKey
	n          int
	generation int
	membership *bft.Membership
	census     *WALRecord
	// ends collects every closed swap, oldest first (the ring re-bounds
	// them); endsAfterCensus and beginsAfterCensus are the counter deltas
	// on top of the census Stats snapshot.
	ends              []SwapRecord
	statsBase         SwapStats
	beginsAfterCensus uint64
	endsAfterCensus   []SwapRecord
	maxSwapID         uint64
	maxNode           transport.NodeID
	inFlight          *inFlightSwap
}

// replayWALState folds the log into the recovery state.
func replayWALState(w WAL) (*walState, error) {
	st := &walState{}
	open := make(map[uint64]*inFlightSwap)
	var openOrder []uint64
	err := w.Replay(func(rec WALRecord) error {
		switch rec.Kind {
		case WALBootstrap:
			st.ctrlKey = ed25519.PrivateKey(append([]byte(nil), rec.CtrlKey...))
			st.n = rec.N
		case WALRecover:
			if rec.Generation > st.generation {
				st.generation = rec.Generation
			}
		case WALMembership:
			m := &bft.Membership{
				Epoch:    rec.Epoch,
				Replicas: append([]transport.NodeID(nil), rec.Members...),
				Keys:     make(map[transport.NodeID]ed25519.PublicKey, len(rec.MemberKeys)),
			}
			for id, k := range rec.MemberKeys {
				m.Keys[id] = ed25519.PublicKey(append([]byte(nil), k...))
			}
			st.membership = m
		case WALCensus:
			cp := rec
			st.census = &cp
			if rec.Stats != nil {
				st.statsBase = *rec.Stats
			}
			st.beginsAfterCensus = 0
			st.endsAfterCensus = nil
			for _, fl := range open {
				fl.censusAfterBegin = true
			}
		case WALSwapBegin:
			fl := &inFlightSwap{
				swapID:    rec.SwapID,
				removedOS: rec.RemovedOS, addedOS: rec.AddedOS,
				oldNode: rec.OldNode, newNode: rec.NewNode,
				pre: st.membership,
			}
			open[rec.SwapID] = fl
			openOrder = append(openOrder, rec.SwapID)
			st.beginsAfterCensus++
			if rec.SwapID > st.maxSwapID {
				st.maxSwapID = rec.SwapID
			}
			if rec.NewNode > st.maxNode {
				st.maxNode = rec.NewNode
			}
		case WALStageIntent, WALStageOutcome:
			if fl := open[rec.SwapID]; fl != nil {
				fl.events = append(fl.events, stageEvent{
					stage:        rec.Stage,
					compensating: rec.Compensating,
					outcome:      rec.Kind == WALStageOutcome,
					ok:           rec.OK,
					err:          rec.Err,
				})
			}
		case WALSwapEnd:
			if rec.Swap != nil {
				st.ends = append(st.ends, *rec.Swap)
				st.endsAfterCensus = append(st.endsAfterCensus, *rec.Swap)
			}
			delete(open, rec.SwapID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// At most one swap is ever in flight (swaps are serial within the
	// monitor loop), but be defensive: resume the oldest still open.
	for _, id := range openOrder {
		if fl, ok := open[id]; ok {
			st.inFlight = fl
			break
		}
	}
	return st, nil
}

// restoredCounters rebuilds the swap counters: the census snapshot plus
// one attempt per later swap-begin and one outcome per later swap-end.
// (Stage-failure and retry tallies made after the last census are lost;
// the ledger totals chaos checks are exact.)
func restoredCounters(st *walState) swapCounters {
	c := swapCounters{
		attempts:      st.statsBase.Attempts + st.beginsAfterCensus,
		successes:     st.statsBase.Successes,
		retries:       st.statsBase.Retries,
		rollbacks:     st.statsBase.Rollbacks,
		rolledForward: st.statsBase.RolledForward,
		aborts:        st.statsBase.RollbackFailures,
	}
	for s, n := range st.statsBase.StageFailures {
		if s >= 0 && s < stageCount {
			c.stageFailures[s] = n
		}
	}
	for _, rec := range st.endsAfterCensus {
		switch rec.Outcome {
		case SwapSucceeded:
			c.successes++
		case SwapRolledBack:
			c.rollbacks++
		case SwapRolledForward:
			c.successes++
			c.rolledForward++
		case SwapAborted:
			c.aborts++
		}
	}
	return c
}

// Recover builds a successor controller from a predecessor's WAL and the
// surviving plant, resolves any in-flight swap, and returns it running
// (no Bootstrap). cfg supplies the environment (network, app factory,
// vulnerability corpus, seed — which must match the predecessor's for
// deterministic replay); identity, membership, lifecycle sets, and the
// swap ledger come from the log.
func Recover(ctx context.Context, cfg Config, plant Plant) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if plant.builder == nil {
		return nil, errors.New("controlplane: recover needs the surviving plant")
	}
	replayStart := time.Now()
	st, err := replayWALState(cfg.WAL)
	if err != nil {
		return nil, err
	}
	if len(st.ctrlKey) != ed25519.PrivateKeySize {
		return nil, errors.New("controlplane: WAL has no bootstrap record")
	}
	if st.membership == nil || st.census == nil {
		return nil, errors.New("controlplane: WAL ends before bootstrap completed")
	}
	if st.n > 0 {
		cfg.N = st.n
	}

	src := newCountingSource(cfg.Seed)
	c := &Controller{
		cfg:        cfg,
		store:      vulndb.New(),
		eval:       &swapEvaluator{},
		rng:        mrand.New(src),
		src:        src,
		builder:    plant.builder,
		ctrlPub:    st.ctrlKey.Public().(ed25519.PublicKey),
		ctrlPriv:   st.ctrlKey,
		ins:        newCPInstruments(cfg.Metrics),
		wal:        cfg.WAL,
		generation: st.generation + 1,
		nodes:      make(map[transport.NodeID]*nodeSlot, len(plant.nodes)),
		osToNode:   make(map[string]transport.NodeID),
	}
	c.ins.walReplayUS.Observe(time.Since(replayStart).Microseconds())

	// Re-adopt the plant and the census.
	cen := st.census
	for id, slot := range plant.nodes {
		c.nodes[id] = slot
	}
	for osID, node := range cen.OSNodes {
		c.osToNode[osID] = node
	}
	// Node IDs must never be reused (the transport and the builder key
	// registry are per-ID): resume above everything the log has seen.
	c.nextNode = cen.NextNode
	if st.maxNode >= c.nextNode {
		c.nextNode = st.maxNode + 1
	}
	for _, id := range st.membership.Replicas {
		if id >= c.nextNode {
			c.nextNode = id + 1
		}
	}
	for id := range c.nodes {
		if id >= c.nextNode {
			c.nextNode = id + 1
		}
	}

	// The risk pipeline is rebuilt from the corpus, not the WAL: OSINT
	// data is re-ingestable by definition (cfg.InitialVulns/Crawler must
	// cover what the predecessor had seen for identical decisions).
	if err := c.RefreshIntel(ctx); err != nil {
		return nil, fmt.Errorf("controlplane: recovering intel: %w", err)
	}

	// Monitor lifecycle sets, exactly as the census recorded them
	// (including order — the uniform random pick indexes into them).
	byID := make(map[string]core.Replica, len(cfg.Universe))
	for _, os := range cfg.Universe {
		byID[os.ID] = replicaFor(os)
	}
	toReplicas := func(ids []string) ([]core.Replica, error) {
		out := make([]core.Replica, 0, len(ids))
		for _, id := range ids {
			r, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("controlplane: census OS %s not in the universe", id)
			}
			out = append(out, r)
		}
		return out, nil
	}
	config, err := toReplicas(cen.Config)
	if err != nil {
		return nil, err
	}
	pool, err := toReplicas(cen.Pool)
	if err != nil {
		return nil, err
	}
	quarantine, err := toReplicas(cen.Quarantine)
	if err != nil {
		return nil, err
	}
	monitor, err := core.RestoreMonitor(c.eval, core.Config(config), pool, quarantine, core.MonitorConfig{
		Threshold: cen.Threshold,
		Rand:      c.rng,
	})
	if err != nil {
		return nil, fmt.Errorf("controlplane: restoring monitor: %w", err)
	}
	c.monitor = monitor

	// Replay the rng to the predecessor's recorded position: both Int63
	// and Uint64 advance math/rand's source by exactly one step, so
	// burning the draw count lands on the identical stream state and the
	// diversity loop stays deterministic across the crash.
	for i := uint64(0); i < cen.RandDraws; i++ {
		c.src.Int63()
	}

	// LTU command counter: at least the census value, and above anything
	// the predecessor issued after it (the LTUs reject non-increasing
	// sequence numbers as replays).
	c.ltuSeq = cen.LTUSeq
	for _, slot := range c.nodes {
		if s := slot.ltu.LastSeq(); s > c.ltuSeq {
			c.ltuSeq = s
		}
	}

	c.membership.Store(st.membership)
	// A fresh client identity per generation: replicas de-duplicate by
	// per-client sequence number, and the predecessor's counter died with
	// it. Reconfigurations authenticate by the controller key, not the
	// client id, so any id works.
	client, err := bft.NewClient(bft.ClientConfig{
		ID:             transport.ClientIDBase + 9900 + transport.NodeID(c.generation),
		Key:            c.ctrlPriv,
		Replicas:       st.membership.Replicas,
		ReplicaKeys:    st.membership.Keys,
		F:              st.membership.F(),
		Net:            cfg.Net,
		RequestTimeout: 800 * time.Millisecond,
		MaxAttempts:    15,
	})
	if err != nil {
		return nil, err
	}
	c.client = client
	c.started = true

	// Swap ledger: the ring replays from the end records, the counters
	// from the census snapshot plus deltas.
	c.swapMu.Lock()
	for _, rec := range st.ends {
		c.histAppendLocked(rec)
	}
	c.counters = restoredCounters(st)
	c.swapSeq = st.maxSwapID
	c.swapMu.Unlock()

	if err := c.walAppend(WALRecord{Kind: WALRecover, Generation: c.generation}); err != nil {
		return nil, err
	}
	c.cfg.Logf("controlplane: generation %d recovered: epoch %d, %d nodes, %d closed swaps, in-flight=%v",
		c.generation, st.membership.Epoch, len(c.nodes), len(st.ends), st.inFlight != nil)

	if fl := st.inFlight; fl != nil {
		if rerr := c.resumeSwap(ctx, fl); rerr != nil {
			// A rolled-back resume reports its failure like any swap; the
			// system is consistent either way, so recovery still succeeds.
			c.cfg.Logf("controlplane: resumed swap %d settled with: %v", fl.swapID, rerr)
		}
	}
	c.refreshEpoch()
	c.walCensus()
	return c, nil
}

// resumeSwap resolves the swap the predecessor left in flight.
func (c *Controller) resumeSwap(ctx context.Context, fl *inFlightSwap) error {
	rec := SwapRecord{
		Removed: fl.removedOS, Added: fl.addedOS,
		OldNode: fl.oldNode, NewNode: fl.newNode,
		Started: c.cfg.Clock(),
	}

	// No census after the begin record: the predecessor died before the
	// decision state was snapshotted, so the restored monitor (and rng)
	// are pre-decision and the next round will simply re-decide. Balance
	// the ledger and discard any half-provisioned joiner slot.
	if !fl.censusAfterBegin {
		if slot, ok := c.nodes[fl.newNode]; ok && fl.newNode != 0 && fl.newNode != fl.oldNode {
			slot.node.Retire()
			delete(c.nodes, fl.newNode)
		}
		rec.Finished = c.cfg.Clock()
		rec.Outcome = SwapRolledBack
		rec.FailedStage = StageBoot
		rec.Err = "controller crashed before the swap decision was recorded"
		c.recordSwap(fl.swapID, rec)
		c.ins.resumeOutcome[SwapRolledBack].Inc()
		c.cfg.Logf("controlplane: swap %d (%s->%s) closed as rolled back: crashed before it began",
			fl.swapID, fl.removedOS, fl.addedOS)
		return nil
	}

	removed, ok := c.monitorReplica(fl.removedOS)
	if !ok {
		return fmt.Errorf("controlplane: in-flight swap %d: OS %s not in the universe", fl.swapID, fl.removedOS)
	}
	added, aok := c.monitorReplica(fl.addedOS)
	if !aok {
		return fmt.Errorf("controlplane: in-flight swap %d: OS %s not in the universe", fl.swapID, fl.addedOS)
	}
	op := &swapOp{
		c:       c,
		swapID:  fl.swapID,
		removed: removed,
		added:   added,
		oldID:   fl.oldNode,
		newID:   fl.newNode,
		oldSlot: c.nodes[fl.oldNode],
		slot:    c.nodes[fl.newNode],
		client:  c.client,
		pre:     fl.pre,
	}
	if op.pre == nil {
		op.pre = c.membership.Load()
	}
	if op.slot == nil || op.oldSlot == nil {
		return fmt.Errorf("controlplane: in-flight swap %d: plant lost node %d or %d",
			fl.swapID, fl.newNode, fl.oldNode)
	}
	// The membership record lands after a committed ADD, so its presence
	// proves the commit; its absence with an ADD intent on file leaves
	// the ADD possibly ordered — the pessimism compensation is built for.
	op.addApplied = c.membership.Load().Contains(fl.newNode)
	sawAdd := false
	for _, ev := range fl.events {
		if !ev.compensating && ev.stage == StageAdd {
			sawAdd = true
		}
	}

	start, compensating, cause := resumePoint(fl, op)
	var err error
	if compensating {
		op.addUncertain = !op.addApplied && sawAdd
		err = op.fail(ctx, &rec, start, cause)
	} else {
		err = op.runFrom(ctx, &rec, start)
	}
	if errors.Is(err, ErrControllerCrashed) {
		return err
	}
	rec.Finished = c.cfg.Clock()
	c.recordSwap(fl.swapID, rec)
	if rec.Outcome >= SwapSucceeded && rec.Outcome <= SwapAborted {
		c.ins.resumeOutcome[rec.Outcome].Inc()
	}
	c.cfg.Logf("controlplane: resumed swap %d (%s->%s) from %v: %v",
		fl.swapID, fl.removedOS, fl.addedOS, start, rec.Outcome)
	return err
}

// resumePoint maps the in-flight swap's stage evidence to where the
// machinery re-enters: a forward stage, or the compensation path with the
// failed stage and cause. See the decision table in the package comment.
func resumePoint(fl *inFlightSwap, op *swapOp) (start SwapStage, compensating bool, cause error) {
	if len(fl.events) == 0 {
		return StageBoot, false, nil
	}
	last := fl.events[len(fl.events)-1]

	// Any compensating record, or a failed forward outcome, means the
	// predecessor had left the forward path: re-run compensation. (The
	// compensating REMOVE re-probes the group, so a compensation that had
	// already finished resolves to the same verdict again.)
	if last.compensating || (last.outcome && !last.ok) {
		failedAt := last.stage
		msg := last.err
		for _, ev := range fl.events {
			if !ev.compensating && ev.outcome && !ev.ok {
				failedAt, msg = ev.stage, ev.err
			}
		}
		if msg == "" {
			msg = "controller crashed mid-compensation"
		}
		return failedAt, true, fmt.Errorf("resumed after crash: %s", msg)
	}

	if !last.outcome {
		// Intent without outcome: the side effect may or may not have
		// run. Each stage's retry path absorbs the "it did" case; boot
		// additionally probes the node so a landed power-on skips ahead.
		if last.stage == StageBoot && op.slot.node.Running() && op.slot.node.OS().ID == op.added.ID {
			return StageAdd, false, nil
		}
		return last.stage, false, nil
	}

	// Successful outcome: the stage completed; resume right after it.
	switch last.stage {
	case StageBoot:
		return StageAdd, false, nil
	case StageAdd:
		return StageCatchUp, false, nil
	case StageCatchUp:
		return StageRemove, false, nil
	default:
		// Post-REMOVE (and post-power-off): runFrom's tail re-commits the
		// REMOVE locally (idempotent) and re-issues the power-off (no-op
		// on an idle node) before decommissioning.
		return StagePowerOff, false, nil
	}
}

// monitorReplica resolves an OS id to the risk engine's replica identity
// via the configured universe.
func (c *Controller) monitorReplica(osID string) (core.Replica, bool) {
	for _, os := range c.cfg.Universe {
		if os.ID == osID {
			return replicaFor(os), true
		}
	}
	return core.Replica{}, false
}

// refreshEpoch probes the live member replicas and lifts the local
// membership epoch to the highest one the group has committed. The
// composition is already exact (resume re-commits any un-logged
// reconfiguration); only the epoch counter can lag when the predecessor
// died between ordering a reconfiguration and logging the membership.
func (c *Controller) refreshEpoch() {
	m := c.membership.Load()
	if m == nil {
		return
	}
	var max uint64
	c.mu.Lock()
	for _, id := range m.Replicas {
		if slot, ok := c.nodes[id]; ok {
			if rep := slot.node.Replica(); rep != nil {
				if e := rep.Stats().CurrentEpoch; e > max {
					max = e
				}
			}
		}
	}
	c.mu.Unlock()
	if max > m.Epoch {
		next := m.Clone()
		next.Epoch = max
		c.membership.Store(next)
		c.cfg.Logf("controlplane: lifted membership epoch %d -> %d from live replicas", m.Epoch, max)
	}
}
