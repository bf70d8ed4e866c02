// Staged swap engine: the fault-tolerant replacement of one replica by
// another (paper §5, Fig. 9), rebuilt as an explicit state machine so a
// failure at any stage leaves the service in a known-good configuration
// instead of a half-reconfigured one. Stages run in order —
//
//	boot → ADD → catch-up → REMOVE → power-off
//
// — each with a per-attempt timeout and bounded retries under capped
// exponential backoff (the transport's re-dial idiom). On failure the
// engine compensates: before the ADD is ordered the joiner is simply
// discarded; after it, a compensating REMOVE of the joiner is ordered and
// its node powered off. Either way the Monitor's POOL/QUARANTINE sets are
// reverted so the next round can pick a different candidate. Reconfig
// command results are parsed to resolve the did-it-land ambiguity of a
// timed-out invoke: a retried ADD that hits "already a member" is a
// success, and a compensating REMOVE that would shrink the group below
// the minimum proves the original REMOVE was ordered, so the engine rolls
// forward instead of back.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/core"
	"lazarus/internal/deploy"
	"lazarus/internal/transport"
)

// SwapStage identifies one stage of the replacement state machine.
type SwapStage int

// Stages, in execution order.
const (
	// StageBoot powers the joiner's node on through its LTU.
	StageBoot SwapStage = iota
	// StageAdd orders the ADD reconfiguration through consensus.
	StageAdd
	// StageCatchUp waits for the joiner's state transfer.
	StageCatchUp
	// StageRemove orders the REMOVE of the quarantined replica.
	StageRemove
	// StagePowerOff powers the removed replica's node off.
	StagePowerOff

	stageCount = 5
)

// String names the stage.
func (s SwapStage) String() string {
	switch s {
	case StageBoot:
		return "boot"
	case StageAdd:
		return "add"
	case StageCatchUp:
		return "catch-up"
	case StageRemove:
		return "remove"
	case StagePowerOff:
		return "power-off"
	default:
		return fmt.Sprintf("SwapStage(%d)", int(s))
	}
}

// SwapOutcome classifies how a swap ended.
type SwapOutcome int

// Outcomes.
const (
	// SwapSucceeded: all five stages completed.
	SwapSucceeded SwapOutcome = iota + 1
	// SwapRolledBack: a stage failed and compensation restored the
	// pre-swap replica set; the joiner was discarded.
	SwapRolledBack
	// SwapRolledForward: a stage failed ambiguously but compensation
	// proved the reconfiguration had actually been ordered, so the swap
	// was completed instead of reverted.
	SwapRolledForward
	// SwapAborted: compensation itself failed; the system may be left
	// with the joiner as an extra group member and needs attention.
	SwapAborted
)

// String names the outcome.
func (o SwapOutcome) String() string {
	switch o {
	case SwapSucceeded:
		return "success"
	case SwapRolledBack:
		return "rolled-back"
	case SwapRolledForward:
		return "rolled-forward"
	case SwapAborted:
		return "aborted"
	default:
		return fmt.Sprintf("SwapOutcome(%d)", int(o))
	}
}

// SwapStats counts swap-engine activity since the controller started.
type SwapStats struct {
	// Attempts is how many swaps were started.
	Attempts uint64
	// Successes completed all stages (including rolled-forward swaps).
	Successes uint64
	// Retries counts stage re-attempts (any stage).
	Retries uint64
	// Rollbacks counts swaps whose failure was compensated cleanly.
	Rollbacks uint64
	// RolledForward counts failed swaps that compensation completed.
	RolledForward uint64
	// RollbackFailures counts swaps whose compensation failed (aborted).
	RollbackFailures uint64
	// StageFailures counts failed attempts per stage.
	StageFailures map[SwapStage]uint64
}

// Failed returns how many started swaps did not install the new replica.
func (s SwapStats) Failed() uint64 { return s.Rollbacks + s.RollbackFailures }

// swapCounters is the internal, mutex-guarded form of SwapStats.
type swapCounters struct {
	attempts, successes, retries     uint64
	rollbacks, rolledForward, aborts uint64
	stageFailures                    [stageCount]uint64
}

// SwapRecord is one structured entry of the swap history.
type SwapRecord struct {
	// Removed and Added are the OS ids being exchanged.
	Removed, Added string
	// OldNode and NewNode are the execution-plane slots involved.
	OldNode, NewNode transport.NodeID
	// Started and Finished are controller-clock timestamps.
	Started, Finished time.Time
	// Outcome classifies the result.
	Outcome SwapOutcome
	// FailedStage is the stage that gave up (when Outcome != success).
	FailedStage SwapStage
	// Retries is the total stage re-attempts spent on this swap.
	Retries int
	// Err is the terminal error (empty on success).
	Err string
}

// swapHistoryCap bounds the in-memory swap history ring.
const swapHistoryCap = 128

// SwapStats returns a snapshot of the swap-engine counters.
func (c *Controller) SwapStats() SwapStats {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	out := SwapStats{
		Attempts:         c.counters.attempts,
		Successes:        c.counters.successes,
		Retries:          c.counters.retries,
		Rollbacks:        c.counters.rollbacks,
		RolledForward:    c.counters.rolledForward,
		RollbackFailures: c.counters.aborts,
		StageFailures:    make(map[SwapStage]uint64, stageCount),
	}
	for s, n := range c.counters.stageFailures {
		if n > 0 {
			out.StageFailures[SwapStage(s)] = n
		}
	}
	return out
}

// SwapHistory returns the most recent swap records, oldest first (at most
// the last 128 swaps are retained).
func (c *Controller) SwapHistory() []SwapRecord {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	out := make([]SwapRecord, 0, c.histLen)
	start := c.histNext - c.histLen
	if start < 0 {
		start += swapHistoryCap
	}
	for i := 0; i < c.histLen; i++ {
		out = append(out, c.swapHist[(start+i)%swapHistoryCap])
	}
	return out
}

func (c *Controller) recordSwap(swapID uint64, rec SwapRecord) {
	// Close the swap in the WAL first: once the end record is durable a
	// successor will not try to resume this swap.
	if err := c.walAppend(WALRecord{Kind: WALSwapEnd, SwapID: swapID, Swap: &rec}); err != nil {
		if errors.Is(err, ErrControllerCrashed) {
			// Dead (possibly ON this very record, which is then durable):
			// the successor owns the ledger from here; updating this
			// process's ring and metrics would double-count against it.
			return
		}
		c.cfg.Logf("controlplane: swap-end WAL append: %v", err)
	}
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	c.recordSwapLocked(rec)
}

// histAppendLocked inserts one record into the bounded ring. Caller
// holds c.swapMu. Recovery uses it directly to rebuild the ring from
// replayed swap-end records without touching the counters (those are
// reconstructed separately, census snapshot + deltas).
func (c *Controller) histAppendLocked(rec SwapRecord) {
	if c.swapHist == nil {
		c.swapHist = make([]SwapRecord, swapHistoryCap)
	}
	c.swapHist[c.histNext] = rec
	c.histNext = (c.histNext + 1) % swapHistoryCap
	if c.histLen < swapHistoryCap {
		c.histLen++
	}
}

// recordSwapLocked updates the in-memory ring and counters. Caller holds
// c.swapMu.
func (c *Controller) recordSwapLocked(rec SwapRecord) {
	c.histAppendLocked(rec)
	switch rec.Outcome {
	case SwapSucceeded:
		c.counters.successes++
	case SwapRolledBack:
		c.counters.rollbacks++
	case SwapRolledForward:
		c.counters.successes++
		c.counters.rolledForward++
	case SwapAborted:
		c.counters.aborts++
	}
	if rec.Outcome >= SwapSucceeded && rec.Outcome <= SwapAborted {
		c.ins.swapOutcome[rec.Outcome].Inc()
	}
	c.ins.swapTotalUS.Observe(rec.Finished.Sub(rec.Started).Microseconds())
}

// SetFaultPolicy installs (or clears, with nil) a deploy-layer failure
// injection policy on the controller's builder — the chaos harness's
// handle on the execution plane.
func (c *Controller) SetFaultPolicy(p *deploy.FaultPolicy) { c.builder.SetFaultPolicy(p) }

// Census reports the execution-plane node population, for invariant
// checking: every running node should be a member of the current
// membership, and nothing should run outside it.
type Census struct {
	// Tracked is how many node slots the controller still manages.
	Tracked int
	// Running lists nodes with a live replica.
	Running []transport.NodeID
	// Orphans lists running nodes that are not in the membership — a
	// leak left behind by a failed, uncompensated swap.
	Orphans []transport.NodeID
}

// Census inspects every tracked node.
func (c *Controller) Census() Census {
	m := c.membership.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	census := Census{Tracked: len(c.nodes)}
	for id, slot := range c.nodes {
		if !slot.node.Running() {
			continue
		}
		census.Running = append(census.Running, id)
		if m == nil || !m.Contains(id) {
			census.Orphans = append(census.Orphans, id)
		}
	}
	return census
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// stageLog identifies a stage execution in the WAL: which swap, which
// stage, and whether the compensation path (whose REMOVE targets the
// joiner, not the quarantined replica) is running it.
type stageLog struct {
	swapID       uint64
	stage        SwapStage
	compensating bool
}

// runStage drives one stage: up to `attempts` tries, each bounded by
// `timeout`, with capped exponential backoff between tries (the
// transport's re-dial idiom). Failed attempts are tallied per stage.
// The stage intent is appended to the WAL before any attempt runs and
// the outcome after the stage settles, so a successor can always bound
// what this stage may have done.
func (c *Controller) runStage(ctx context.Context, rec *SwapRecord, sw stageLog, attempts int, timeout time.Duration, fn func(context.Context, *stageAttempt) error) error {
	stage := sw.stage
	if err := c.walAppend(WALRecord{Kind: WALStageIntent, SwapID: sw.swapID, Stage: stage, Compensating: sw.compensating}); err != nil {
		// A crash point firing on the intent record surfaces here: the
		// process dies between the log write and the side effect.
		return fmt.Errorf("%v: %w", stage, err)
	}
	stageStart := time.Now()
	backoff := c.cfg.SwapBackoff
	var last error
	for a := 0; a < attempts; a++ {
		if c.isCrashed() {
			return fmt.Errorf("%v: %w", stage, ErrControllerCrashed)
		}
		if a > 0 {
			c.swapMu.Lock()
			c.counters.retries++
			c.swapMu.Unlock()
			c.ins.swapRetries.Inc()
			rec.Retries++
			if err := sleepCtx(ctx, backoff); err != nil {
				return fmt.Errorf("%v: %w", stage, err)
			}
			backoff *= 2
			if backoff > c.cfg.SwapBackoffMax {
				backoff = c.cfg.SwapBackoffMax
			}
		}
		last = attemptStage(ctx, timeout, fn)
		if last == nil {
			c.finishStage(stage, stageStart)
			c.walStageOutcome(sw, true, nil)
			return nil
		}
		c.swapMu.Lock()
		c.counters.stageFailures[stage]++
		c.swapMu.Unlock()
		c.ins.swapStageFailures[stage].Inc()
		c.cfg.Logf("controlplane: swap stage %v attempt %d/%d failed: %v", stage, a+1, attempts, last)
		if ctx.Err() != nil {
			break
		}
	}
	c.finishStage(stage, stageStart)
	c.walStageOutcome(sw, false, last)
	return fmt.Errorf("%v: %w", stage, last)
}

// walStageOutcome closes a stage in the WAL. Best-effort: if the append
// itself is the crash point, the missing/last outcome is exactly the
// ambiguity recovery is built to resolve.
func (c *Controller) walStageOutcome(sw stageLog, ok bool, cause error) {
	rec := WALRecord{Kind: WALStageOutcome, SwapID: sw.swapID, Stage: sw.stage, Compensating: sw.compensating, OK: ok}
	if cause != nil {
		rec.Err = cause.Error()
	}
	if err := c.walAppend(rec); err != nil && !errors.Is(err, ErrControllerCrashed) {
		c.cfg.Logf("controlplane: stage-outcome WAL append: %v", err)
	}
}

// finishStage records one completed stage (all attempts and backoffs
// included) in the per-stage duration histogram.
func (c *Controller) finishStage(stage SwapStage, start time.Time) {
	c.ins.swapStageUS[stage].Observe(time.Since(start).Microseconds())
}

// stageAttempt coordinates one attemptStage try with the goroutine
// running it. When a try times out the controller abandons the goroutine
// and moves on (to a retry, or to compensation) — but the goroutine may
// still be holding a verdict it obtained just as the deadline fired, and
// publishing it late would race with (and corrupt) the compensation
// logic reading the same state. Every publication therefore goes through
// settle, which the controller fences off with abandon.
type stageAttempt struct {
	mu        sync.Mutex
	abandoned bool
}

// settle runs publish unless the attempt was abandoned, and reports
// whether it ran. Publications by a live attempt are ordered before
// abandon's critical section, which the controller enters before it
// reads any of the published state — so settled writes are visible and
// abandoned writes never happen.
func (a *stageAttempt) settle(publish func()) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.abandoned {
		return false
	}
	publish()
	return true
}

// abandon marks the attempt as timed out: later settle calls become
// no-ops.
func (a *stageAttempt) abandon() {
	a.mu.Lock()
	a.abandoned = true
	a.mu.Unlock()
}

// attemptStage runs fn once under a real-time timeout. fn must honour
// its context; a stage that cannot be cancelled (a stalled boot inside
// the LTU) is abandoned to finish on its own — the node
// Retire/idempotency rules make a late completion harmless, and any
// shared state fn wants to write on its way out must go through the
// stageAttempt, which an abandoned goroutine can no longer settle.
func attemptStage(ctx context.Context, timeout time.Duration, fn func(context.Context, *stageAttempt) error) error {
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	att := &stageAttempt{}
	done := make(chan error, 1)
	go func() { done <- fn(sctx, att) }()
	select {
	case err := <-done:
		return err
	case <-sctx.Done():
		att.abandon()
		return fmt.Errorf("timed out after %v: %w", timeout, sctx.Err())
	}
}

// swapOp carries the state of one in-flight replacement.
type swapOp struct {
	c              *Controller
	swapID         uint64 // WAL identity of this swap
	removed, added core.Replica
	oldID, newID   transport.NodeID
	oldSlot, slot  *nodeSlot
	client         *bft.Client
	pre            *bft.Membership // membership before the swap

	// addApplied: the ADD was confirmed ordered and installed locally.
	// addUncertain: an ADD invoke failed without a definitive verdict —
	// it may or may not have been ordered.
	addApplied, addUncertain bool
}

// executeSwap performs the BFT-SMaRt-style replacement (boot the joiner,
// ADD it, wait for its state transfer, REMOVE the quarantined replica,
// power its node off) as the staged state machine described in the
// package comment. On a compensated failure the Monitor's sets are
// reverted and the error is returned; a rolled-forward recovery returns
// nil like any other success.
func (c *Controller) executeSwap(ctx context.Context, removed, added core.Replica) error {
	if c.isCrashed() {
		return ErrControllerCrashed
	}
	c.swapMu.Lock()
	c.counters.attempts++
	c.swapSeq++
	swapID := c.swapSeq
	c.swapMu.Unlock()
	c.ins.swapAttempts.Inc()

	c.mu.Lock()
	oldID, ok := c.osToNode[removed.ID]
	if !ok {
		c.mu.Unlock()
		err := fmt.Errorf("no node runs %s", removed.ID)
		c.walSwapBegin(swapID, removed, added, 0, 0)
		c.failBeforeStart(swapID, removed, added, err)
		return err
	}
	oldSlot := c.nodes[oldID]
	client := c.client
	newID := c.nextNode
	c.nextNode++
	// Open the swap in the log before provisioning the joiner's slot —
	// the first side effect — then snapshot the post-decision census
	// (lifecycle sets, rng position) a successor would resume from.
	if werr := c.walSwapBegin(swapID, removed, added, oldID, newID); werr != nil {
		c.mu.Unlock()
		return werr
	}
	slot, err := c.newSlotLocked(newID)
	var werr error
	if err == nil {
		werr = c.walCensusLocked()
	}
	c.mu.Unlock()
	if err != nil {
		c.failBeforeStart(swapID, removed, added, err)
		return err
	}
	if werr != nil {
		return werr
	}

	op := &swapOp{
		c:       c,
		swapID:  swapID,
		removed: removed,
		added:   added,
		oldID:   oldID,
		newID:   newID,
		oldSlot: oldSlot,
		slot:    slot,
		client:  client,
		pre:     c.membership.Load(),
	}
	rec := SwapRecord{
		Removed: removed.ID,
		Added:   added.ID,
		OldNode: oldID,
		NewNode: newID,
		Started: c.cfg.Clock(),
	}
	err = op.runFrom(ctx, &rec, StageBoot)
	if errors.Is(err, ErrControllerCrashed) {
		// The dying process records nothing more; its successor resolves
		// this swap from the WAL.
		return err
	}
	rec.Finished = c.cfg.Clock()
	c.recordSwap(swapID, rec)
	return err
}

// walSwapBegin opens a swap in the log. Best-effort on the degenerate
// paths (a crash here leaves a begin-without-stages record recovery
// closes as a rollback).
func (c *Controller) walSwapBegin(swapID uint64, removed, added core.Replica, oldID, newID transport.NodeID) error {
	return c.walAppend(WALRecord{
		Kind: WALSwapBegin, SwapID: swapID,
		RemovedOS: removed.ID, AddedOS: added.ID,
		OldNode: oldID, NewNode: newID,
	})
}

// failBeforeStart handles pre-stage failures (no slot was provisioned):
// the monitor is reverted and the non-swap is recorded as a clean
// rollback.
func (c *Controller) failBeforeStart(swapID uint64, removed, added core.Replica, cause error) {
	c.revertMonitor(removed, added)
	now := c.cfg.Clock()
	c.recordSwap(swapID, SwapRecord{
		Removed: removed.ID, Added: added.ID,
		Started: now, Finished: now,
		Outcome: SwapRolledBack, FailedStage: StageBoot,
		Err: cause.Error(),
	})
}

// revertMonitor returns the monitor's lifecycle sets to their pre-swap
// state.
func (c *Controller) revertMonitor(removed, added core.Replica) {
	c.mu.Lock()
	monitor := c.monitor
	c.mu.Unlock()
	if monitor == nil {
		return
	}
	if err := monitor.RevertSwap(removed, added); err != nil {
		c.cfg.Logf("controlplane: reverting monitor sets after failed swap: %v", err)
	}
}

// runFrom drives the stages from `start` onward and dispatches to
// compensation on failure. The normal path starts at StageBoot; a
// recovering controller starts at whatever stage the WAL evidence and
// cluster probes put the crashed swap in — every stage is idempotent
// under re-execution (a boot retry sees the node already running, a
// retried ADD answered "already a member" is a success, a retried
// REMOVE answered "not a member" is a success, power-off of an idle
// node is a no-op).
func (op *swapOp) runFrom(ctx context.Context, rec *SwapRecord, start SwapStage) error {
	c := op.c
	attempts, timeout := c.cfg.SwapAttempts, c.cfg.SwapStageTimeout
	log := func(stage SwapStage) stageLog { return stageLog{swapID: op.swapID, stage: stage} }

	if start <= StageBoot {
		if err := c.runStage(ctx, rec, log(StageBoot), attempts, timeout, op.boot); err != nil {
			return op.fail(ctx, rec, StageBoot, err)
		}
		if c.isCrashed() {
			return ErrControllerCrashed
		}
	}
	if start <= StageAdd {
		// Pessimistic until a definitive reply: an ADD attempt that times
		// out may have been ordered anyway, so compensation must assume
		// it was unless a live attempt settled the question.
		op.addUncertain = true
		if err := c.runStage(ctx, rec, log(StageAdd), attempts, timeout, op.orderAdd); err != nil {
			return op.fail(ctx, rec, StageAdd, err)
		}
		if err := op.commitAdd(); err != nil {
			return op.fail(ctx, rec, StageAdd, err)
		}
		if c.isCrashed() {
			return ErrControllerCrashed
		}
	}
	if start <= StageCatchUp {
		if !op.addApplied {
			// Resuming past the ADD: install the post-ADD membership view
			// the predecessor confirmed but may not have committed locally.
			if err := op.commitAdd(); err != nil {
				return op.fail(ctx, rec, StageCatchUp, err)
			}
		}
		// Catch-up is one attempt: its budget is the CatchUpTimeout itself
		// (measured on the injected clock); the stage timeout below is only
		// a real-time backstop against a frozen test clock.
		if err := c.runStage(ctx, rec, log(StageCatchUp), 1, c.cfg.CatchUpTimeout+timeout, op.waitCatchUp); err != nil {
			return op.fail(ctx, rec, StageCatchUp, err)
		}
		if c.isCrashed() {
			return ErrControllerCrashed
		}
	}
	if start <= StageRemove {
		if !op.addApplied {
			if err := op.commitAdd(); err != nil {
				return op.fail(ctx, rec, StageRemove, err)
			}
		}
		if err := c.runStage(ctx, rec, log(StageRemove), attempts, timeout, op.orderRemove); err != nil {
			return op.fail(ctx, rec, StageRemove, err)
		}
	}
	op.commitRemove()
	if c.isCrashed() {
		return ErrControllerCrashed
	}
	c.settleEpoch(ctx)
	if err := c.runStage(ctx, rec, log(StagePowerOff), attempts, timeout, op.powerOffOld); err != nil {
		if errors.Is(err, ErrControllerCrashed) {
			return err
		}
		// The membership change is already committed; a node that will
		// not power off is retired out-of-band below rather than undoing
		// a completed swap.
		c.cfg.Logf("controlplane: swap %s->%s: power-off of node %d failed (%v); retiring out-of-band",
			op.removed.ID, op.added.ID, op.oldID, err)
	}
	if c.isCrashed() {
		return ErrControllerCrashed
	}
	op.decommissionOld()
	rec.Outcome = SwapSucceeded
	c.cfg.Logf("controlplane: swapped %s (node %d) for %s (node %d)",
		op.removed.ID, op.oldID, op.added.ID, op.newID)
	return nil
}

// boot powers the joiner on through its LTU. A retry after a stalled
// attempt that eventually landed sees the node already running the right
// image and treats it as success.
func (op *swapOp) boot(context.Context, *stageAttempt) error {
	err := func() error {
		op.c.mu.Lock()
		defer op.c.mu.Unlock()
		return op.c.powerOnLocked(op.slot, op.added.ID, true)
	}()
	if err != nil && op.slot.node.Running() && op.slot.node.OS().ID == op.added.ID {
		return nil
	}
	return err
}

// reconfigResult interprets a reconfiguration command's reply.
type reconfigResult int

const (
	reconfigApplied reconfigResult = iota
	reconfigAlreadyDone
	reconfigTooSmall
	reconfigRejected
)

// parseReconfigResult decodes the structured bft.ReconfigResult reply.
// A reply that does not decode is an error, not a verdict: the caller
// must treat the operation's fate as unknown rather than mapping garbage
// to "rejected" (the old Sscanf scrape silently read epoch 0 out of any
// string starting with "reconfig ok").
func parseReconfigResult(res []byte) (reconfigResult, uint64, error) {
	rr, err := bft.DecodeReconfigResult(res)
	if err != nil {
		return reconfigRejected, 0, err
	}
	switch rr.Status {
	case bft.ReconfigApplied:
		return reconfigApplied, rr.Epoch, nil
	case bft.ReconfigAlreadyMember, bft.ReconfigNotMember:
		return reconfigAlreadyDone, 0, nil
	case bft.ReconfigTooSmall:
		return reconfigTooSmall, 0, nil
	default:
		return reconfigRejected, 0, nil
	}
}

// orderAdd submits the ADD through consensus. The op enters this stage
// marked addUncertain (see run): an attempt that dies without a
// definitive reply — invoke error, or a timed-out goroutine whose late
// verdict no longer settles — leaves the ADD possibly ordered, and only
// a definitive reply from a live attempt clears the ambiguity. In
// particular a retry answered "already a member" means an earlier
// attempt landed.
func (op *swapOp) orderAdd(ctx context.Context, att *stageAttempt) error {
	pub, err := op.c.builder.PublicKey(op.newID)
	if err != nil {
		return err
	}
	addOp := bft.EncodeReconfigOp(bft.ReconfigOp{Add: true, Replica: op.newID, PubKey: pub})
	res, err := op.client.Invoke(ctx, addOp)
	if err != nil {
		return fmt.Errorf("ordering ADD of node %d: %w", op.newID, err)
	}
	verdict, _, perr := parseReconfigResult(res)
	if perr != nil {
		// A reply we cannot decode is not a verdict: the ADD may or may
		// not have been ordered, so addUncertain must stay set.
		return fmt.Errorf("ADD of node %d: %w", op.newID, perr)
	}
	att.settle(func() { op.addUncertain = false })
	switch verdict {
	case reconfigApplied, reconfigAlreadyDone:
		return nil
	default:
		return fmt.Errorf("ADD of node %d rejected: %s", op.newID, res)
	}
}

// commitAdd installs the post-ADD membership locally and records it. A
// recovering controller whose restored view already includes the joiner
// (the predecessor's membership record landed before the crash) treats
// the commit as already done.
func (op *swapOp) commitAdd() error {
	pub, err := op.c.builder.PublicKey(op.newID)
	if err != nil {
		return err
	}
	cur := op.c.membership.Load()
	next, err := cur.WithAdded(op.newID, pub)
	switch {
	case err == nil:
	case errors.Is(err, bft.ErrAlreadyMember):
		next = cur
	default:
		return err
	}
	op.c.membership.Store(next)
	op.client.UpdateMembership(next.Replicas, next.Keys)
	op.addApplied = true
	if werr := op.c.walMembership(next); werr != nil && !errors.Is(werr, ErrControllerCrashed) {
		op.c.cfg.Logf("controlplane: membership WAL append after ADD: %v", werr)
	}
	return nil
}

// waitCatchUp polls the joiner until it has state-transferred into the
// current epoch. The deadline runs on the injected clock (cfg.Clock), so
// tests control it without real sleeps.
func (op *swapOp) waitCatchUp(ctx context.Context, _ *stageAttempt) error {
	c := op.c
	deadline := c.cfg.Clock().Add(c.cfg.CatchUpTimeout)
	for {
		if joiner := op.slot.node.Replica(); joiner != nil {
			st := joiner.Stats()
			if st.CurrentEpoch >= c.currentMembership().Epoch && st.MembershipSize > 0 && st.StateTransfers > 0 {
				return nil
			}
		}
		if c.cfg.Clock().After(deadline) {
			return fmt.Errorf("joiner %s on node %d did not catch up in %v", op.added.ID, op.newID, c.cfg.CatchUpTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// orderRemove submits the REMOVE of the quarantined replica's node. A
// retry answered "not a member" means an earlier attempt landed.
func (op *swapOp) orderRemove(ctx context.Context, _ *stageAttempt) error {
	rmOp := bft.EncodeReconfigOp(bft.ReconfigOp{Add: false, Replica: op.oldID})
	res, err := op.client.Invoke(ctx, rmOp)
	if err != nil {
		return fmt.Errorf("ordering REMOVE of node %d: %w", op.oldID, err)
	}
	verdict, _, perr := parseReconfigResult(res)
	if perr != nil {
		return fmt.Errorf("REMOVE of node %d: %w", op.oldID, perr)
	}
	switch verdict {
	case reconfigApplied, reconfigAlreadyDone:
		return nil
	default:
		return fmt.Errorf("REMOVE of node %d rejected: %s", op.oldID, res)
	}
}

// commitRemove installs the post-REMOVE membership and points the OS map
// at the new node.
func (op *swapOp) commitRemove() {
	c := op.c
	if next, err := c.membership.Load().WithRemoved(op.oldID); err == nil {
		c.membership.Store(next)
		op.client.UpdateMembership(next.Replicas, next.Keys)
		if werr := c.walMembership(next); werr != nil && !errors.Is(werr, ErrControllerCrashed) {
			c.cfg.Logf("controlplane: membership WAL append after REMOVE: %v", werr)
		}
	} else if errors.Is(err, bft.ErrNotMember) {
		// Recovery path: the restored membership already excludes the old
		// replica.
	} else {
		c.cfg.Logf("controlplane: commit REMOVE of node %d locally: %v", op.oldID, err)
	}
	c.mu.Lock()
	delete(c.osToNode, op.removed.ID)
	c.osToNode[op.added.ID] = op.newID
	c.mu.Unlock()
}

// settleEpoch waits — bounded, best-effort — until every live member
// replica reports the committed epoch before the caller powers off the
// removed node. The removed replica was part of the REMOVE's commit
// quorum; killing it while other members are still catching up (e.g.
// mid-state-transfer) can leave fewer than a quorum of replicas at the
// new epoch. The bft layer can now recover from that on its own, but
// waiting here keeps the window closed in the common case. Replicas that
// never settle (silent, partitioned) only cost the stage timeout.
func (c *Controller) settleEpoch(ctx context.Context) {
	m := c.currentMembership()
	deadline := c.cfg.Clock().Add(c.cfg.SwapStageTimeout)
	for !c.membersSettled(m) {
		if c.cfg.Clock().After(deadline) {
			c.cfg.Logf("controlplane: epoch %d did not settle on all members within %v; proceeding",
				m.Epoch, c.cfg.SwapStageTimeout)
			return
		}
		if sleepCtx(ctx, 10*time.Millisecond) != nil {
			return
		}
	}
}

func (c *Controller) membersSettled(m *bft.Membership) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range m.Replicas {
		slot, ok := c.nodes[id]
		if !ok {
			continue
		}
		rep := slot.node.Replica()
		if rep == nil {
			continue
		}
		if rep.Stats().CurrentEpoch < m.Epoch {
			return false
		}
	}
	return true
}

// powerOffOld orders the removed replica's node off through its LTU.
func (op *swapOp) powerOffOld(context.Context, *stageAttempt) error {
	op.c.mu.Lock()
	defer op.c.mu.Unlock()
	return op.c.powerOffLocked(op.oldSlot)
}

// decommissionOld retires and untracks the old node: whatever the LTU
// managed, the slot is wiped out-of-band and never hosts a replica again
// (its OS sits in quarantine; a re-admission mints a fresh node).
func (op *swapOp) decommissionOld() {
	op.oldSlot.node.Retire()
	op.c.mu.Lock()
	delete(op.c.nodes, op.oldID)
	op.c.mu.Unlock()
}

// discardJoiner retires and untracks the joiner's node.
func (op *swapOp) discardJoiner() {
	op.slot.node.Retire()
	op.c.mu.Lock()
	delete(op.c.nodes, op.newID)
	op.c.mu.Unlock()
}

// fail runs the compensation path for a stage failure and settles the
// record: rolled back (monitor reverted, error returned), rolled forward
// (swap completed after all, nil returned), or aborted (compensation
// failed, error returned).
func (op *swapOp) fail(ctx context.Context, rec *SwapRecord, stage SwapStage, cause error) error {
	c := op.c
	if errors.Is(cause, ErrControllerCrashed) || c.isCrashed() {
		// The process is dead: no compensation, no bookkeeping. The
		// successor resolves this swap from the WAL.
		return ErrControllerCrashed
	}
	rec.FailedStage = stage
	rec.Err = cause.Error()
	c.cfg.Logf("controlplane: swap %s->%s failed at %v (%v); compensating",
		op.removed.ID, op.added.ID, stage, cause)

	outcome, compErr := op.compensate(ctx, rec)
	if errors.Is(compErr, ErrControllerCrashed) {
		return compErr
	}
	rec.Outcome = outcome
	switch outcome {
	case SwapRolledBack:
		c.revertMonitor(op.removed, op.added)
		return fmt.Errorf("%v failed (rolled back): %w", stage, cause)
	case SwapRolledForward:
		c.cfg.Logf("controlplane: swap %s->%s rolled forward: the %v had been ordered despite %v",
			op.removed.ID, op.added.ID, stage, cause)
		return nil
	default: // SwapAborted
		// Compensation failed: the joiner may remain a group member. Keep
		// its node running and mapped so the census stays truthful; the
		// stats and history flag the swap for operator attention.
		c.mu.Lock()
		c.osToNode[op.added.ID] = op.newID
		c.mu.Unlock()
		return fmt.Errorf("%v failed (%v) and compensation failed: %w", stage, cause, compErr)
	}
}

// compensate undoes (or, when the evidence says the reconfiguration
// already committed, completes) a failed swap.
func (op *swapOp) compensate(ctx context.Context, rec *SwapRecord) (SwapOutcome, error) {
	if !op.addApplied && !op.addUncertain {
		// The joiner never entered the group: discard it and we are done.
		op.discardJoiner()
		return SwapRolledBack, nil
	}
	// The ADD was ordered (or might have been): order a compensating
	// REMOVE of the joiner, with the same bounded-retry discipline.
	rmOp := bft.EncodeReconfigOp(bft.ReconfigOp{Add: false, Replica: op.newID})
	var verdict reconfigResult
	var epoch uint64
	invoke := func(sctx context.Context, att *stageAttempt) error {
		res, err := op.client.Invoke(sctx, rmOp)
		if err != nil {
			return fmt.Errorf("ordering compensating REMOVE of node %d: %w", op.newID, err)
		}
		v, ep, perr := parseReconfigResult(res)
		if perr != nil {
			// No verdict to settle: the fate of the compensating REMOVE
			// is unknown, so let the retry discipline try again.
			return fmt.Errorf("compensating REMOVE of node %d: %w", op.newID, perr)
		}
		if !att.settle(func() { verdict, epoch = v, ep }) {
			// Abandoned after a reply arrived: the retry (or the caller)
			// owns the verdict now.
			return fmt.Errorf("compensating REMOVE of node %d: attempt abandoned", op.newID)
		}
		if v == reconfigRejected {
			return fmt.Errorf("compensating REMOVE of node %d rejected: %s", op.newID, res)
		}
		return nil
	}
	sw := stageLog{swapID: op.swapID, stage: StageRemove, compensating: true}
	if err := op.c.runStage(ctx, rec, sw, op.c.cfg.SwapAttempts, op.c.cfg.SwapStageTimeout, invoke); err != nil {
		return SwapAborted, err
	}
	if op.c.isCrashed() {
		return SwapAborted, ErrControllerCrashed
	}

	switch verdict {
	case reconfigTooSmall:
		// Removing the joiner would shrink the group below the minimum:
		// the group must already be at n with the old replica gone, which
		// proves the original REMOVE was ordered. Complete the swap.
		op.commitRemove()
		if op.c.isCrashed() {
			return SwapAborted, ErrControllerCrashed
		}
		op.c.settleEpoch(ctx)
		if err := func() error {
			op.c.mu.Lock()
			defer op.c.mu.Unlock()
			return op.c.powerOffLocked(op.oldSlot)
		}(); err != nil {
			op.c.cfg.Logf("controlplane: roll-forward power-off of node %d failed (%v); retiring out-of-band", op.oldID, err)
		}
		op.decommissionOld()
		return SwapRolledForward, nil

	case reconfigApplied:
		// The joiner is out of the group again. Restore the local
		// membership view to the pre-swap set.
		if op.addApplied {
			if next, err := op.c.membership.Load().WithRemoved(op.newID); err == nil {
				op.c.membership.Store(next)
				op.client.UpdateMembership(next.Replicas, next.Keys)
			}
		} else {
			// The ADD had landed even though its invoke failed: the group
			// went add → compensating-remove, so only the epoch moved.
			next := op.pre.Clone()
			next.Epoch = epoch
			op.c.membership.Store(next)
			op.client.UpdateMembership(next.Replicas, next.Keys)
		}
		op.discardJoiner()
		return SwapRolledBack, nil

	default: // reconfigAlreadyDone: the ADD never landed after all.
		if op.addApplied {
			// Local view had the joiner but the group never did.
			op.c.membership.Store(op.pre.Clone())
			op.client.UpdateMembership(op.pre.Replicas, op.pre.Keys)
		}
		op.discardJoiner()
		return SwapRolledBack, nil
	}
}
