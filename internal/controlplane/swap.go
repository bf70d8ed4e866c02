// Staged swap engine: the fault-tolerant replacement of one replica by
// another (paper §5, Fig. 9) in the stages boot → ADD → catch-up →
// REMOVE → power-off, each with a per-attempt timeout and bounded
// retries under capped exponential backoff. step (step.go) chooses every
// effect, compensation included; this file performs them. A joiner that
// may be in the group is compensated with a REMOVE whose reply says roll
// back or, when it would shrink the group below n, roll forward. A
// compensation that fails leaves the swap open for the next monitor
// round to resume.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
	if s >= 0 && s < stageCount {
		return [stageCount]string{"boot", "add", "catch-up", "remove", "power-off"}[s]
	}
	return fmt.Sprintf("SwapStage(%d)", int(s))
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
	// SwapAborted: compensation itself failed. Such a swap now stays
	// open until a later round resolves it; the outcome only appears in
	// logs of controllers that closed it instead.
	SwapAborted
)

// String names the outcome.
func (o SwapOutcome) String() string {
	if o >= SwapSucceeded && o <= SwapAborted {
		return [...]string{"success", "rolled-back", "rolled-forward", "aborted"}[o-SwapSucceeded]
	}
	return fmt.Sprintf("SwapOutcome(%d)", int(o))
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
	// RollbackFailures counts swaps left open after their compensation
	// failed (the next monitor round resumes them), plus any a log
	// recorded as aborted.
	RollbackFailures uint64
	// StageFailures counts failed attempts per stage.
	StageFailures map[SwapStage]uint64
}

// Failed returns how many started swaps did not install the new replica.
func (s SwapStats) Failed() uint64 { return s.Rollbacks + s.RollbackFailures }

// tally counts one closed swap.
func (s *SwapStats) tally(o SwapOutcome) {
	switch o {
	case SwapSucceeded:
		s.Successes++
	case SwapRolledBack:
		s.Rollbacks++
	case SwapRolledForward:
		s.Successes++
		s.RolledForward++
	case SwapAborted:
		s.RollbackFailures++
	}
}

// clone copies the counters, stage failures included.
func (s SwapStats) clone() SwapStats {
	s.StageFailures = maps.Clone(s.StageFailures)
	return s
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

// swapHistoryCap bounds the in-memory swap history window.
const swapHistoryCap = 128

// SwapStats returns a snapshot of the swap-engine counters. An open swap
// counts as a rollback failure until a round resolves it, which keeps
// Attempts = Successes + Rollbacks + RollbackFailures.
func (c *Controller) SwapStats() SwapStats {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	out := c.counters.clone()
	if c.open {
		out.RollbackFailures++
	}
	return out
}

// SwapHistory returns the most recent swap records, oldest first (at most
// the last 128 swaps are retained).
func (c *Controller) SwapHistory() []SwapRecord {
	c.swapMu.Lock()
	defer c.swapMu.Unlock()
	return append([]SwapRecord(nil), c.swapHist...)
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

// histAppendLocked appends one record to the bounded history window,
// counters untouched (Recover rebuilds those separately). Caller holds
// c.swapMu.
func (c *Controller) histAppendLocked(rec SwapRecord) {
	if len(c.swapHist) == swapHistoryCap {
		c.swapHist = c.swapHist[1:]
	}
	c.swapHist = append(c.swapHist, rec)
}

// recordSwapLocked updates the in-memory ring and counters; no swap is
// open once one closes. Caller holds c.swapMu.
func (c *Controller) recordSwapLocked(rec SwapRecord) {
	c.histAppendLocked(rec)
	c.counters.tally(rec.Outcome)
	c.open = false
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

// runStage drives one staged effect: up to `attempts` tries, each
// bounded by `timeout`, with capped exponential backoff between tries
// (the transport's re-dial idiom). Failed attempts are tallied per stage.
// The stage intent is appended to the WAL before any attempt runs and
// the outcome after the stage settles, so a successor can always bound
// what this stage may have done.
func (op *swapOp) runStage(ctx context.Context, eff effect, attempts int, timeout time.Duration, fn func(context.Context, *stageAttempt) error) error {
	c, stage := op.c, stageOf[eff]
	rec := WALRecord{Kind: WALStageIntent, SwapID: op.swapID, Stage: stage, Compensating: eff == effRemoveJoiner}
	if err := c.walAppend(rec); err != nil {
		// A crash point firing on the intent record surfaces here: the
		// process dies between the log write and the side effect.
		return fmt.Errorf("%v: %w", stage, err)
	}
	start, backoff := time.Now(), c.cfg.SwapBackoff
	var err error
	for a := 0; a < attempts; a++ {
		if c.isCrashed() {
			return fmt.Errorf("%v: %w", stage, ErrControllerCrashed)
		}
		if a > 0 {
			c.swapMu.Lock()
			c.counters.Retries++
			c.swapMu.Unlock()
			c.ins.swapRetries.Inc()
			op.rec.Retries++
			if err := sleepCtx(ctx, backoff); err != nil {
				return fmt.Errorf("%v: %w", stage, err)
			}
			backoff = min(2*backoff, c.cfg.SwapBackoffMax)
		}
		if err = attemptStage(ctx, timeout, fn); err == nil {
			break
		}
		c.swapMu.Lock()
		c.counters.StageFailures[stage]++
		c.swapMu.Unlock()
		c.ins.swapStageFailures[stage].Inc()
		c.cfg.Logf("controlplane: swap stage %v attempt %d/%d failed: %v", stage, a+1, attempts, err)
		if ctx.Err() != nil {
			break
		}
	}
	c.ins.swapStageUS[stage].Observe(time.Since(start).Microseconds())
	// The outcome is best-effort: if this append is the crash point, the
	// missing outcome is exactly the ambiguity recovery resolves.
	if rec.Kind, rec.OK = WALStageOutcome, err == nil; err != nil {
		rec.Err = err.Error()
		err = fmt.Errorf("%v: %w", stage, err)
	}
	if werr := c.walAppend(rec); werr != nil && !errors.Is(werr, ErrControllerCrashed) {
		c.cfg.Logf("controlplane: stage-outcome WAL append: %v", werr)
	}
	return err
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
	oldSlot, slot  *nodeSlot // slot is nil if no joiner was provisioned
	client         *bft.Client
	pre            *bft.Membership // membership before the swap
	rec            SwapRecord

	// verdict and epoch are the reply a live attempt of the current
	// reconfiguration settled (reconfigNone if none did).
	verdict reconfigResult
	epoch   uint64
}

// executeSwap performs the BFT-SMaRt-style replacement described in the
// package comment. A rolled-back or still-open swap returns an error; a
// rolled-forward one returns nil like any other success.
func (c *Controller) executeSwap(ctx context.Context, removed, added core.Replica) error {
	if c.isCrashed() {
		return ErrControllerCrashed
	}
	c.swapMu.Lock()
	c.counters.Attempts++
	c.swapSeq++
	swapID := c.swapSeq
	c.swapMu.Unlock()
	c.ins.swapAttempts.Inc()

	c.mu.Lock()
	oldID, ok := c.osToNode[removed.ID]
	var newID transport.NodeID
	var err error
	if ok {
		newID = c.nextNode
		c.nextNode++
	} else {
		err = fmt.Errorf("no node runs %s", removed.ID)
	}
	// Open the swap in the log before provisioning the joiner's slot —
	// the first side effect — then snapshot the post-decision census
	// (lifecycle sets, rng position) a successor would resume from.
	werr := c.walAppend(WALRecord{
		Kind: WALSwapBegin, SwapID: swapID,
		RemovedOS: removed.ID, AddedOS: added.ID,
		OldNode: oldID, NewNode: newID,
	})
	if werr == nil && err == nil {
		if _, err = c.newSlotLocked(newID); err == nil {
			werr = c.walCensusLocked()
		}
	}
	c.mu.Unlock()
	if werr != nil {
		return werr
	}
	op := c.newSwapOp(swapID, removed, added, oldID, newID, c.membership.Load())
	var s swapState
	if err != nil {
		// Nothing was provisioned: the swap rolls back at once.
		s = swapState{back: true, failed: StageBoot, cause: err.Error()}
	}
	_, err = op.drive(ctx, s)
	return err
}

// newSwapOp builds the executor of one swap from the plant it runs on.
func (c *Controller) newSwapOp(swapID uint64, removed, added core.Replica, oldID, newID transport.NodeID, pre *bft.Membership) *swapOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := &swapOp{c: c, swapID: swapID, removed: removed, added: added, oldID: oldID, newID: newID,
		oldSlot: c.nodes[oldID], client: c.client, pre: pre, rec: SwapRecord{Removed: removed.ID,
			Added: added.ID, OldNode: oldID, NewNode: newID, Started: c.cfg.Clock()}}
	if newID != oldID {
		// A swap that found no node for the removed OS minted no joiner.
		op.slot = c.nodes[newID]
	}
	return op
}

// drive runs the swap from s: step chooses each effect, run performs it.
// It returns the outcome once the swap closes, and 0 if the swap stays
// open or the controller died. Every effect is idempotent, so a resumed
// swap runs the same loop from its folded evidence.
func (op *swapOp) drive(ctx context.Context, s swapState) (SwapOutcome, error) {
	c := op.c
	var o observation
	s, eff := step(s, o)
	for eff != effClose && eff != effHold {
		if o = op.run(ctx, eff); c.isCrashed() {
			// The dying process records nothing more; its successor
			// resolves this swap from the WAL.
			return 0, ErrControllerCrashed
		}
		s, eff = step(s, o)
	}
	// The census goes first: a successor that finds the end record also
	// finds the monitor and OS map that go with it.
	if c.walCensus(); c.isCrashed() {
		return 0, ErrControllerCrashed
	}
	if eff == effHold {
		c.swapMu.Lock()
		c.open = true
		c.swapMu.Unlock()
		c.ins.swapOutcome[SwapAborted].Inc()
		return 0, fmt.Errorf("%v failed (%s) and compensation failed (%s); the next round resumes it", s.failed, s.cause, o.err)
	}
	outcome := s.outcome()
	op.rec.Outcome, op.rec.FailedStage, op.rec.Err = outcome, s.failed, s.cause
	op.rec.Finished = c.cfg.Clock()
	c.recordSwap(op.swapID, op.rec)
	switch outcome {
	case SwapRolledBack:
		return outcome, fmt.Errorf("%v failed (rolled back): %s", s.failed, s.cause)
	case SwapRolledForward:
		c.cfg.Logf("controlplane: swap %s->%s rolled forward: the REMOVE had been ordered despite %s",
			op.removed.ID, op.added.ID, s.cause)
	default:
		c.cfg.Logf("controlplane: swapped %s (node %d) for %s (node %d)",
			op.removed.ID, op.oldID, op.added.ID, op.newID)
	}
	return outcome, nil
}

// run performs one effect and reports what it saw.
func (op *swapOp) run(ctx context.Context, eff effect) observation {
	c := op.c
	n, timeout := c.cfg.SwapAttempts, c.cfg.SwapStageTimeout
	op.verdict = reconfigNone
	var err error
	switch eff {
	case effBoot:
		err = op.runStage(ctx, eff, n, timeout, op.boot)
	case effOrderAdd:
		err = op.runStage(ctx, eff, n, timeout, op.orderAdd)
	case effCommitAdd:
		err = op.commitAdd()
	case effCatchUp:
		// One attempt: its budget is CatchUpTimeout on the injected clock;
		// the stage timeout on top is a real-time backstop against a
		// frozen test clock.
		err = op.runStage(ctx, eff, 1, c.cfg.CatchUpTimeout+timeout, op.waitCatchUp)
	case effOrderRemove:
		err = op.runStage(ctx, eff, n, timeout, op.orderRemove)
	case effCommitRemove:
		op.commitRemove()
	case effSettleEpoch:
		c.settleEpoch(ctx)
	case effPowerOff:
		if err = op.runStage(ctx, eff, n, timeout, op.powerOffOld); err != nil {
			c.cfg.Logf("controlplane: swap %s->%s: power-off of node %d failed (%v); retiring out-of-band",
				op.removed.ID, op.added.ID, op.oldID, err)
		}
	case effDecommission:
		op.decommissionOld()
	case effRemoveJoiner:
		if err = op.runStage(ctx, eff, n, timeout, op.removeJoiner); err == nil {
			op.restoreView()
		}
	case effDiscardJoiner:
		op.discardJoiner()
	case effRevertMonitor:
		c.mu.Lock()
		monitor := c.monitor
		c.mu.Unlock()
		if err := monitor.RevertSwap(op.removed, op.added); err != nil {
			c.cfg.Logf("controlplane: reverting monitor sets after failed swap: %v", err)
		}
	}
	o := observation{eff: eff, res: resOK, verdict: op.verdict}
	if err != nil {
		o.res, o.err = resFailed, err.Error()
	}
	return o
}

// booted reports whether the joiner's node runs the new OS.
func (op *swapOp) booted() bool {
	return op.slot != nil && op.slot.node.Running() && op.slot.node.OS().ID == op.added.ID
}

// boot powers the joiner on through its LTU. A retry after a stalled
// attempt that eventually landed sees the node already running the right
// image and treats it as success.
func (op *swapOp) boot(context.Context, *stageAttempt) error {
	if op.slot == nil {
		return fmt.Errorf("node %d has no slot", op.newID)
	}
	op.c.mu.Lock()
	err := op.c.powerOnLocked(op.slot, op.added.ID, true)
	op.c.mu.Unlock()
	if err != nil && op.booted() {
		return nil
	}
	return err
}

// reconfigResult interprets a reconfiguration command's reply.
type reconfigResult int

const (
	reconfigNone reconfigResult = iota // no definitive reply
	reconfigApplied
	reconfigAlreadyDone
	reconfigTooSmall
	reconfigRejected
)

// parseReconfigResult decodes the structured bft.ReconfigResult reply.
// A reply that does not decode is an error, not a verdict: the caller
// must treat the operation's fate as unknown.
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

// reconfigure orders one reconfiguration and settles its verdict. Only a
// reply to a live attempt is a verdict; anything else leaves the
// operation possibly ordered. "Already a member" and "not a member" mean
// an earlier attempt landed. tooSmallOK makes "too small" an answer.
func (op *swapOp) reconfigure(ctx context.Context, att *stageAttempt, rop bft.ReconfigOp, what string, tooSmallOK bool) error {
	res, err := op.client.Invoke(ctx, bft.EncodeReconfigOp(rop))
	if err != nil {
		return fmt.Errorf("ordering %s of node %d: %w", what, rop.Replica, err)
	}
	verdict, epoch, err := parseReconfigResult(res)
	switch {
	case err != nil:
		return fmt.Errorf("%s of node %d: %w", what, rop.Replica, err)
	case !att.settle(func() { op.verdict, op.epoch = verdict, epoch }):
		return fmt.Errorf("%s of node %d: attempt abandoned", what, rop.Replica)
	case verdict == reconfigApplied, verdict == reconfigAlreadyDone, verdict == reconfigTooSmall && tooSmallOK:
		return nil
	}
	return fmt.Errorf("%s of node %d rejected: %s", what, rop.Replica, res)
}

// orderAdd submits the ADD of the joiner.
func (op *swapOp) orderAdd(ctx context.Context, att *stageAttempt) error {
	pub, err := op.c.builder.PublicKey(op.newID)
	if err != nil {
		return err
	}
	return op.reconfigure(ctx, att, bft.ReconfigOp{Add: true, Replica: op.newID, PubKey: pub}, "ADD", false)
}

// orderRemove submits the REMOVE of the quarantined replica's node.
func (op *swapOp) orderRemove(ctx context.Context, att *stageAttempt) error {
	return op.reconfigure(ctx, att, bft.ReconfigOp{Replica: op.oldID}, "REMOVE", false)
}

// removeJoiner submits the compensating REMOVE of the joiner. "Too small"
// is an answer here: the group is at n without the old replica.
func (op *swapOp) removeJoiner(ctx context.Context, att *stageAttempt) error {
	return op.reconfigure(ctx, att, bft.ReconfigOp{Replica: op.newID}, "compensating REMOVE", true)
}

// install makes m the controller's view of the group: stored, handed to
// the control client, and logged.
func (op *swapOp) install(m *bft.Membership, after string) {
	op.c.membership.Store(m)
	op.client.UpdateMembership(m.Replicas, m.Keys)
	if err := op.c.walMembership(m); err != nil && !errors.Is(err, ErrControllerCrashed) {
		op.c.cfg.Logf("controlplane: membership WAL append after %s: %v", after, err)
	}
}

// commitAdd installs the post-ADD membership locally. A view that already
// includes the joiner needs nothing.
func (op *swapOp) commitAdd() error {
	pub, err := op.c.builder.PublicKey(op.newID)
	if err != nil {
		return err
	}
	next, err := op.c.membership.Load().WithAdded(op.newID, pub)
	if errors.Is(err, bft.ErrAlreadyMember) {
		return nil
	} else if err != nil {
		return err
	}
	op.install(next, "ADD")
	return nil
}

// waitCatchUp waits until the joiner has state-transferred into the
// current epoch, for CatchUpTimeout on the injected clock.
func (op *swapOp) waitCatchUp(ctx context.Context, _ *stageAttempt) error {
	c := op.c
	return c.poll(ctx, c.cfg.CatchUpTimeout, 25*time.Millisecond, func() bool {
		joiner := op.slot.node.Replica()
		if joiner == nil {
			return false
		}
		st := joiner.Stats()
		return st.CurrentEpoch >= c.currentMembership().Epoch && st.MembershipSize > 0 && st.StateTransfers > 0
	}, "joiner %s on node %d did not catch up", op.added.ID, op.newID)
}

// poll checks done every interval until it holds, the context ends, or
// timeout passes on the injected clock (cfg.Clock), so tests control the
// deadline without real sleeps.
func (c *Controller) poll(ctx context.Context, timeout, interval time.Duration, done func() bool, format string, args ...any) error {
	deadline := c.cfg.Clock().Add(timeout)
	for !done() {
		if c.cfg.Clock().After(deadline) {
			return fmt.Errorf(format+" in %v", append(args, timeout)...)
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return err
		}
	}
	return nil
}

// commitRemove installs the post-REMOVE membership and points the OS map
// at the new node. A view that already excludes the old replica needs no
// new membership.
func (op *swapOp) commitRemove() {
	c := op.c
	if next, err := c.membership.Load().WithRemoved(op.oldID); err == nil {
		op.install(next, "REMOVE")
	} else if !errors.Is(err, bft.ErrNotMember) {
		c.cfg.Logf("controlplane: commit REMOVE of node %d locally: %v", op.oldID, err)
	}
	c.mu.Lock()
	delete(c.osToNode, op.removed.ID)
	c.osToNode[op.added.ID] = op.newID
	c.mu.Unlock()
}

// restoreView installs the pre-swap group once the compensating REMOVE
// answered that the joiner is out: at the reply's epoch if it applied.
func (op *swapOp) restoreView() {
	next := op.pre.Clone()
	switch {
	case op.verdict == reconfigApplied:
		next.Epoch = op.epoch
	case op.verdict != reconfigAlreadyDone || !op.c.membership.Load().Contains(op.newID):
		return
	}
	op.install(next, "compensating REMOVE")
}

// settleEpoch waits, bounded and best-effort, until every live member
// reports the committed epoch before the removed node is powered off:
// the removed replica was part of the REMOVE's commit quorum, and killing
// it while others still catch up can leave fewer than a quorum at the new
// epoch. Replicas that never settle cost the stage timeout, on the
// injected clock and, against a frozen one, in real time.
func (c *Controller) settleEpoch(ctx context.Context) {
	m := c.currentMembership()
	ctx, cancel := context.WithTimeout(ctx, c.cfg.SwapStageTimeout)
	defer cancel()
	if err := c.poll(ctx, c.cfg.SwapStageTimeout, 10*time.Millisecond, func() bool { return c.membersSettled(m) },
		"epoch %d did not settle on all members", m.Epoch); err != nil {
		c.cfg.Logf("controlplane: %v; proceeding", err)
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
	if op.oldSlot == nil {
		return nil
	}
	op.c.mu.Lock()
	defer op.c.mu.Unlock()
	return op.c.powerOffLocked(op.oldSlot)
}

// decommissionOld retires and untracks the old node: whatever the LTU
// managed, the slot is wiped out-of-band and never hosts a replica again
// (its OS sits in quarantine; a re-admission mints a fresh node).
func (op *swapOp) decommissionOld() {
	if op.oldSlot != nil {
		op.oldSlot.node.Retire()
	}
	op.c.mu.Lock()
	delete(op.c.nodes, op.oldID)
	op.c.mu.Unlock()
}

// discardJoiner retires and untracks the joiner's node.
func (op *swapOp) discardJoiner() {
	if op.slot == nil {
		return
	}
	op.slot.node.Retire()
	op.c.mu.Lock()
	delete(op.c.nodes, op.newID)
	op.c.mu.Unlock()
}
