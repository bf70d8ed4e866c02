package controlplane

// The swap as one transition function. step is the only code that decides
// what a swap does next: it folds one observation into the swap's
// evidence and returns the next effect. The executor (swapOp.drive) feeds
// it what each effect reported. Recover, and a monitor round that finds a
// swap left open, first feed it the swap's WAL stage records (observed),
// then what the plant shows (resumed), and go on in the same loop.
// TestStepExhaustive runs it through every fault, verdict and crash point
// against a model plant; that test is the source of truth for the table.

// effect is one side effect of a swap. The forward effects run in
// declaration order, effBoot through effDecommission.
type effect uint8

const (
	effBoot effect = iota
	effOrderAdd
	effCommitAdd
	effCatchUp
	effOrderRemove
	effCommitRemove
	effSettleEpoch
	effPowerOff
	effDecommission
	// Compensation.
	effRemoveJoiner // the compensating REMOVE of the joiner
	effDiscardJoiner
	effRevertMonitor
	// Terminal: close the swap with its outcome, or leave it open after a
	// failed compensation for the next round to resume.
	effClose
	effHold
)

// stageOf is the stage each effect belongs to: the WAL stage of the
// effects runStage drives, and the stage a failure is blamed on.
var stageOf = [effClose]SwapStage{
	effBoot: StageBoot, effOrderAdd: StageAdd, effCommitAdd: StageAdd,
	effCatchUp: StageCatchUp, effOrderRemove: StageRemove, effCommitRemove: StageRemove,
	effSettleEpoch: StagePowerOff, effPowerOff: StagePowerOff, effDecommission: StagePowerOff,
	effRemoveJoiner: StageRemove, effDiscardJoiner: StageRemove, effRevertMonitor: StageRemove,
}

// stageEffect maps a forward stage record back to its effect.
var stageEffect = [stageCount]effect{effBoot, effOrderAdd, effCatchUp, effOrderRemove, effPowerOff}

// result is what an observation says about its effect.
type result uint8

const (
	resNone    result = iota // nothing ran: choose the next effect from the evidence
	resUnknown               // intent on file, no outcome: it may or may not have landed
	resOK
	resFailed
)

// observation is what running, or replaying, one effect showed.
type observation struct {
	eff effect
	res result
	// verdict is a reconfiguration's definitive reply, reconfigNone when
	// no live attempt settled one (the WAL never records it).
	verdict reconfigResult
	err     string
}

// swapState is a swap's evidence so far.
type swapState struct {
	done         uint16 // effects known to have landed, one bit each
	back         bool   // compensating
	addUncertain bool   // an ADD may have been ordered without a definitive reply
	failed       SwapStage
	cause        string
}

func (s swapState) has(e effect) bool { return s.done&(1<<e) != 0 }

// outcome classifies a swap that step closed. A compensating REMOVE that
// turned the swap forward again makes it rolled forward.
func (s swapState) outcome() SwapOutcome {
	switch {
	case s.back:
		return SwapRolledBack
	case s.has(effRemoveJoiner):
		return SwapRolledForward
	}
	return SwapSucceeded
}

// step folds o into s and chooses the next effect.
func step(s swapState, o observation) (swapState, effect) {
	switch o.res {
	case resUnknown:
		switch o.eff {
		case effOrderAdd:
			s.addUncertain = true
		case effRemoveJoiner:
			s.back, s.addUncertain = true, true
		}
	case resOK:
		switch {
		case o.eff != effRemoveJoiner || o.verdict == reconfigApplied || o.verdict == reconfigAlreadyDone:
			s.done |= 1 << o.eff
		case o.verdict == reconfigTooSmall:
			// Removing the joiner would shrink the group below n, so the
			// old replica is gone: the original REMOVE was ordered. Finish
			// the swap instead.
			s.back = false
			s.done |= 1<<effBoot | 1<<effOrderAdd | 1<<effCatchUp | 1<<effOrderRemove | 1<<effRemoveJoiner
		default:
			// A replayed outcome: the log keeps no verdict, so ask again.
			s.back, s.addUncertain = true, true
		}
	case resFailed:
		switch o.eff {
		case effPowerOff:
			// The membership change is committed: a node that will not
			// power off is retired out-of-band instead.
			s.done |= 1 << o.eff
		case effRemoveJoiner:
			s.back, s.addUncertain = true, true
			return s, effHold
		default:
			if o.eff == effOrderAdd {
				// Only a reply from a live attempt says the ADD did not land.
				s.addUncertain = o.verdict == reconfigNone
			}
			s.back, s.failed, s.cause = true, stageOf[o.eff], o.err
		}
	}
	if !s.back {
		for e := effBoot; e <= effDecommission; e++ {
			if !s.has(e) {
				return s, e
			}
		}
		return s, effClose
	}
	switch {
	case (s.addUncertain || s.has(effOrderAdd) || s.has(effCommitAdd)) && !s.has(effRemoveJoiner):
		return s, effRemoveJoiner
	case !s.has(effDiscardJoiner):
		return s, effDiscardJoiner
	case !s.has(effRevertMonitor):
		return s, effRevertMonitor
	}
	return s, effClose
}

// observed reads one stage record as the observation the executor made:
// an intent is an effect of unknown fate, an outcome is ok or failed.
func observed(rec WALRecord) observation {
	if rec.Stage < 0 || rec.Stage >= stageCount {
		return observation{}
	}
	o := observation{eff: stageEffect[rec.Stage], res: resUnknown, err: rec.Err}
	if rec.Compensating {
		o.eff = effRemoveJoiner
	}
	if rec.Kind == WALStageOutcome {
		o.res = resFailed
		if rec.OK {
			o.res = resOK
		}
	}
	return o
}

// resumed adds what the plant shows to an open swap's folded records. A
// swap no census recorded the decision of closes as rolled back: the
// restored monitor never made the decision, so there is nothing to revert,
// and the next round decides again. A joiner in the restored view has its
// ADD committed; a joiner running the new OS has booted.
func resumed(s swapState, decided, inView, booted bool) swapState {
	if !decided {
		s.back, s.cause = true, "controller crashed before the swap decision was recorded"
		s.done |= 1 << effRevertMonitor
	}
	if inView {
		s.done |= 1 << effCommitAdd
	}
	if booted {
		s.done |= 1 << effBoot
	}
	return s
}
