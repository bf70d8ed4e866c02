package controlplane

import (
	"fmt"
	"testing"
)

// plant is what TestStepExhaustive runs swaps against: the two replicas
// a swap exchanges (three more members never change), the controller's
// view of the group, the nodes, and what the WAL and the census hold.
type plant struct {
	oldIn, joinerIn       bool // group membership
	viewOld, viewJoiner   bool // the controller's view
	logOld, logJoiner     bool // the last membership record
	oldUp, joinerUp       bool // node running
	oldSlot, joinerSlot   bool // node tracked
	decided, mapped       bool // the monitor holds the decision; the OS map names the joiner
	cenDecided, cenMapped bool // the same, as the last census recorded them
	censusAfterBegin      bool
	fold                  swapState // the swap's stage records, folded through step
	closed                bool
	outcome               SwapOutcome
}

// budget bounds the faults and controller crashes one run may suffer.
type budget struct{ faults, crashes int }

// alternative is one way an effect can go.
type alternative struct {
	lands   bool
	res     result
	verdict reconfigResult
	fault   bool
}

type exploreKey struct {
	p plant
	s swapState
	o observation
	b budget
}

type explorer struct {
	t      *testing.T
	seen   map[exploreKey]bool
	closed map[SwapOutcome]int
	holds  int
	resume int
}

// TestStepExhaustive drives step through every reachable swap state
// against a model plant. At each effect it tries every way the effect can
// go: it succeeds, it fails, an attempt times out whether or not its
// effect landed, and a reconfiguration is applied, already done, too
// small or rejected. After every WAL record the controller may crash, and
// a successor continues from the folded records and the plant, as Recover
// does. A compensation that fails leaves the swap open and the next round
// resumes it. Faults are finite, so every run must close, at n = 3f+1,
// with the view, the nodes, the monitor and the OS map all agreeing with
// the group.
func TestStepExhaustive(t *testing.T) {
	x := &explorer{t: t, seen: make(map[exploreKey]bool), closed: make(map[SwapOutcome]int)}
	p := plant{
		oldIn: true, viewOld: true, logOld: true, oldUp: true, oldSlot: true,
		decided: true, // Algorithm 1 decided; no census recorded it yet
	}
	b := budget{faults: 4, crashes: 3}
	// The begin record, then the joiner's slot and the post-decision census.
	x.crash(p, b)
	p.joinerSlot = true
	p.cenDecided, p.censusAfterBegin = true, true
	x.crash(p, b)
	x.run(p, swapState{}, observation{}, b, 0)

	t.Logf("%d states; closed %v; %d holds resumed; %d crash resumes", len(x.seen), x.closed, x.holds, x.resume)
	for _, o := range []SwapOutcome{SwapSucceeded, SwapRolledBack, SwapRolledForward} {
		if x.closed[o] == 0 {
			t.Errorf("no run closed %v", o)
		}
	}
	if x.holds == 0 || x.resume == 0 {
		t.Errorf("holds %d, crash resumes %d: the exploration missed a path", x.holds, x.resume)
	}
}

// run feeds o to step and follows the chosen effect down every way it
// can go.
func (x *explorer) run(p plant, s swapState, o observation, b budget, rounds int) {
	key := exploreKey{p, s, o, b}
	if x.seen[key] {
		return
	}
	x.seen[key] = true
	s, eff := step(s, o)
	switch eff {
	case effClose:
		p.cenDecided, p.cenMapped = p.decided, p.mapped
		x.crash(p, b)
		p.closed, p.outcome = true, s.outcome()
		x.crash(p, b)
		x.check(p, s)
		return
	case effHold:
		p.cenDecided, p.cenMapped = p.decided, p.mapped
		x.crash(p, b)
		if rounds > 3+2*(b.faults+b.crashes) {
			x.t.Fatalf("swap still open after %d rounds: %+v %+v", rounds, p, s)
		}
		// The next round resumes the swap with Recover's fold and probe.
		x.holds++
		x.run(p, resumed(p.fold, p.censusAfterBegin, p.viewJoiner, p.joinerUp), observation{}, b, rounds+1)
		return
	}
	_, staged := stageRecord(eff)
	for _, a := range p.alternatives(eff) {
		nb := b
		if a.fault {
			if b.faults == 0 {
				continue
			}
			nb.faults--
		}
		q := p
		if staged {
			q.log(eff, WALStageIntent, false)
			x.crash(q, nb)
			if a.lands {
				landed := q
				landed.land(eff)
				x.crash(landed, nb) // died after the effect, before its outcome
			}
		}
		if a.lands {
			q.land(eff)
		}
		if staged {
			q.log(eff, WALStageOutcome, a.res == resOK)
			x.crash(q, nb)
		}
		if q.local(eff, a) {
			x.crash(q, nb) // after the membership record
		}
		x.run(q, s, observation{eff: eff, res: a.res, verdict: a.verdict}, nb, rounds)
	}
}

// crash kills the controller after the last WAL record and brings up a
// successor: the view comes from the last membership record, the monitor
// and OS map from the last census, and an open swap resumes.
func (x *explorer) crash(p plant, b budget) {
	if b.crashes == 0 {
		return
	}
	b.crashes--
	p.viewOld, p.viewJoiner = p.logOld, p.logJoiner
	p.decided, p.mapped = p.cenDecided, p.cenMapped
	if p.closed {
		x.check(p, swapState{})
		return
	}
	x.resume++
	x.run(p, resumed(p.fold, p.censusAfterBegin, p.viewJoiner, p.joinerUp), observation{}, b, 0)
}

func (x *explorer) check(p plant, s swapState) {
	x.t.Helper()
	x.closed[p.outcome]++
	var bad string
	switch {
	case p.oldIn == p.joinerIn:
		bad = fmt.Sprintf("the group has %d members", 3+btoi(p.oldIn)+btoi(p.joinerIn))
	case p.viewOld != p.oldIn || p.viewJoiner != p.joinerIn:
		bad = "the view differs from the group"
	case p.oldUp != p.oldIn || p.oldSlot != p.oldIn:
		bad = "the old node runs outside the group, or a member's node is gone"
	case p.joinerUp != p.joinerIn || p.joinerSlot != p.joinerIn:
		bad = "the joiner runs outside the group, or a member's node is gone"
	case p.decided != p.joinerIn || p.mapped != p.joinerIn:
		bad = "the monitor or the OS map differs from the group"
	case (p.outcome == SwapRolledBack) != p.oldIn:
		bad = fmt.Sprintf("outcome %v", p.outcome)
	}
	if bad != "" {
		x.t.Fatalf("%s: plant %+v, state %+v", bad, p, s)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stageRecord names the WAL stage an effect logs under, if it runs
// through runStage.
func stageRecord(eff effect) (WALRecord, bool) {
	switch eff {
	case effBoot, effOrderAdd, effCatchUp, effOrderRemove, effPowerOff, effRemoveJoiner:
		return WALRecord{Stage: stageOf[eff], Compensating: eff == effRemoveJoiner}, true
	}
	return WALRecord{}, false
}

// log appends a stage record and folds it, as replayWALState does.
func (p *plant) log(eff effect, kind WALKind, ok bool) {
	rec, _ := stageRecord(eff)
	rec.Kind, rec.OK = kind, ok
	p.fold, _ = step(p.fold, observed(rec))
}

// answer is the group's reply to a reconfiguration.
func (p plant) answer(eff effect) (applies bool, v reconfigResult) {
	member := p.joinerIn
	switch eff {
	case effOrderAdd:
		if p.joinerIn {
			return false, reconfigAlreadyDone
		}
		return true, reconfigApplied
	case effOrderRemove:
		member = p.oldIn
	}
	switch {
	case !member:
		return false, reconfigAlreadyDone
	case 3+btoi(p.oldIn)+btoi(p.joinerIn) <= 4:
		return false, reconfigTooSmall
	}
	return true, reconfigApplied
}

// alternatives lists the ways eff can go in this plant.
func (p plant) alternatives(eff effect) []alternative {
	switch eff {
	case effBoot:
		return []alternative{
			{lands: p.joinerSlot, res: resultOf(p.joinerSlot)},
			{res: resFailed, fault: true},
			{lands: p.joinerSlot, res: resFailed, fault: true}, // timed out, landed
		}
	case effCatchUp:
		return []alternative{{res: resultOf(p.joinerUp && p.joinerIn)}, {res: resFailed, fault: true}}
	case effPowerOff:
		return []alternative{{lands: true, res: resOK}, {res: resFailed, fault: true}}
	case effOrderAdd, effOrderRemove, effRemoveJoiner:
		applies, v := p.answer(eff)
		ok := v == reconfigApplied || v == reconfigAlreadyDone || (v == reconfigTooSmall && eff == effRemoveJoiner)
		alts := []alternative{
			{lands: applies, res: resultOf(ok), verdict: v},
			{res: resFailed, fault: true}, // timed out, did not land
		}
		if applies {
			alts = append(alts,
				alternative{lands: true, res: resFailed, fault: true}, // timed out, landed
				alternative{res: resFailed, verdict: reconfigRejected, fault: true})
		}
		return alts
	}
	return []alternative{{lands: true, res: resOK}}
}

func resultOf(ok bool) result {
	if ok {
		return resOK
	}
	return resFailed
}

// land applies the effect of a staged effect to the group and nodes.
func (p *plant) land(eff effect) {
	switch eff {
	case effBoot:
		p.joinerUp = true
	case effOrderAdd:
		p.joinerIn = true
	case effOrderRemove:
		p.oldIn = false
	case effRemoveJoiner:
		p.joinerIn = false
	case effPowerOff:
		p.oldUp = false
	}
}

// local performs what the executor does in the controller itself, and
// reports whether it appended a membership record.
func (p *plant) local(eff effect, a alternative) bool {
	view := [2]bool{p.viewOld, p.viewJoiner}
	switch eff {
	case effCommitAdd:
		p.viewJoiner = true
	case effCommitRemove:
		p.viewOld, p.mapped = false, true
	case effRemoveJoiner:
		// restoreView: the pre-swap group, once the joiner is out.
		if a.res == resOK && (a.verdict == reconfigApplied || p.viewJoiner && a.verdict == reconfigAlreadyDone) {
			p.viewOld, p.viewJoiner = true, false
		}
	case effDecommission:
		p.oldUp, p.oldSlot = false, false
	case effDiscardJoiner:
		p.joinerUp, p.joinerSlot = false, false
	case effRevertMonitor:
		p.decided = false
	}
	if view == [2]bool{p.viewOld, p.viewJoiner} {
		return false
	}
	p.logOld, p.logJoiner = p.viewOld, p.viewJoiner
	return true
}
