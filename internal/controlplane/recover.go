// Controller recovery: a new process replays its predecessor's WAL,
// re-adopts the surviving execution plane, and resumes whatever swap the
// log left open. The WAL bounds what the cluster state can be (intent
// before side effect, outcome after); the open swap's stage records fold
// through step (step.go), a probe of the plant adds what the log cannot
// say, and the swap continues in the loop a live swap runs. A monitor
// round that finds a swap left open by a failed compensation does the
// same.
package controlplane

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/core"
	"lazarus/internal/transport"
)

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
	pre *bft.Membership
	// state is the swap's stage records folded through step.
	state swapState
}

// walState is everything replayWALState distills from the log.
type walState struct {
	ctrlKey    ed25519.PrivateKey
	n          int
	generation int
	membership *bft.Membership
	census     *WALRecord
	// ends collects every closed swap, oldest first (the history window
	// re-bounds them); the ends from censusEnds on and beginsAfterCensus
	// are the counter deltas on top of the census Stats snapshot.
	ends              []SwapRecord
	censusEnds        int
	statsBase         SwapStats
	beginsAfterCensus uint64
	maxSwapID         uint64
	maxNode           transport.NodeID
	// inFlight is the open swap, if any: swaps are serial, and a swap
	// left open is resumed before another begins.
	inFlight *inFlightSwap
}

// replayWALState folds the log into the recovery state.
func replayWALState(w WAL) (*walState, error) {
	st := &walState{}
	err := w.Replay(func(rec WALRecord) error {
		switch rec.Kind {
		case WALBootstrap:
			st.ctrlKey = ed25519.PrivateKey(append([]byte(nil), rec.CtrlKey...))
			st.n = rec.N
		case WALRecover:
			st.generation = max(st.generation, rec.Generation)
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
			st.beginsAfterCensus, st.censusEnds = 0, len(st.ends)
			if st.inFlight != nil {
				st.inFlight.censusAfterBegin = true
			}
		case WALSwapBegin:
			st.inFlight = &inFlightSwap{
				swapID:    rec.SwapID,
				removedOS: rec.RemovedOS, addedOS: rec.AddedOS,
				oldNode: rec.OldNode, newNode: rec.NewNode,
				pre: st.membership,
			}
			st.beginsAfterCensus++
			st.maxSwapID, st.maxNode = max(st.maxSwapID, rec.SwapID), max(st.maxNode, rec.NewNode)
		case WALStageIntent, WALStageOutcome:
			if fl := st.inFlight; fl != nil && fl.swapID == rec.SwapID {
				fl.state, _ = step(fl.state, observed(rec))
			}
		case WALSwapEnd:
			if rec.Swap != nil {
				st.ends = append(st.ends, *rec.Swap)
			}
			if fl := st.inFlight; fl != nil && fl.swapID == rec.SwapID {
				st.inFlight = nil
			}
		}
		return nil
	})
	return st, err
}

// restoredCounters rebuilds the swap counters: the census snapshot plus
// one attempt per later swap-begin and one outcome per later swap-end.
// (Stage-failure and retry tallies made after the last census are lost;
// the ledger totals chaos checks are exact.)
func restoredCounters(st *walState) SwapStats {
	k := st.statsBase.clone()
	if k.StageFailures == nil {
		k.StageFailures = make(map[SwapStage]uint64)
	}
	k.Attempts += st.beginsAfterCensus
	for _, rec := range st.ends[st.censusEnds:] {
		k.tally(rec.Outcome)
	}
	return k
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
	// The predecessor is dead; its control client goes with it.
	if plant.client != nil {
		plant.client.Close()
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

	c := newController(cfg, plant.builder, st.ctrlKey)
	c.generation = st.generation + 1
	c.ins.walReplayUS.Observe(time.Since(replayStart).Microseconds())

	// Re-adopt the census and the plant. Node IDs must never be reused
	// (the transport and the builder key registry are per-ID), and the
	// LTUs reject non-increasing command sequence numbers as replays:
	// resume both above everything the log and the plant have seen.
	cen := st.census
	for osID, node := range cen.OSNodes {
		c.osToNode[osID] = node
	}
	c.nextNode, c.ltuSeq = max(cen.NextNode, st.maxNode+1), cen.LTUSeq
	for _, id := range st.membership.Replicas {
		c.nextNode = max(c.nextNode, id+1)
	}
	for id, slot := range plant.nodes {
		c.nodes[id] = slot
		c.nextNode, c.ltuSeq = max(c.nextNode, id+1), max(c.ltuSeq, slot.ltu.LastSeq())
	}

	// The risk pipeline is rebuilt from the corpus, not the WAL: OSINT
	// data is re-ingestable by definition (cfg.InitialVulns/Crawler must
	// cover what the predecessor had seen for identical decisions).
	if err := c.RefreshIntel(ctx); err != nil {
		return nil, fmt.Errorf("controlplane: recovering intel: %w", err)
	}

	// Monitor lifecycle sets, exactly as the census recorded them
	// (including order — the uniform random pick indexes into them).
	var sets [3][]core.Replica
	for i, ids := range [3][]string{cen.Config, cen.Pool, cen.Quarantine} {
		for _, id := range ids {
			r, ok := monitorReplica(id)
			if !ok {
				return nil, fmt.Errorf("controlplane: census OS %s not in the universe", id)
			}
			sets[i] = append(sets[i], r)
		}
	}
	monitor, err := core.RestoreMonitor(c.eval, core.Config(sets[0]), sets[1], sets[2], core.MonitorConfig{
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

	c.membership.Store(st.membership)
	// A fresh client identity per generation: replicas de-duplicate by
	// per-client sequence number, and the predecessor's counter died with
	// it. Reconfigurations authenticate by the controller key, not the
	// client id, so any id works.
	if err := c.connect(transport.ClientIDBase+9900+transport.NodeID(c.generation), st.membership); err != nil {
		return nil, err
	}

	// Swap ledger: the history replays from the end records, the counters
	// from the census snapshot plus deltas.
	c.swapMu.Lock()
	for _, rec := range st.ends {
		c.histAppendLocked(rec)
	}
	c.counters = restoredCounters(st)
	c.swapSeq = st.maxSwapID
	c.open = st.inFlight != nil
	c.swapMu.Unlock()

	if err := c.walAppend(WALRecord{Kind: WALRecover, Generation: c.generation}); err != nil {
		return nil, err
	}
	c.cfg.Logf("controlplane: generation %d recovered: epoch %d, %d nodes, %d closed swaps, in-flight=%v",
		c.generation, st.membership.Epoch, len(c.nodes), len(st.ends), st.inFlight != nil)

	if fl := st.inFlight; fl != nil {
		if rerr := c.resumeSwap(ctx, fl); rerr != nil {
			// The next monitor round resumes it again.
			c.cfg.Logf("controlplane: swap %d is still open: %v", fl.swapID, rerr)
		}
	}
	c.refreshEpoch()
	c.walCensus()
	return c, nil
}

// resumeSwap continues a swap the WAL left open: its folded stage
// records plus a probe of the plant give the evidence, and the loop
// executeSwap drives takes it from there. It fails only if the swap is
// still open.
func (c *Controller) resumeSwap(ctx context.Context, fl *inFlightSwap) error {
	removed, ok := monitorReplica(fl.removedOS)
	added, aok := monitorReplica(fl.addedOS)
	if !ok || !aok {
		return fmt.Errorf("controlplane: open swap %d: OS %s or %s not in the universe", fl.swapID, fl.removedOS, fl.addedOS)
	}
	op := c.newSwapOp(fl.swapID, removed, added, fl.oldNode, fl.newNode, fl.pre)
	s := resumed(fl.state, fl.censusAfterBegin, c.membership.Load().Contains(fl.newNode), op.booted())
	outcome, err := op.drive(ctx, s)
	if outcome == 0 {
		return err // still open, or the controller died
	}
	c.ins.resumeOutcome[outcome].Inc()
	c.cfg.Logf("controlplane: resumed swap %d (%s->%s): %v (%v)", fl.swapID, fl.removedOS, fl.addedOS, outcome, err)
	return nil
}

// resumeOpen resumes the swap a failed compensation left open, with the
// fold and probe Recover uses. A monitor round calls it before Algorithm
// 1 may decide another swap.
func (c *Controller) resumeOpen(ctx context.Context) error {
	c.swapMu.Lock()
	open := c.open
	c.swapMu.Unlock()
	if !open {
		return nil
	}
	st, err := replayWALState(c.wal)
	if err != nil || st.inFlight == nil {
		return err
	}
	return c.resumeSwap(ctx, st.inFlight)
}

// monitorReplica resolves a deployable OS id to the risk engine's replica
// identity.
func monitorReplica(osID string) (core.Replica, bool) {
	os, err := catalog.ByID(osID)
	if err != nil || !os.Deployable() {
		return core.Replica{}, false
	}
	return replicaFor(os), true
}

// refreshEpoch lifts the local membership epoch to the highest one a
// live member has committed: it lags when the predecessor died between
// ordering a reconfiguration and logging the membership.
func (c *Controller) refreshEpoch() {
	m := c.membership.Load()
	top := m.Epoch
	c.mu.Lock()
	for _, id := range m.Replicas {
		if slot, ok := c.nodes[id]; ok {
			if rep := slot.node.Replica(); rep != nil {
				top = max(top, rep.Stats().CurrentEpoch)
			}
		}
	}
	c.mu.Unlock()
	if top > m.Epoch {
		next := m.Clone()
		next.Epoch = top
		c.membership.Store(next)
		c.cfg.Logf("controlplane: lifted membership epoch %d -> %d from live replicas", m.Epoch, top)
	}
}
