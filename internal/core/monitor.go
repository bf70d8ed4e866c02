package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lazarus/internal/osint"
)

// Corner-case conditions of Algorithm 1 that require administrator action
// (paper §4.4): reconfiguration cannot proceed automatically.
var (
	// ErrPoolExhausted: POOL has no replicas left to try.
	ErrPoolExhausted = errors.New("core: replica pool exhausted")
	// ErrNoCandidate: no candidate configuration keeps risk below the
	// threshold.
	ErrNoCandidate = errors.New("core: no candidate configuration below threshold")
)

// Decision describes the outcome of one monitoring round.
type Decision struct {
	// Reconfigured reports whether the replica set changed.
	Reconfigured bool
	// Trigger explains why a replacement was attempted.
	Trigger Trigger
	// Removed and Added are set when Reconfigured is true.
	Removed, Added Replica
	// RiskBefore and RiskAfter are Equation 5 evaluations of the old and
	// new configurations.
	RiskBefore, RiskAfter float64
	// Requeued lists quarantined replicas that were returned to the pool
	// this round (fully patched).
	Requeued []Replica
	// Released is the quarantined replica Round returned to an exhausted
	// pool (zero when it released none).
	Released Replica
	// RaisedTo is the threshold Round ended at after raising it for want
	// of a candidate (zero when it did not raise it).
	RaisedTo float64
}

// Trigger enumerates why Algorithm 1 attempted a replacement.
type Trigger int

// Triggers.
const (
	// TriggerNone: risk below threshold and no replica averaged HIGH.
	TriggerNone Trigger = iota + 1
	// TriggerRisk: risk(CONFIG) >= threshold (Algorithm 1 line 6).
	TriggerRisk
	// TriggerHighAverage: some replica's average vulnerability score
	// reached HIGH (Algorithm 1 lines 17–24).
	TriggerHighAverage
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerNone:
		return "none"
	case TriggerRisk:
		return "risk-threshold"
	case TriggerHighAverage:
		return "high-average-score"
	default:
		return fmt.Sprintf("Trigger(%d)", int(t))
	}
}

// MonitorConfig parameterizes a Monitor.
type MonitorConfig struct {
	// Threshold is the Equation 5 risk level at which the running
	// configuration must be replaced.
	Threshold float64
	// Rand drives the uniformly random pick among acceptable candidate
	// configurations (so inspecting POOL does not reveal the next
	// CONFIG).
	Rand *rand.Rand
}

// Monitor owns the replica-set lifecycle state of Algorithm 1: the running
// CONFIG, the POOL of available spares, and the QUARANTINE of recently
// replaced replicas awaiting patches.
type Monitor struct {
	engine     RiskEvaluator
	cfg        MonitorConfig
	config     Config
	pool       []Replica
	quarantine []Replica
}

// NewMonitor builds a Monitor over an initial configuration and spare
// pool.
func NewMonitor(engine RiskEvaluator, initial Config, pool []Replica, cfg MonitorConfig) (*Monitor, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil risk engine")
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("core: empty initial configuration")
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("core: negative risk threshold")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("core: monitor requires a random source")
	}
	seen := make(map[string]bool)
	for _, r := range append(initial.Clone(), pool...) {
		if seen[r.ID] {
			return nil, fmt.Errorf("core: replica %s appears twice", r.ID)
		}
		seen[r.ID] = true
	}
	return &Monitor{
		engine: engine,
		cfg:    cfg,
		config: initial.Clone(),
		pool:   append([]Replica(nil), pool...),
	}, nil
}

// RestoreMonitor rebuilds a Monitor from persisted lifecycle sets — a
// recovering control plane re-adopting state written by a predecessor.
// Unlike NewMonitor it accepts a non-empty quarantine; the no-duplicate
// validation spans all three sets.
func RestoreMonitor(engine RiskEvaluator, config Config, pool, quarantine []Replica, cfg MonitorConfig) (*Monitor, error) {
	m, err := NewMonitor(engine, config, pool, cfg)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, r := range append(config.Clone(), pool...) {
		seen[r.ID] = true
	}
	for _, r := range quarantine {
		if seen[r.ID] {
			return nil, fmt.Errorf("core: replica %s appears twice", r.ID)
		}
		seen[r.ID] = true
	}
	m.quarantine = append([]Replica(nil), quarantine...)
	return m, nil
}

// Config returns the running configuration.
func (m *Monitor) Config() Config { return m.config.Clone() }

// Pool returns the available spare replicas.
func (m *Monitor) Pool() []Replica { return append([]Replica(nil), m.pool...) }

// Quarantine returns the quarantined replicas.
func (m *Monitor) Quarantine() []Replica { return append([]Replica(nil), m.quarantine...) }

// Threshold returns the current risk threshold.
func (m *Monitor) Threshold() float64 { return m.cfg.Threshold }

// releaseLeastVulnerable applies the paper's second administrator
// remediation: move the quarantined replica with the fewest unpatched
// vulnerabilities back to POOL even though it is not fully patched. It
// returns the released replica.
func (m *Monitor) releaseLeastVulnerable(now time.Time) (Replica, error) {
	if len(m.quarantine) == 0 {
		return Replica{}, fmt.Errorf("core: quarantine is empty")
	}
	best, bestCount := 0, int(^uint(0)>>1)
	for i, r := range m.quarantine {
		if c := m.engine.UnpatchedCount(r, now); c < bestCount {
			best, bestCount = i, c
		}
	}
	r := m.quarantine[best]
	m.quarantine = append(m.quarantine[:best], m.quarantine[best+1:]...)
	m.pool = append(m.pool, r)
	return r, nil
}

// RevertSwap undoes the set mutations of a reconfiguration decision whose
// execution failed on the execution plane: the removed replica rejoins
// CONFIG in place of the failed joiner, the joiner returns to POOL, and
// the removed replica leaves QUARANTINE (or POOL, if it was already
// requeued as fully patched in the same round). The next Monitor round
// then sees exactly the pre-swap lifecycle state and is free to pick a
// different candidate.
func (m *Monitor) RevertSwap(removed, added Replica) error {
	if !m.config.Contains(added.ID) {
		return fmt.Errorf("core: revert: %s is not in the running configuration", added.ID)
	}
	if m.config.Contains(removed.ID) {
		return fmt.Errorf("core: revert: %s is already in the running configuration", removed.ID)
	}
	dropFrom := func(set *[]Replica, id string) bool {
		for i, r := range *set {
			if r.ID == id {
				*set = append((*set)[:i], (*set)[i+1:]...)
				return true
			}
		}
		return false
	}
	if !dropFrom(&m.quarantine, removed.ID) && !dropFrom(&m.pool, removed.ID) {
		return fmt.Errorf("core: revert: %s is in neither quarantine nor pool", removed.ID)
	}
	for i, r := range m.config {
		if r.ID == added.ID {
			m.config[i] = removed
			break
		}
	}
	m.pool = append(m.pool, added)
	return nil
}

// Monitor runs one round of Algorithm 1 at time now. It returns the
// decision taken; ErrPoolExhausted / ErrNoCandidate signal the corner
// cases in which reconfiguration could not proceed (the quarantine
// check still runs before those errors are returned, matching the
// algorithm's fall-through to lines 34–37).
func (m *Monitor) Monitor(now time.Time) (Decision, error) {
	d := Decision{Trigger: TriggerNone}
	d.RiskBefore = m.engine.Risk(m.config, now)

	var reconfigErr error
	if d.RiskBefore >= m.cfg.Threshold {
		// Lines 6–16: risk too high; try every replacement of any one
		// replica by any pool element.
		d.Trigger = TriggerRisk
		reconfigErr = m.replaceAny(now, &d)
	} else {
		// Lines 17–33: rotate out the replica with the worst average
		// vulnerability score, if that average reaches HIGH.
		toRemove, found := m.worstReplica(now)
		if found {
			d.Trigger = TriggerHighAverage
			reconfigErr = m.replaceOne(now, toRemove, &d)
		}
	}

	// Lines 34–37: fully patched quarantined replicas re-join the pool.
	d.Requeued = m.requeuePatched(now)
	if d.Reconfigured {
		d.RiskAfter = m.engine.Risk(m.config, now)
	} else {
		d.RiskAfter = d.RiskBefore
	}
	return d, reconfigErr
}

// Round runs one round of Algorithm 1 with the paper's two
// administrator remediations for its corner cases automated. An
// exhausted POOL gets the least-vulnerable quarantined replica back and
// the round is retried once. When no candidate keeps the risk within the
// threshold, the threshold is raised to 1.5× + 1 and the round retried,
// at most 8 times, so a hopeless landscape cannot spin. A corner case
// the remediation does not clear leaves the configuration as it was, and
// the Decision reports no reconfiguration.
func (m *Monitor) Round(now time.Time) Decision {
	d, err := m.Monitor(now)
	retry := func() {
		requeued := d.Requeued
		d, err = m.Monitor(now)
		d.Requeued = append(requeued, d.Requeued...)
	}
	switch {
	case errors.Is(err, ErrPoolExhausted):
		if r, relErr := m.releaseLeastVulnerable(now); relErr == nil {
			retry()
			d.Released = r
		}
	case errors.Is(err, ErrNoCandidate):
		for raises := 0; raises < 8 && errors.Is(err, ErrNoCandidate); raises++ {
			m.cfg.Threshold = m.cfg.Threshold*1.5 + 1
			retry()
			d.RaisedTo = m.cfg.Threshold
		}
	}
	return d
}

// replaceAny implements lines 7–16: every COMB of n-1 running replicas
// combined with every pool element is a candidate.
func (m *Monitor) replaceAny(now time.Time, d *Decision) error {
	var candidates []Config
	combs := m.combinations()
	for _, r := range m.pool {
		for _, comb := range combs {
			candidates = append(candidates, append(comb.Clone(), r))
		}
	}
	return m.pickAcceptable(now, candidates, d)
}

// replaceOne implements lines 25–33: only toRemove leaves; every pool
// element is tried in its place.
func (m *Monitor) replaceOne(now time.Time, toRemove Replica, d *Decision) error {
	base := make(Config, 0, len(m.config)-1)
	for _, r := range m.config {
		if r.ID != toRemove.ID {
			base = append(base, r)
		}
	}
	var candidates []Config
	for _, r := range m.pool {
		candidates = append(candidates, append(base.Clone(), r))
	}
	return m.pickAcceptable(now, candidates, d)
}

// pickAcceptable is the tail both replacements share: keep the
// candidates whose risk stays within the threshold and install one
// picked uniformly at random.
func (m *Monitor) pickAcceptable(now time.Time, candidates []Config, d *Decision) error {
	if len(m.pool) == 0 {
		return ErrPoolExhausted
	}
	var acceptable []Config
	for _, next := range candidates {
		if m.engine.Risk(next, now) <= m.cfg.Threshold {
			acceptable = append(acceptable, next)
		}
	}
	if len(acceptable) == 0 {
		return ErrNoCandidate
	}
	m.updateSets(acceptable[m.cfg.Rand.Intn(len(acceptable))], d)
	return nil
}

// worstReplica implements lines 18–24: the running replica with the
// highest average vulnerability score, if that average is >= HIGH.
func (m *Monitor) worstReplica(now time.Time) (Replica, bool) {
	var worst Replica
	maxScore := osint.ScoreHigh
	found := false
	for _, r := range m.config {
		if avg := m.engine.AverageScore(r, now); avg >= maxScore {
			worst, maxScore, found = r, avg, true
		}
	}
	return worst, found
}

// combinations returns all (n choose n-1) subsets of the running
// configuration (Algorithm 1 line 8).
func (m *Monitor) combinations() []Config {
	n := len(m.config)
	out := make([]Config, 0, n)
	for skip := 0; skip < n; skip++ {
		comb := make(Config, 0, n-1)
		for i, r := range m.config {
			if i != skip {
				comb = append(comb, r)
			}
		}
		out = append(out, comb)
	}
	return out
}

// updateSets implements lines 38–42: quarantine the replaced replica,
// install the new configuration, and remove the joiner from the pool.
func (m *Monitor) updateSets(next Config, d *Decision) {
	for _, r := range m.config {
		if !next.Contains(r.ID) {
			d.Removed = r
			m.quarantine = append(m.quarantine, r)
		}
	}
	for _, r := range next {
		if !m.config.Contains(r.ID) {
			d.Added = r
			for i, p := range m.pool {
				if p.ID == r.ID {
					m.pool = append(m.pool[:i], m.pool[i+1:]...)
					break
				}
			}
		}
	}
	m.config = next.Clone()
	d.Reconfigured = true
}

// requeuePatched implements lines 34–37.
func (m *Monitor) requeuePatched(now time.Time) []Replica {
	var requeued []Replica
	var remaining []Replica
	for _, r := range m.quarantine {
		if m.engine.FullyPatched(r, now) {
			requeued = append(requeued, r)
			m.pool = append(m.pool, r)
		} else {
			remaining = append(remaining, r)
		}
	}
	m.quarantine = remaining
	sort.Slice(requeued, func(i, j int) bool { return requeued[i].ID < requeued[j].ID })
	return requeued
}
