// Package strategies implements the five replica-set selection strategies
// compared in the paper's risk evaluation (§6): Lazarus (Algorithm 1 over
// the Equation 5 risk metric), CVSSv3 (minimize the summed CVSS of shared
// vulnerabilities), Common (minimize the count of shared vulnerabilities,
// the straw man from the authors' earlier OS-diversity studies), Random
// (daily random replacement — proactive recovery with diversity but no
// criteria), and Equal (one OS everywhere — how most BFT systems are
// deployed).
package strategies

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"lazarus/internal/core"
)

// PairMetric scores a replica pair at a point in time; lower is better.
type PairMetric func(ri, rj core.Replica, now time.Time) float64

// Env is the environment a strategy operates in.
type Env struct {
	// Universe is the set of OSes a configuration draws from.
	Universe []core.Replica
	// N is the configuration size (the paper uses n = 4).
	N int
	// Evaluator answers the Lazarus risk queries (used by the Lazarus
	// strategy).
	Evaluator core.RiskEvaluator
	// SharedCount is |V(ri,rj)| counting only direct NVD co-listings
	// (used by Common).
	SharedCount PairMetric
	// SharedCVSS is the summed CVSS of direct co-listings (used by
	// CVSSv3).
	SharedCVSS PairMetric
	// Threshold is the Lazarus reconfiguration threshold (Equation 5
	// units). Zero or negative selects StartLazarus's adaptive rule (the
	// Equation 5 sum grows with the length of the vulnerability history,
	// so an absolute constant cannot transfer across datasets).
	Threshold float64
}

func (e Env) validate() error {
	switch {
	case e.N <= 0:
		return fmt.Errorf("strategies: n = %d must be positive", e.N)
	case len(e.Universe) < e.N:
		return fmt.Errorf("strategies: universe %d smaller than n %d", len(e.Universe), e.N)
	}
	return nil
}

// Strategy selects and evolves a replica configuration. Implementations
// are single-run and not safe for concurrent use; create one per run.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Init picks the initial configuration using knowledge available at
	// time asof.
	Init(asof time.Time) (core.Config, error)
	// Step runs one daily round with knowledge available at time asof
	// and returns the (possibly reconfigured) running configuration.
	Step(asof time.Time) (core.Config, error)
}

// Factory builds a fresh strategy instance for one run.
type Factory func(env Env, rng *rand.Rand) (Strategy, error)

// Factories returns the five paper strategies in presentation order.
func Factories() map[string]Factory {
	return map[string]Factory{
		"Lazarus": NewLazarus,
		"CVSSv3":  NewCVSSv3,
		"Common":  NewCommon,
		"Random":  NewRandom,
		"Equal":   NewEqual,
	}
}

// StrategyNames is the paper's presentation order for figures.
var StrategyNames = []string{"Lazarus", "CVSSv3", "Common", "Random", "Equal"}

// ---------------------------------------------------------------------------
// Equal

type equal struct {
	env    Env
	rng    *rand.Rand
	config core.Config
}

// NewEqual builds the Equal strategy: all n replicas run one
// randomly-selected OS for the whole execution.
func NewEqual(env Env, rng *rand.Rand) (Strategy, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("strategies: nil rng")
	}
	return &equal{env: env, rng: rng}, nil
}

func (s *equal) Name() string { return "Equal" }

func (s *equal) Init(time.Time) (core.Config, error) {
	pick := s.env.Universe[s.rng.Intn(len(s.env.Universe))]
	cfg := make(core.Config, s.env.N)
	for i := range cfg {
		r := pick
		r.ID = fmt.Sprintf("%s#%d", pick.ID, i+1) // replicas are distinct nodes
		cfg[i] = r
	}
	s.config = cfg
	return cfg.Clone(), nil
}

func (s *equal) Step(time.Time) (core.Config, error) {
	return s.config.Clone(), nil
}

// ---------------------------------------------------------------------------
// Random

type random struct {
	env    Env
	rng    *rand.Rand
	config core.Config
}

// NewRandom builds the Random strategy: a random initial set of n distinct
// OSes, then every day one randomly chosen replica is replaced by a
// randomly chosen outside OS.
func NewRandom(env Env, rng *rand.Rand) (Strategy, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("strategies: nil rng")
	}
	return &random{env: env, rng: rng}, nil
}

func (s *random) Name() string { return "Random" }

func (s *random) Init(time.Time) (core.Config, error) {
	idx := s.rng.Perm(len(s.env.Universe))[:s.env.N]
	cfg := make(core.Config, s.env.N)
	for i, j := range idx {
		cfg[i] = s.env.Universe[j]
	}
	s.config = cfg
	return cfg.Clone(), nil
}

func (s *random) Step(time.Time) (core.Config, error) {
	outside := make([]core.Replica, 0, len(s.env.Universe)-s.env.N)
	for _, r := range s.env.Universe {
		if !s.config.Contains(r.ID) {
			outside = append(outside, r)
		}
	}
	if len(outside) > 0 {
		victim := s.rng.Intn(len(s.config))
		s.config[victim] = outside[s.rng.Intn(len(outside))]
	}
	return s.config.Clone(), nil
}

// ---------------------------------------------------------------------------
// Metric-greedy (Common and CVSSv3 share the machinery)

type greedy struct {
	name   string
	env    Env
	rng    *rand.Rand
	metric PairMetric
	config core.Config
}

// NewCommon builds the Common strategy: minimize the number of shared
// vulnerabilities across the set, as in the authors' prior vulnerability
// studies.
func NewCommon(env Env, rng *rand.Rand) (Strategy, error) {
	return newGreedy("Common", env, rng, env.SharedCount)
}

// NewCVSSv3 builds the CVSSv3 strategy: minimize the summed CVSS v3 base
// score of shared vulnerabilities.
func NewCVSSv3(env Env, rng *rand.Rand) (Strategy, error) {
	return newGreedy("CVSSv3", env, rng, env.SharedCVSS)
}

func newGreedy(name string, env Env, rng *rand.Rand, metric PairMetric) (Strategy, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("strategies: nil rng")
	}
	if metric == nil {
		return nil, fmt.Errorf("strategies: %s needs its pair metric", name)
	}
	return &greedy{name: name, env: env, rng: rng, metric: metric}, nil
}

func (s *greedy) Name() string { return s.name }

func (s *greedy) setMetric(cfg core.Config, asof time.Time) float64 {
	var total float64
	for i := 0; i < len(cfg); i++ {
		for j := i + 1; j < len(cfg); j++ {
			total += s.metric(cfg[i], cfg[j], asof)
		}
	}
	return total
}

// StartLazarus seeds Algorithm 1, for the control plane and for the
// simulated Lazarus strategy alike. The initial configuration is the best
// of 8 greedy constructions over the Equation 5 pair metric: one start
// varies a lot with its random first replica, and the threshold must
// anchor to the risk a good configuration can actually achieve. A
// threshold of zero or less selects the adaptive rule, 1.05 × that
// configuration's risk plus 8.75 (one fresh HIGH-severity exploited
// shared weakness, 7.0 × 1.25): less would trigger on noise, more would
// sleep through exactly the events Lazarus exists for. The rest of the
// universe is the Monitor's pool.
func StartLazarus(universe []core.Replica, n int, eval core.RiskEvaluator, threshold float64, asof time.Time, rng *rand.Rand) (*core.Monitor, error) {
	if len(universe) < n || n <= 0 {
		return nil, fmt.Errorf("strategies: universe %d, n %d", len(universe), n)
	}
	if eval == nil || rng == nil {
		return nil, errors.New("strategies: nil evaluator or rng")
	}
	metric := func(ri, rj core.Replica, now time.Time) float64 {
		return eval.Risk(core.Config{ri, rj}, now)
	}
	best := greedyMinConfig(universe, n, metric, asof, rng)
	bestRisk := eval.Risk(best, asof)
	for restart := 0; restart < 7; restart++ {
		cand := greedyMinConfig(universe, n, metric, asof, rng)
		if r := eval.Risk(cand, asof); r < bestRisk {
			best, bestRisk = cand, r
		}
	}
	if threshold <= 0 {
		threshold = bestRisk*1.05 + 8.75
	}
	pool := make([]core.Replica, 0, len(universe)-n)
	for _, r := range universe {
		if !best.Contains(r.ID) {
			pool = append(pool, r)
		}
	}
	return core.NewMonitor(eval, best, pool, core.MonitorConfig{Threshold: threshold, Rand: rng})
}

// greedyMinConfig assembles a minimal-metric configuration: start from a
// random replica, then repeatedly add the replica that minimizes the
// metric increase, breaking ties uniformly at random (ties are common for
// count metrics, which is where the run-to-run variance comes from).
func greedyMinConfig(universe []core.Replica, n int, metric PairMetric, asof time.Time, rng *rand.Rand) core.Config {
	remaining := append([]core.Replica(nil), universe...)
	first := rng.Intn(len(remaining))
	cfg := core.Config{remaining[first]}
	remaining = append(remaining[:first], remaining[first+1:]...)
	for len(cfg) < n {
		bestCost := 0.0
		var ties []int
		for i, cand := range remaining {
			var cost float64
			for _, r := range cfg {
				cost += metric(r, cand, asof)
			}
			switch {
			case len(ties) == 0 || cost < bestCost:
				bestCost, ties = cost, ties[:0]
				ties = append(ties, i)
			case cost == bestCost:
				ties = append(ties, i)
			}
		}
		pick := ties[rng.Intn(len(ties))]
		cfg = append(cfg, remaining[pick])
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return cfg
}

// Init greedily assembles a minimal-metric configuration.
func (s *greedy) Init(asof time.Time) (core.Config, error) {
	s.config = greedyMinConfig(s.env.Universe, s.env.N, s.metric, asof, s.rng)
	return s.config.Clone(), nil
}

// Step re-evaluates daily: if replacing one running replica by one outside
// OS lowers the set metric, apply the best such replacement (ties broken
// at random).
func (s *greedy) Step(asof time.Time) (core.Config, error) {
	current := s.setMetric(s.config, asof)
	type move struct{ victim, joiner int }
	bestCost := current
	var ties []move
	outside := make([]core.Replica, 0, len(s.env.Universe)-s.env.N)
	for _, r := range s.env.Universe {
		if !s.config.Contains(r.ID) {
			outside = append(outside, r)
		}
	}
	for vi := range s.config {
		for oi, cand := range outside {
			next := s.config.Clone()
			next[vi] = cand
			cost := s.setMetric(next, asof)
			switch {
			case cost < bestCost:
				bestCost, ties = cost, ties[:0]
				ties = append(ties, move{vi, oi})
			case cost == bestCost && cost < current:
				ties = append(ties, move{vi, oi})
			}
		}
	}
	if len(ties) > 0 {
		mv := ties[s.rng.Intn(len(ties))]
		s.config[mv.victim] = outside[mv.joiner]
	}
	return s.config.Clone(), nil
}

// ---------------------------------------------------------------------------
// Lazarus

type lazarus struct {
	env     Env
	rng     *rand.Rand
	monitor *core.Monitor
}

// NewLazarus builds the Lazarus strategy: the control plane's Algorithm 1
// policy (StartLazarus, then core.Monitor.Round each day) over the
// Equation 5 risk metric with clustering-aware shared-vulnerability
// detection.
func NewLazarus(env Env, rng *rand.Rand) (Strategy, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("strategies: nil rng")
	}
	if env.Evaluator == nil {
		return nil, errors.New("strategies: Lazarus needs a risk evaluator")
	}
	return &lazarus{env: env, rng: rng}, nil
}

func (s *lazarus) Name() string { return "Lazarus" }

func (s *lazarus) Init(asof time.Time) (core.Config, error) {
	m, err := StartLazarus(s.env.Universe, s.env.N, s.env.Evaluator, s.env.Threshold, asof, s.rng)
	if err != nil {
		return nil, err
	}
	s.monitor = m
	return m.Config(), nil
}

func (s *lazarus) Step(asof time.Time) (core.Config, error) {
	if s.monitor == nil {
		return nil, errors.New("strategies: Lazarus Step before Init")
	}
	s.monitor.Round(asof)
	return s.monitor.Config(), nil
}
