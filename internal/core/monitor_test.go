package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"lazarus/internal/osint"
)

func engine(t *testing.T, corpus []*osint.Vulnerability) *RiskEngine {
	t.Helper()
	in, err := NewIntel(corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRiskEngine(in, DefaultScoreParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRiskEquation5(t *testing.T) {
	now := day(2018, 6, 1)
	// Two shared vulns across the UB/DE pair, one across UB/SO.
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 30), 8.0, "a", ub, de),
		mkVuln("CVE-2018-0002", day(2018, 5, 30), 4.0, "b", ub, de),
		mkVuln("CVE-2018-0003", day(2018, 5, 30), 6.0, "c", ub, so),
	}
	e := engine(t, corpus)
	cfg := Config{rUB, rDE, rSO}
	p := DefaultScoreParams()
	want := p.Score(corpus[0], now) + p.Score(corpus[1], now) + p.Score(corpus[2], now)
	if got := e.Risk(cfg, now); math.Abs(got-want) > 1e-9 {
		t.Errorf("Risk = %v, want %v", got, want)
	}
	// Pair risk decomposition.
	pairSum := e.PairRisk(rUB, rDE, now) + e.PairRisk(rUB, rSO, now) + e.PairRisk(rDE, rSO, now)
	if math.Abs(pairSum-want) > 1e-9 {
		t.Errorf("pair decomposition = %v, want %v", pairSum, want)
	}
	// Diverse pair contributes nothing.
	if r := e.PairRisk(rDE, rSO, now); r != 0 {
		t.Errorf("PairRisk(DE,SO) = %v, want 0", r)
	}
}

func TestAverageScoreAndFullyPatched(t *testing.T) {
	now := day(2018, 6, 1)
	v1 := mkVuln("CVE-2018-0001", day(2018, 5, 1), 8.0, "a", ub)
	v2 := mkVuln("CVE-2018-0002", day(2018, 5, 1), 4.0, "b", ub)
	v1.PatchedAt = day(2018, 5, 10)
	e := engine(t, []*osint.Vulnerability{v1, v2})
	p := DefaultScoreParams()
	want := (p.Score(v1, now) + p.Score(v2, now)) / 2
	if got := e.AverageScore(rUB, now); math.Abs(got-want) > 1e-9 {
		t.Errorf("AverageScore = %v, want %v", got, want)
	}
	if e.AverageScore(rSO, now) != 0 {
		t.Error("AverageScore for clean replica should be 0")
	}
	if e.FullyPatched(rUB, now) {
		t.Error("FullyPatched true with unpatched vuln")
	}
	v2.PatchedAt = day(2018, 5, 20)
	if !e.FullyPatched(rUB, now) {
		t.Error("FullyPatched false with all patched")
	}
	if !e.FullyPatched(rSO, now) {
		t.Error("clean replica should count as fully patched")
	}
	if got := e.UnpatchedCount(rUB, day(2018, 5, 15)); got != 1 {
		t.Errorf("UnpatchedCount = %d, want 1", got)
	}
}

// monitorFixture: UB+DE share a critical unpatched vuln; FE and W10 are
// clean spares.
func monitorFixture(t *testing.T) (*Monitor, *RiskEngine) {
	t.Helper()
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared critical", ub, de),
		mkVuln("CVE-2018-0002", day(2018, 4, 1), 3.0, "minor solaris", so),
	}
	e := engine(t, corpus)
	rFE := NewReplica("FE26", "fedoraproject:fedora:26")
	m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rFE, rW1},
		MonitorConfig{Threshold: 5, Rand: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	return m, e
}

func TestMonitorTriggersOnRisk(t *testing.T) {
	m, e := monitorFixture(t)
	now := day(2018, 6, 1)
	if r := e.Risk(m.Config(), now); r < 5 {
		t.Fatalf("fixture risk %v below threshold; test broken", r)
	}
	d, err := m.Monitor(now)
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if !d.Reconfigured || d.Trigger != TriggerRisk {
		t.Fatalf("decision = %+v", d)
	}
	// One of UB/DE must have left (they carry the shared weakness).
	if d.Removed.ID != "UB16" && d.Removed.ID != "DE8" {
		t.Errorf("removed %s, want UB16 or DE8", d.Removed.ID)
	}
	if d.RiskAfter > m.Threshold() {
		t.Errorf("post-reconfiguration risk %v above threshold", d.RiskAfter)
	}
	// Sets bookkeeping: removed replica quarantined, joiner out of pool.
	if got := m.Quarantine(); len(got) != 1 || got[0].ID != d.Removed.ID {
		t.Errorf("quarantine = %v", got)
	}
	if m.Config().Contains(d.Removed.ID) {
		t.Error("removed replica still in config")
	}
	if !m.Config().Contains(d.Added.ID) {
		t.Error("added replica not in config")
	}
	for _, p := range m.Pool() {
		if p.ID == d.Added.ID {
			t.Error("added replica still in pool")
		}
	}
	if len(m.Config()) != 3 {
		t.Errorf("config size changed: %v", m.Config().IDs())
	}
}

func TestMonitorNoTriggerBelowThreshold(t *testing.T) {
	// Low-severity shared vuln: risk below threshold AND no replica
	// averages HIGH, so nothing should move.
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 1), 3.0, "minor shared", ub, de),
	}
	e := engine(t, corpus)
	m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rW1},
		MonitorConfig{Threshold: 50, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Monitor(day(2018, 6, 1))
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if d.Reconfigured {
		t.Errorf("reconfigured below threshold: %+v", d)
	}
	if d.Trigger != TriggerNone {
		t.Errorf("trigger = %v, want none", d.Trigger)
	}
}

func TestMonitorHighAveragePath(t *testing.T) {
	// Risk is low (no shared vulns) but one replica has a critical
	// unpatched vulnerability: lines 17–33 must rotate exactly it out.
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 25), 9.8, "critical ubuntu-only", ub),
	}
	e := engine(t, corpus)
	rFE := NewReplica("FE26", "fedoraproject:fedora:26")
	m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rFE},
		MonitorConfig{Threshold: 50, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Monitor(day(2018, 6, 1))
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if !d.Reconfigured || d.Trigger != TriggerHighAverage {
		t.Fatalf("decision = %+v", d)
	}
	if d.Removed.ID != "UB16" || d.Added.ID != "FE26" {
		t.Errorf("swap = %s -> %s, want UB16 -> FE26", d.Removed.ID, d.Added.ID)
	}
}

func TestMonitorHighAverageNotTriggeredByMediumVulns(t *testing.T) {
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 25), 5.0, "medium", ub),
	}
	e := engine(t, corpus)
	m, err := NewMonitor(e, Config{rUB, rDE}, []Replica{rW1},
		MonitorConfig{Threshold: 50, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Monitor(day(2018, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Reconfigured {
		t.Errorf("medium-score replica rotated out: %+v", d)
	}
}

func TestMonitorPoolExhausted(t *testing.T) {
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared", ub, de),
	}
	e := engine(t, corpus)
	m, err := NewMonitor(e, Config{rUB, rDE}, nil,
		MonitorConfig{Threshold: 1, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Monitor(day(2018, 6, 1))
	if !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestMonitorNoCandidate(t *testing.T) {
	// Every possible replacement still shares the weakness: threshold
	// unreachable.
	corpus := []*osint.Vulnerability{
		mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "everywhere", ub, de, so, w1),
	}
	e := engine(t, corpus)
	m, err := NewMonitor(e, Config{rUB, rDE}, []Replica{rSO, rW1},
		MonitorConfig{Threshold: 1, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Monitor(day(2018, 6, 1))
	if !errors.Is(err, ErrNoCandidate) {
		t.Errorf("err = %v, want ErrNoCandidate", err)
	}
	// Remediation 1: raising the threshold unblocks the system.
	if d := m.Round(day(2018, 6, 1)); !d.Reconfigured || d.RaisedTo <= 1 {
		t.Errorf("after raising threshold: %+v", d)
	}
}

func TestQuarantineLifecycle(t *testing.T) {
	// CVSS 6.0 keeps every replica's average below HIGH so only the risk
	// path fires, exactly once.
	v := mkVuln("CVE-2018-0001", day(2018, 5, 1), 6.0, "shared medium", ub, de)
	corpus := []*osint.Vulnerability{v}
	e := engine(t, corpus)
	rFE := NewReplica("FE26", "fedoraproject:fedora:26")
	m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rFE, rW1},
		MonitorConfig{Threshold: 5, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Monitor(day(2018, 6, 1))
	if err != nil || !d.Reconfigured {
		t.Fatalf("first round: %+v, %v", d, err)
	}
	removed := d.Removed.ID
	if q := m.Quarantine(); len(q) != 1 || q[0].ID != removed {
		t.Fatalf("quarantine = %v", q)
	}
	// Still unpatched: stays quarantined.
	d2, err := m.Monitor(day(2018, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Requeued) != 0 || len(m.Quarantine()) != 1 {
		t.Fatalf("unpatched replica requeued: %+v", d2)
	}
	// Patch arrives: next round returns it to the pool.
	v.PatchedAt = day(2018, 6, 3)
	d3, err := m.Monitor(day(2018, 6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(d3.Requeued) != 1 || d3.Requeued[0].ID != removed {
		t.Fatalf("requeued = %v", d3.Requeued)
	}
	if len(m.Quarantine()) != 0 {
		t.Error("quarantine not emptied")
	}
	found := false
	for _, p := range m.Pool() {
		if p.ID == removed {
			found = true
		}
	}
	if !found {
		t.Error("patched replica not back in pool")
	}
}

func TestReleaseLeastVulnerable(t *testing.T) {
	v1 := mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "ub 2 unpatched a", ub)
	v2 := mkVuln("CVE-2018-0002", day(2018, 5, 1), 9.0, "ub 2 unpatched b", ub)
	v3 := mkVuln("CVE-2018-0003", day(2018, 5, 1), 9.8, "de 1 unpatched", de)
	e := engine(t, []*osint.Vulnerability{v1, v2, v3})
	m, err := NewMonitor(e, Config{rSO}, nil,
		MonitorConfig{Threshold: 5, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.releaseLeastVulnerable(day(2018, 6, 1)); err == nil {
		t.Error("release from empty quarantine succeeded")
	}
	m.quarantine = []Replica{rUB, rDE}
	r, err := m.releaseLeastVulnerable(day(2018, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "DE8" {
		t.Errorf("released %s, want DE8 (fewest unpatched)", r.ID)
	}
	if len(m.Quarantine()) != 1 || len(m.Pool()) != 1 {
		t.Errorf("sets after release: q=%v pool=%v", m.Quarantine(), m.Pool())
	}
}

// TestRoundRemediation pins Round's remediation of Algorithm 1's corner
// cases: an exhausted pool gets one release and one retry, a round with
// no acceptable candidate raises the threshold to 1.5× + 1 at most 8
// times, and either way the round draws from the rng exactly as the
// same steps taken by hand.
func TestRoundRemediation(t *testing.T) {
	now := day(2018, 6, 1)
	rFE := NewReplica("FE26", "fedoraproject:fedora:26") // no vulnerabilities: fully patched
	everywhere := func(n int) []*osint.Vulnerability {
		var vs []*osint.Vulnerability
		for i := 0; i < n; i++ {
			vs = append(vs, mkVuln(fmt.Sprintf("CVE-2018-01%02d", i), day(2018, 5, 1), 9.8, "everywhere", ub, de, so, w1))
		}
		return vs
	}
	cases := []struct {
		name             string
		corpus           []*osint.Vulnerability
		config           Config
		pool, quarantine []Replica
		threshold        float64
		released         string // "" when nothing is released
		requeued         string // IDs the round requeued, comma-joined
		raises           int
		reconfigured     bool
		quarantineAfter  int
	}{
		{
			name: "no corner case",
			corpus: []*osint.Vulnerability{
				mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared critical", ub, de),
			},
			config: Config{rUB, rDE, rSO}, pool: []Replica{rW1}, threshold: 5,
			reconfigured: true, quarantineAfter: 1,
		},
		{
			name: "empty pool: one release, a retry that reconfigures",
			corpus: []*osint.Vulnerability{
				mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared critical", ub, de),
				mkVuln("CVE-2018-0002", day(2018, 5, 1), 3.0, "minor solaris", so),
				mkVuln("CVE-2018-0003", day(2018, 5, 1), 5.0, "windows a", w1),
				mkVuln("CVE-2018-0004", day(2018, 5, 1), 5.0, "windows b", w1),
			},
			config: Config{rUB, rDE}, quarantine: []Replica{rW1, rSO}, threshold: 1,
			released: "SO11", reconfigured: true, quarantineAfter: 2,
		},
		{
			name: "empty pool: the retry finds no candidate and nothing more is tried",
			corpus: append(everywhere(1),
				mkVuln("CVE-2018-0003", day(2018, 5, 1), 5.0, "windows a", w1)),
			config: Config{rUB, rDE}, quarantine: []Replica{rW1, rSO}, threshold: 1,
			released: "SO11", quarantineAfter: 1,
		},
		{
			name:   "no candidate: raises until one fits",
			corpus: everywhere(1),
			config: Config{rUB, rDE}, pool: []Replica{rSO, rW1}, threshold: 1,
			raises: 4, reconfigured: true, quarantineAfter: 1,
		},
		{
			name:   "no candidate: the first call's requeue is kept",
			corpus: everywhere(1),
			config: Config{rUB, rDE}, pool: []Replica{rSO, rW1}, quarantine: []Replica{rFE}, threshold: 1,
			requeued: "FE26", raises: 1, reconfigured: true, quarantineAfter: 1,
		},
		{
			name:   "no candidate: gives up after 8 raises",
			corpus: everywhere(8),
			config: Config{rUB, rDE}, pool: []Replica{rSO, rW1}, threshold: 1,
			raises: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := engine(t, tc.corpus)
			build := func() (*Monitor, *rand.Rand) {
				rng := rand.New(rand.NewSource(3))
				m, err := RestoreMonitor(e, tc.config, tc.pool, tc.quarantine,
					MonitorConfig{Threshold: tc.threshold, Rand: rng})
				if err != nil {
					t.Fatal(err)
				}
				return m, rng
			}
			m, rng := build()
			d := m.Round(now)
			if d.Released.ID != tc.released {
				t.Errorf("released %q, want %q", d.Released.ID, tc.released)
			}
			if got := strings.Join(replicaIDs(d.Requeued), ","); got != tc.requeued {
				t.Errorf("requeued %q, want %q", got, tc.requeued)
			}
			want := 0.0
			if tc.raises > 0 {
				want = tc.threshold
				for i := 0; i < tc.raises; i++ {
					want = want*1.5 + 1
				}
			}
			if d.RaisedTo != want {
				t.Errorf("raised to %v, want %v (%d raises)", d.RaisedTo, want, tc.raises)
			}
			if d.Reconfigured != tc.reconfigured || len(m.Quarantine()) != tc.quarantineAfter {
				t.Errorf("reconfigured %v with quarantine %v, want %v with %d",
					d.Reconfigured, replicaIDs(m.Quarantine()), tc.reconfigured, tc.quarantineAfter)
			}

			// The same steps by hand: Monitor, then the remediation.
			h, hrng := build()
			_, err := h.Monitor(now)
			switch {
			case errors.Is(err, ErrPoolExhausted):
				if _, err := h.releaseLeastVulnerable(now); err == nil {
					_, _ = h.Monitor(now) // a corner case the retry meets stands
				}
			case errors.Is(err, ErrNoCandidate):
				for i := 0; i < 8 && errors.Is(err, ErrNoCandidate); i++ {
					h.cfg.Threshold = h.cfg.Threshold*1.5 + 1
					_, err = h.Monitor(now)
				}
			}
			if got, by := m.Config().IDs(), h.Config().IDs(); !sameSet(got, by) || m.Threshold() != h.Threshold() {
				t.Errorf("Round left %v at %v, by hand %v at %v", got, m.Threshold(), by, h.Threshold())
			}
			if rng.Int63() != hrng.Int63() {
				t.Error("Round and the steps by hand drew differently from the rng")
			}
		})
	}
}

func TestMonitorDeterministicForSeed(t *testing.T) {
	run := func(seed int64) string {
		corpus := []*osint.Vulnerability{
			mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared", ub, de),
		}
		e := engine(t, corpus)
		rFE := NewReplica("FE26", "fedoraproject:fedora:26")
		rOB := NewReplica("OB61", "openbsd:openbsd:6.1")
		m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rFE, rW1, rOB},
			MonitorConfig{Threshold: 5, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Monitor(day(2018, 6, 1))
		if err != nil {
			t.Fatal(err)
		}
		return d.Removed.ID + "->" + d.Added.ID
	}
	if run(3) != run(3) {
		t.Error("equal seeds produced different decisions")
	}
	// Different seeds should eventually differ (randomized choice).
	distinct := map[string]bool{}
	for s := int64(0); s < 10; s++ {
		distinct[run(s)] = true
	}
	if len(distinct) < 2 {
		t.Error("random candidate selection appears deterministic across seeds")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	e := engine(t, testCorpus())
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMonitor(nil, Config{rUB}, nil, MonitorConfig{Rand: rng}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewMonitor(e, nil, nil, MonitorConfig{Rand: rng}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewMonitor(e, Config{rUB}, nil, MonitorConfig{}); err == nil {
		t.Error("nil rand accepted")
	}
	if _, err := NewMonitor(e, Config{rUB}, []Replica{rUB}, MonitorConfig{Rand: rng}); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := NewMonitor(e, Config{rUB}, nil, MonitorConfig{Threshold: -1, Rand: rng}); err == nil {
		t.Error("negative threshold accepted")
	}
}

// TestMonitorInvariantSetsDisjoint is a property test across random
// monitoring sequences: CONFIG, POOL and QUARANTINE always partition the
// replica universe.
func TestMonitorInvariantSetsDisjoint(t *testing.T) {
	v := mkVuln("CVE-2018-0001", day(2018, 5, 1), 9.8, "shared", ub, de)
	for seed := int64(0); seed < 20; seed++ {
		e := engine(t, []*osint.Vulnerability{v})
		rFE := NewReplica("FE26", "fedoraproject:fedora:26")
		rOB := NewReplica("OB61", "openbsd:openbsd:6.1")
		universe := 5
		m, err := NewMonitor(e, Config{rUB, rDE, rSO}, []Replica{rFE, rOB},
			MonitorConfig{Threshold: 5, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		now := day(2018, 6, 1)
		for step := 0; step < 10; step++ {
			_, _ = m.Monitor(now.AddDate(0, 0, step)) // corner-case errors fine
			seen := map[string]int{}
			for _, r := range m.Config() {
				seen[r.ID]++
			}
			for _, r := range m.Pool() {
				seen[r.ID]++
			}
			for _, r := range m.Quarantine() {
				seen[r.ID]++
			}
			if len(seen) != universe {
				t.Fatalf("seed %d step %d: universe size %d, want %d", seed, step, len(seen), universe)
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("seed %d step %d: replica %s appears %d times", seed, step, id, n)
				}
			}
			if len(m.Config()) != 3 {
				t.Fatalf("seed %d step %d: config size %d", seed, step, len(m.Config()))
			}
		}
	}
}

func TestTriggerString(t *testing.T) {
	if TriggerRisk.String() != "risk-threshold" || Trigger(9).String() != "Trigger(9)" {
		t.Error("Trigger.String wrong")
	}
}

var _ = time.Now // keep time import if fixtures change

func TestRevertSwapRestoresSets(t *testing.T) {
	m, _ := monitorFixture(t)
	now := day(2018, 6, 1)
	before := struct {
		config, pool, quarantine []string
	}{m.Config().IDs(), replicaIDs(m.Pool()), replicaIDs(m.Quarantine())}

	d, err := m.Monitor(now)
	if err != nil || !d.Reconfigured {
		t.Fatalf("Monitor: %+v, %v", d, err)
	}
	if err := m.RevertSwap(d.Removed, d.Added); err != nil {
		t.Fatalf("RevertSwap: %v", err)
	}
	// Exactly the pre-swap lifecycle state, so the next round is free to
	// pick a different candidate.
	if got := m.Config().IDs(); !sameSet(got, before.config) {
		t.Errorf("config after revert = %v, want %v", got, before.config)
	}
	if got := replicaIDs(m.Pool()); !sameSet(got, before.pool) {
		t.Errorf("pool after revert = %v, want %v", got, before.pool)
	}
	if got := replicaIDs(m.Quarantine()); !sameSet(got, before.quarantine) {
		t.Errorf("quarantine after revert = %v, want %v", got, before.quarantine)
	}
	// The monitor remains functional: the same risk trigger fires again.
	d2, err := m.Monitor(now)
	if err != nil || !d2.Reconfigured {
		t.Fatalf("Monitor after revert: %+v, %v", d2, err)
	}
}

func TestRevertSwapValidates(t *testing.T) {
	m, _ := monitorFixture(t)
	now := day(2018, 6, 1)
	d, err := m.Monitor(now)
	if err != nil || !d.Reconfigured {
		t.Fatalf("Monitor: %+v, %v", d, err)
	}
	// Added must be in config, removed must not.
	if err := m.RevertSwap(d.Removed, d.Removed); err == nil {
		t.Error("revert with non-member joiner accepted")
	}
	if err := m.RevertSwap(d.Added, d.Added); err == nil {
		t.Error("revert of a current member accepted")
	}
	// A valid revert still works after the failed attempts.
	if err := m.RevertSwap(d.Removed, d.Added); err != nil {
		t.Errorf("RevertSwap: %v", err)
	}
	// Reverting twice must fail: the state was already restored.
	if err := m.RevertSwap(d.Removed, d.Added); err == nil {
		t.Error("double revert accepted")
	}
}

func replicaIDs(rs []Replica) []string {
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.ID)
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
