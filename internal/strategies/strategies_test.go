package strategies

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"lazarus/internal/cluster"
	"lazarus/internal/core"
	"lazarus/internal/osint"
)

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

var universe = []core.Replica{
	core.NewReplica("UB16", "canonical:ubuntu_linux:16.04"),
	core.NewReplica("DE8", "debian:debian_linux:8.0"),
	core.NewReplica("FE26", "fedoraproject:fedora:26"),
	core.NewReplica("W10", "microsoft:windows_10:-"),
	core.NewReplica("SO11", "oracle:solaris:11.3"),
	core.NewReplica("OB61", "openbsd:openbsd:6.1"),
	core.NewReplica("FB11", "freebsd:freebsd:11.0"),
}

// testEnv: UB16+DE8 share two recent criticals; everything else is clean.
func testEnv(t *testing.T) Env {
	t.Helper()
	corpus := []*osint.Vulnerability{
		{ID: "CVE-2018-0001", Description: "kernel bug", Published: day(2018, 5, 1), CVSS: 9.0,
			Products: []string{"canonical:ubuntu_linux:16.04", "debian:debian_linux:8.0"}},
		{ID: "CVE-2018-0002", Description: "other kernel bug", Published: day(2018, 5, 2), CVSS: 8.0,
			Products: []string{"canonical:ubuntu_linux:16.04", "debian:debian_linux:8.0"}},
		{ID: "CVE-2018-0003", Description: "windows bug", Published: day(2018, 5, 3), CVSS: 5.0,
			Products: []string{"microsoft:windows_10:-"}},
	}
	intel, err := core.NewIntel(corpus, &cluster.Clusters{K: 1, ByCVE: map[string]int{}, Members: make([][]string, 1)})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewRiskEngine(intel, core.DefaultScoreParams())
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		Universe:  universe,
		N:         4,
		Evaluator: engine,
		SharedCount: func(ri, rj core.Replica, now time.Time) float64 {
			return float64(len(intel.DirectShared(ri, rj, now)))
		},
		SharedCVSS: func(ri, rj core.Replica, now time.Time) float64 {
			var sum float64
			for _, v := range intel.DirectShared(ri, rj, now) {
				sum += v.CVSS
			}
			return sum
		},
		Threshold: 5,
	}
}

func TestEqualAllSameOS(t *testing.T) {
	s, err := NewEqual(testEnv(t), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Init(day(2018, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg) != 4 {
		t.Fatalf("config size %d", len(cfg))
	}
	product := cfg[0].Products[0]
	for _, r := range cfg {
		if r.Products[0] != product {
			t.Errorf("Equal mixed OSes: %v", cfg.IDs())
		}
	}
	// IDs must still be distinct (they are distinct nodes).
	seen := map[string]bool{}
	for _, r := range cfg {
		if seen[r.ID] {
			t.Errorf("duplicate node id %s", r.ID)
		}
		seen[r.ID] = true
	}
	// Step never changes anything.
	after, err := s.Step(day(2018, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].ID != cfg[i].ID {
			t.Error("Equal reconfigured")
		}
	}
}

func TestRandomReplacesDaily(t *testing.T) {
	s, err := NewRandom(testEnv(t), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Init(day(2018, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, r := range cfg {
		distinct[r.ID] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("Random initial config has duplicates: %v", cfg.IDs())
	}
	changes := 0
	prev := cfg
	for i := 0; i < 10; i++ {
		next, err := s.Step(day(2018, 6, 2+i))
		if err != nil {
			t.Fatal(err)
		}
		if len(next) != 4 {
			t.Fatalf("config size %d", len(next))
		}
		diff := 0
		for j := range next {
			if next[j].ID != prev[j].ID {
				diff++
			}
		}
		if diff > 1 {
			t.Errorf("Random changed %d replicas in one day", diff)
		}
		changes += diff
		prev = next
	}
	if changes == 0 {
		t.Error("Random never replaced a replica in 10 days")
	}
}

func TestCommonAvoidsSharedPair(t *testing.T) {
	env := testEnv(t)
	for seed := int64(0); seed < 20; seed++ {
		s, err := NewCommon(env, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Init(day(2018, 6, 1))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Contains("UB16") && cfg.Contains("DE8") {
			t.Errorf("seed %d: Common picked the sharing pair: %v", seed, cfg.IDs())
		}
	}
}

func TestCVSSv3AvoidsSharedPair(t *testing.T) {
	env := testEnv(t)
	for seed := int64(0); seed < 20; seed++ {
		s, err := NewCVSSv3(env, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Init(day(2018, 6, 1))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Contains("UB16") && cfg.Contains("DE8") {
			t.Errorf("seed %d: CVSSv3 picked the sharing pair: %v", seed, cfg.IDs())
		}
	}
}

func TestGreedyStepMovesOffBadPair(t *testing.T) {
	env := testEnv(t)
	s, err := NewCommon(env, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(day(2018, 4, 1)); err != nil { // before the vulns exist
		t.Fatal(err)
	}
	// Force the bad pair in.
	g := s.(*greedy)
	g.config = core.Config{universe[0], universe[1], universe[2], universe[3]}
	cfg, err := s.Step(day(2018, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Contains("UB16") && cfg.Contains("DE8") {
		t.Errorf("greedy step kept the sharing pair: %v", cfg.IDs())
	}
}

func TestLazarusAvoidsSharedPairOverTime(t *testing.T) {
	env := testEnv(t)
	for seed := int64(0); seed < 10; seed++ {
		s, err := NewLazarus(env, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(day(2018, 6, 1)); err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Step(day(2018, 6, 2))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Contains("UB16") && cfg.Contains("DE8") {
			t.Errorf("seed %d: Lazarus kept the sharing pair after a step: %v", seed, cfg.IDs())
		}
		if len(cfg) != 4 {
			t.Fatalf("config size %d", len(cfg))
		}
	}
}

// TestLazarusInitIsStartLazarus: the simulated strategy starts where the
// control plane's Bootstrap does, with StartLazarus's configuration and
// threshold, adaptive or fixed.
func TestLazarusInitIsStartLazarus(t *testing.T) {
	asof := day(2018, 6, 1)
	for _, threshold := range []float64{0, 5} {
		env := testEnv(t)
		env.Threshold = threshold
		for seed := int64(0); seed < 10; seed++ {
			s, err := NewLazarus(env, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.Init(asof)
			if err != nil {
				t.Fatal(err)
			}
			m, err := StartLazarus(env.Universe, env.N, env.Evaluator, threshold, asof, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			got, want := strings.Join(cfg.IDs(), ","), strings.Join(m.Config().IDs(), ",")
			if thr := s.(*lazarus).monitor.Threshold(); got != want || thr != m.Threshold() {
				t.Errorf("threshold %v, seed %d: Init %s at %v, StartLazarus %s at %v",
					threshold, seed, got, thr, want, m.Threshold())
			}
		}
	}
}

func TestLazarusStepBeforeInit(t *testing.T) {
	s, err := NewLazarus(testEnv(t), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(day(2018, 6, 1)); err == nil {
		t.Error("Step before Init accepted")
	}
}

func TestFactoriesComplete(t *testing.T) {
	fs := Factories()
	if len(fs) != 5 {
		t.Fatalf("%d factories, want 5", len(fs))
	}
	env := testEnv(t)
	for _, name := range StrategyNames {
		f, ok := fs[name]
		if !ok {
			t.Fatalf("factory %s missing", name)
		}
		s, err := f(env, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("factory %s built strategy named %s", name, s.Name())
		}
		cfg, err := s.Init(day(2018, 6, 1))
		if err != nil {
			t.Fatalf("%s Init: %v", name, err)
		}
		if len(cfg) != env.N {
			t.Errorf("%s produced config of size %d", name, len(cfg))
		}
	}
}

func TestValidation(t *testing.T) {
	env := testEnv(t)
	rng := rand.New(rand.NewSource(1))
	bad := env
	bad.N = 0
	if _, err := NewEqual(bad, rng); err == nil {
		t.Error("n=0 accepted")
	}
	bad = env
	bad.N = len(universe) + 1
	if _, err := NewRandom(bad, rng); err == nil {
		t.Error("n>universe accepted")
	}
	if _, err := NewEqual(env, nil); err == nil {
		t.Error("nil rng accepted")
	}
	noMetric := env
	noMetric.SharedCount = nil
	if _, err := NewCommon(noMetric, rng); err == nil {
		t.Error("Common without metric accepted")
	}
	noEval := env
	noEval.Evaluator = nil
	if _, err := NewLazarus(noEval, rng); err == nil {
		t.Error("Lazarus without evaluator accepted")
	}
}

func TestEqualNodeIDsMarked(t *testing.T) {
	s, _ := NewEqual(testEnv(t), rand.New(rand.NewSource(9)))
	cfg, _ := s.Init(day(2018, 6, 1))
	for _, r := range cfg {
		if !strings.Contains(r.ID, "#") {
			t.Errorf("Equal node id %q not marked", r.ID)
		}
	}
}
