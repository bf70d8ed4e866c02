package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

const (
	swapClients   = 2
	swapValueSize = 1024
	// swapRoundsMax is how many rounds one controller sustains with every
	// round reconfiguring: past it the pool of spare images is in
	// quarantine and rounds stop replacing anything.
	swapRoundsMax = 12
	// swapPeriodMin paces the rounds: every slice of load starts one, so
	// a window holds the same number of rounds whatever each one took, and
	// clients see the group at rest between replacements as well as during
	// them. Slices stretch with the window so that swapRoundsMax fill it.
	swapPeriodMin = 900 * time.Millisecond
	// corpusSeed fixes the synthetic 2017 vulnerability corpus (the seed of
	// examples/reconfig). The corpus is the control plane's standing input,
	// like a file: drawing it from -seed would change how much clustering
	// work a run does, and with it every number, from one seed to the next.
	corpusSeed = 3
	// stallGap is the silence between two successive completions above
	// which the group counts as stalled rather than slow.
	stallGap = 250 * time.Millisecond
)

// simStart is the simulated date the controller starts at: just after the
// corpus ends.
var simStart = time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)

// swapRound is one round of the control loop: a critical CVE published on
// three running images, the intelligence refresh, the monitor round.
type swapRound struct {
	// refresh is the RefreshIntel call, monitor the MonitorRound call.
	refresh, monitor time.Duration
	reconfigured     bool
	err              error
	// failedSwaps is the controller's own count of failed swaps so far.
	failedSwaps int
}

// swapSystem is a controller-managed group with its load clients.
type swapSystem struct {
	seed    int64
	tr      *tracer
	net     transport.Network
	ctrl    *controlplane.Controller
	clients []*loadClient
	simDays atomic.Int64

	mu     sync.Mutex
	stores map[transport.NodeID]*kvs.Store // by node, as provisioned
}

func setupSwap(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  corpusSeed,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		return nil, err
	}
	s := &swapSystem{seed: seed, tr: tr, stores: make(map[transport.NodeID]*kvs.Store)}
	s.net = transport.NewMemory(transport.MemoryConfig{Seed: seed})
	if tr != nil {
		s.net = tr.wrapNetwork(transport.NewMemory(transport.MemoryConfig{Seed: seed, Metrics: tr.reg}))
	}

	// Simulated days advance when intelligence is published; real time
	// keeps flowing underneath so the controller's deadlines can expire.
	began := time.Now()
	clock := func() time.Time {
		return simStart.Add(time.Duration(s.simDays.Load())*24*time.Hour + time.Since(began))
	}

	clientKeys := make(map[transport.NodeID]ed25519.PublicKey, swapClients)
	privs := make([]ed25519.PrivateKey, swapClients)
	for i := range privs {
		privs[i] = seedKey(seed, "client", i)
		clientKeys[clientID(i)] = privs[i].Public().(ed25519.PublicKey)
	}
	// pending hands the store the factory just built to the tuning hook
	// that follows it inside the same PowerOn, which knows the node id.
	var pending *kvs.Store
	cfg := controlplane.Config{
		N:            replicaCount,
		Seed:         seed,
		Clock:        clock,
		InitialVulns: ds.All(),
		Net:          s.net,
		ClientKeys:   clientKeys,
		LTUSecret:    []byte(fmt.Sprintf("benchmark-ltu|%d", seed)),
		App: func() bft.Application {
			s.mu.Lock()
			defer s.mu.Unlock()
			pending = kvs.New()
			return pending
		},
		ReplicaTuning: func(rc *bft.ReplicaConfig) {
			s.mu.Lock()
			s.stores[rc.ID] = pending
			s.mu.Unlock()
			if tr != nil {
				rc.App = tr.wrapApp(rc.App)
			}
		},
	}
	if tr != nil {
		cfg.Metrics = tr.reg
	}
	if s.ctrl, err = controlplane.New(cfg); err != nil {
		s.net.Close()
		return nil, err
	}
	if err := s.ctrl.Bootstrap(ctx); err != nil {
		s.stop()
		return nil, err
	}
	for i := 0; i < swapClients; i++ {
		// What Controller.ServiceClient builds, with the load generator's
		// own patience (see clientAttempts).
		members := s.ctrl.Membership()
		cl, err := bft.NewClient(bft.ClientConfig{
			ID:          clientID(i),
			Key:         privs[i],
			Replicas:    members.Replicas,
			ReplicaKeys: members.Keys,
			F:           members.F(),
			Net:         s.net,
			MaxAttempts: clientAttempts,
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		src, err := newKVSource(seed, i, kvRecords/swapClients, swapValueSize)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, &loadClient{idx: i, cl: cl, src: src, onInvoke: s.follow})
	}
	if err := readyClients(ctx, s.clients); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// follow keeps a client on the controller's current membership, keys
// included, so that replies are verified against the group as it is.
func (s *swapSystem) follow(cl *bft.Client) {
	if m := s.ctrl.Membership(); m != nil {
		cl.UpdateMembership(m.Replicas, m.Keys)
	}
}

// round publishes one critical, exploited CVE on three running images and
// lets the controller react.
func (s *swapSystem) round(ctx context.Context) swapRound {
	day := s.simDays.Add(1)
	running := s.ctrl.Status().Config
	var products []string
	for _, id := range running {
		if os, err := catalog.ByID(id); err == nil && len(products) < 3 {
			products = append(products, os.CPEProduct)
		}
	}
	now := simStart.AddDate(0, 0, int(day))
	bomb := &osint.Vulnerability{
		ID:          fmt.Sprintf("CVE-2018-9%04d", day),
		Description: "Remote code execution in the shared packet scheduler allows unauthenticated attackers to gain kernel privileges via crafted traffic.",
		Products:    products,
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
	var r swapRound
	start := time.Now()
	if r.err = s.ctrl.RefreshIntel(ctx, bomb); r.err != nil {
		return r
	}
	r.refresh = time.Since(start)
	start = time.Now()
	decision, err := s.ctrl.MonitorRound(ctx)
	r.monitor = time.Since(start)
	r.reconfigured, r.err = decision.Reconfigured, err
	r.failedSwaps = int(s.ctrl.SwapStats().Failed())
	return r
}

func (s *swapSystem) slices(window time.Duration) int {
	n := int(window / swapPeriodMin)
	if n > swapRoundsMax {
		n = swapRoundsMax
	}
	if n < 1 {
		n = 1
	}
	return n
}

// load runs the clients for d and, unless it is the warm-up, one round of
// the control loop beside them; the clients keep going until the round is
// over.
func (s *swapSystem) load(ctx context.Context, i int, d time.Duration) slice {
	out := slice{stallGap: stallGap}
	var swapping atomic.Bool
	var wg sync.WaitGroup
	if i >= 0 {
		swapping.Store(true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer swapping.Store(false)
			r := s.round(ctx)
			out.round = &r
		}()
	}
	spec := loadSpec{
		clients: s.clients, length: d,
		probe: probeFor(s.net, nil, s.tr),
		busy:  swapping.Load,
	}
	out.win = spec.run(ctx)
	wg.Wait()
	return out
}

// verify checks that the group is back to exactly four members with
// nothing left running outside it, and that the members' stores agree.
func (s *swapSystem) verify(ctx context.Context) (stragglers int, err error) {
	members := s.ctrl.Membership()
	if members == nil || members.N() != replicaCount {
		return 0, fmt.Errorf("group ends with %v members, want %d", members, replicaCount)
	}
	if census := s.ctrl.Census(); len(census.Orphans) > 0 {
		return 0, fmt.Errorf("nodes %v run outside the membership", census.Orphans)
	}
	s.mu.Lock()
	var apps []bft.Application
	for _, id := range members.Replicas {
		store, ok := s.stores[id]
		if !ok {
			s.mu.Unlock()
			return 0, fmt.Errorf("member %d has no provisioned store", id)
		}
		apps = append(apps, store)
	}
	s.mu.Unlock()
	// The controller's replicas are not reachable from outside, so there
	// is no last-executed number to wait on: poll the states themselves
	// (see "Settling" in workloads.go).
	start := time.Now()
	for {
		n, err := agreeing(apps)
		if err != nil {
			return 0, err
		}
		waited := time.Since(start)
		if n == len(apps) || (n >= quorum && waited > settleSoft) {
			return len(apps) - n, nil
		}
		if waited > settleHard || ctx.Err() != nil {
			return 0, fmt.Errorf("only %d of %d members hold the same state", n, len(apps))
		}
		if in := s.clients[0].invoke(ctx, time.Time{}); in.err != nil {
			return 0, fmt.Errorf("operation while settling: %w", in.err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *swapSystem) stop() {
	for _, lc := range s.clients {
		lc.cl.Close()
	}
	s.ctrl.Stop()
	s.net.Close()
}
