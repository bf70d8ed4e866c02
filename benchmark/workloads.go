package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
	"lazarus/internal/workload"
)

// Sizes shared by the workloads. Client counts are constants, not scaled
// with the machine: a result is comparable only at the same offered load.
const (
	kvRecords = 1000 // preloaded records, split evenly among the clients
	// warmOpsPerClient closes set-up: that many operations per client dial
	// the connections and fill caches and pools before anything is timed.
	warmOpsPerClient = 100
	// openWarm is how much of its schedule an open loop runs to the same end.
	openWarm = 500 * time.Millisecond
	// openLoopRate is the offered rate of echo-open-lan. At roughly a
	// quarter of what the group sustains, waiting is set by round count,
	// batch timer and pipeline window, not by a busy processor.
	openLoopRate = 400.0
)

// workloadDef names one workload and how to set it up.
type workloadDef struct {
	name string
	why  string
	// setup builds a fresh system under test, ready for its first
	// measured request. tr is nil in an untraced run.
	setup func(ctx context.Context, seed int64, tr *tracer) (instance, error)
}

// instance is one system under test, set up and ready.
type instance interface {
	// slices is how many slices a window of the given length is cut into.
	slices(window time.Duration) int
	// load runs the i-th slice of load for d; i < 0 is the warm-up.
	load(ctx context.Context, i int, d time.Duration) slice
	// verify quiesces the system and checks its outputs; stragglers are
	// the replicas it had to leave out because they never caught up.
	verify(ctx context.Context) (stragglers int, err error)
	stop()
}

// sliceLength is how long a slice of the steady workloads aims to be:
// long enough that 1 % of its requests is ten of them at 400 req/s.
const sliceLength = 2500 * time.Millisecond

// slice is one stretch of load between two readings of the machine's
// speed. A run reports the median slice, so a hiccup in one of them (a
// view change, a collection, a neighbour on the host) does not own the
// result.
type slice struct {
	win window
	// stallGap, when set, is the silence between completions above which
	// the group counts as stalled; stalled time is then left out of the
	// slice's length (see stalledTime).
	stallGap time.Duration
	// round is the control loop's round that ran during the slice
	// (swap-under-load only).
	round *swapRound
}

var workloadDefs = []workloadDef{
	{
		name: "kvs-small-mem",
		why:  "closed loop, 4 clients, memory transport, 64 B values: no wire cost, so signing, codec per message and the replica loop do the work",
		setup: func(ctx context.Context, seed int64, tr *tracer) (instance, error) {
			return setupKVS(ctx, seed, tr, netMemory, 64)
		},
	},
	{
		name: "kvs-4k-tcp",
		why:  "same loop over loopback TCP with 4 KiB values: bytes, framing, MAC and syscalls dominate, the ordering code is no longer the bottleneck",
		setup: func(ctx context.Context, seed int64, tr *tracer) (instance, error) {
			return setupKVS(ctx, seed, tr, netTCP, 4096)
		},
	},
	{
		name:  "echo-open-lan",
		why:   "open loop, Poisson 400 req/s on 8 clients, 0/0 echo, 200-300 us injected per hop: latency is rounds and timers, not CPU",
		setup: setupEcho,
	},
	{
		name:  "swap-under-load",
		why:   "the control loop replaces a replica every round under 2 closed-loop clients: reconfiguration, state transfer, deploy, WAL, clustering, risk",
		setup: setupSwap,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// service is a benchmark-owned group with its load clients: the system
// under test of the three steady-state workloads.
type service struct {
	seed    int64
	c       *cluster
	clients []*loadClient
	open    bool
	tr      *tracer
}

// serviceShape is what differs between the steady-state workloads.
type serviceShape struct {
	kind    netKind
	clients int
	app     func() bft.Application
	// source builds the operation source of one client.
	source func(seed int64, client int) (opSource, error)
	// open makes the loop an open one at openLoopRate.
	open bool
}

func setupKVS(ctx context.Context, seed int64, tr *tracer, kind netKind, valueSize int) (instance, error) {
	const clients = 4
	return setupService(ctx, seed, tr, serviceShape{
		kind: kind, clients: clients,
		app: func() bft.Application { return kvs.New() },
		source: func(seed int64, client int) (opSource, error) {
			return newKVSource(seed, client, kvRecords/clients, valueSize)
		},
	})
}

func setupEcho(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	return setupService(ctx, seed, tr, serviceShape{
		kind: netMemoryLN, clients: 8, open: true,
		app:    func() bft.Application { return workload.EchoApp{} },
		source: func(int64, int) (opSource, error) { return echoSource{}, nil },
	})
}

// setupService launches the group, preloads whatever data set the clients'
// sources own, and runs the connection warm-up.
func setupService(ctx context.Context, seed int64, tr *tracer, shape serviceShape) (instance, error) {
	c, err := launchCluster(clusterConfig{seed: seed, kind: shape.kind, clients: shape.clients, app: shape.app, trace: tr})
	if err != nil {
		return nil, err
	}
	s := &service{seed: seed, c: c, open: shape.open, tr: tr}
	for i, cl := range c.clients {
		src, err := shape.source(seed, i)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, &loadClient{idx: i, cl: cl, src: src})
	}
	if err := s.ready(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// ready ends the set-up. A closed loop preloads its data set and issues
// warmOpsPerClient operations per client. An open loop, whose clients own
// no data, runs openWarm of its own schedule instead: driven any faster it
// would be a different system, busy where the measured one mostly waits.
func (s *service) ready(ctx context.Context) error {
	if !s.open {
		return readyClients(ctx, s.clients)
	}
	sl := s.load(ctx, -1, openWarm)
	for i := range sl.win.invs {
		if err := sl.win.invs[i].err; err != nil {
			return fmt.Errorf("warm-up operation: %w", err)
		}
	}
	return nil
}

// probeFor reads the cumulative counters of a network (and, traced, of
// the runtime and the registry).
func probeFor(net transport.Network, em *netem.Network, tr *tracer) func() counters {
	return func() counters {
		c := counters{cpu: processCPU(), net: net.Stats()}
		if em != nil {
			c.netem = em.NetemStats()
		}
		if tr != nil {
			runtime.ReadMemStats(&c.mem)
			c.reg = tr.reg.Snapshot()
		}
		return c
	}
}

func (s *service) slices(window time.Duration) int {
	if n := int(window / sliceLength); n > 1 {
		return n
	}
	return 1
}

func (s *service) load(ctx context.Context, i int, d time.Duration) slice {
	spec := loadSpec{
		clients: s.clients, length: d,
		probe: probeFor(s.c.net, s.c.em, s.tr),
	}
	if s.open {
		// Every slice draws its own arrivals.
		spec.schedule = poissonSchedule(s.seed^int64(i+1)<<32, openLoopRate, d)
	}
	return slice{win: spec.run(ctx)}
}

// Settling. After the load every replica should reach the same state, and
// a replica that fell behind catches up on checkpoint traffic, so while it
// waits a check keeps a trickle of operations going. The protocol promises
// progress to 2f+1 replicas only: if after settleSoft some replica is
// still behind, the check goes ahead on the others, provided they are a
// quorum, and the run reports how many it left out. A replica that is
// behind holds a prefix, not a wrong answer.
const (
	settleSoft = 10 * time.Second
	settleHard = 20 * time.Second
	quorum     = 2*faults + 1
)

// verify waits until the replicas have executed the same prefix, then
// checks that they agree: the same application state, byte for byte, and
// never two different batches at one sequence number.
func (s *service) verify(ctx context.Context) (stragglers int, err error) {
	start := time.Now()
	var abreast []bft.Application
	for {
		abreast = s.abreast()
		waited := time.Since(start)
		if len(abreast) == replicaCount || (len(abreast) >= quorum && waited > settleSoft) {
			break
		}
		if waited > settleHard || ctx.Err() != nil {
			return 0, fmt.Errorf("no quorum of replicas settled on one last executed sequence number: %s", s.progress())
		}
		if in := s.clients[0].invoke(ctx, time.Time{}); in.err != nil {
			return 0, fmt.Errorf("operation while settling: %w", in.err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stragglers = replicaCount - len(abreast); stragglers > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: left out of the state check:", s.progress())
	}
	n, err := agreeing(abreast)
	if err != nil {
		return stragglers, err
	}
	if n < len(abreast) {
		return stragglers, fmt.Errorf("only %d of the %d replicas at one sequence number hold the same state", n, len(abreast))
	}
	return stragglers, sameExecution(s.c.replicas)
}

// abreast returns the applications of the replicas that have executed up
// to the highest sequence number any of them has.
func (s *service) abreast() []bft.Application {
	var top uint64
	var apps []bft.Application
	for i, r := range s.c.replicas {
		switch last := r.Stats().LastExecuted; {
		case last > top:
			top, apps = last, []bft.Application{s.c.apps[i]}
		case last == top:
			apps = append(apps, s.c.apps[i])
		}
	}
	return apps
}

// progress says where every replica stands, for the message of a failed
// check.
func (s *service) progress() string {
	var b strings.Builder
	for _, r := range s.c.replicas {
		st := r.Stats()
		fmt.Fprintf(&b, "replica %d executed %d (view %d, low water %d, %d state transfers); ",
			r.ID(), st.LastExecuted, st.CurrentView, st.LowWater, st.StateTransfers)
	}
	return b.String()
}

func (s *service) stop() { s.c.stop() }

// agreeing returns the size of the largest group of applications whose
// snapshots have the same SHA-256.
func agreeing(apps []bft.Application) (int, error) {
	groups := make(map[[sha256.Size]byte]int)
	var largest int
	for i, app := range apps {
		snap, err := app.Snapshot()
		if err != nil {
			return 0, fmt.Errorf("snapshot of application %d: %w", i, err)
		}
		sum := sha256.Sum256(snap)
		groups[sum]++
		if groups[sum] > largest {
			largest = groups[sum]
		}
	}
	return largest, nil
}

// sameExecution cross-checks the execution traces pairwise by sequence
// number (the traces are bounded, so only the overlap is comparable).
func sameExecution(replicas []*bft.Replica) error {
	seen := make(map[uint64]bft.ExecRecord)
	for _, r := range replicas {
		for _, rec := range r.ExecTrace() {
			if prev, ok := seen[rec.Seq]; ok {
				if prev.Digest != rec.Digest {
					return fmt.Errorf("sequence number %d executed as %v and as %v (replica %d)", rec.Seq, prev.Digest, rec.Digest, r.ID())
				}
				continue
			}
			seen[rec.Seq] = rec
		}
	}
	return nil
}
