// Package controlplane implements the Lazarus controller (paper §5.1):
// the logically-centralized trusted component that wires the Data manager
// (OSINT ingestion), the Risk manager (clustering + Equation 5 +
// Algorithm 1) and the Deploy manager (replica provisioning through
// per-node LTUs) into a closed loop that keeps a BFT service running on
// the lowest-risk diverse replica set available.
package controlplane

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/cluster"
	"lazarus/internal/core"
	"lazarus/internal/deploy"
	"lazarus/internal/ltu"
	"lazarus/internal/metrics"
	"lazarus/internal/osint"
	"lazarus/internal/strategies"
	"lazarus/internal/transport"
	"lazarus/internal/vulndb"
)

// Config configures a Controller.
type Config struct {
	// N is the replica-set size (default 4). The universe is the
	// deployable catalog.
	N int
	// Seed drives the randomized selection.
	Seed int64
	// Clock supplies the current time (nil = time.Now); injected so the
	// risk experiments and tests can replay history.
	Clock func() time.Time

	// Crawler optionally pulls live OSINT feeds on each refresh.
	Crawler *osint.Crawler
	// InitialVulns seeds the knowledge base without a crawler.
	InitialVulns []*osint.Vulnerability

	// Net is the execution-plane network.
	Net transport.Network
	// App builds the replicated service per replica.
	App deploy.AppFactory
	// ClientKeys registers the service's clients.
	ClientKeys map[transport.NodeID]ed25519.PublicKey
	// LTUSecret authenticates controller-to-LTU commands.
	LTUSecret []byte
	// ReplicaTuning adjusts replica protocol knobs.
	ReplicaTuning func(*bft.ReplicaConfig)
	// CatchUpTimeout bounds how long a joining replica may take to
	// state-transfer in (default 30s), measured on Clock.
	CatchUpTimeout time.Duration
	// SwapStageTimeout bounds each attempt of a swap stage other than
	// catch-up (default 15s, real time).
	SwapStageTimeout time.Duration
	// SwapAttempts is the per-stage attempt budget of the swap engine
	// (default 3: one try plus two retries).
	SwapAttempts int
	// SwapBackoff and SwapBackoffMax shape the capped exponential backoff
	// between stage retries (defaults 50ms and 1s, the transport's
	// re-dial idiom).
	SwapBackoff, SwapBackoffMax time.Duration
	// LTUInjector, when set, is installed as the fault injector of every
	// LTU the controller creates (chaos testing).
	LTUInjector func(node transport.NodeID, cmd ltu.Command) error
	// WAL is the write-ahead control-plane store (wal.go). The controller
	// records its census, membership, swap history, and every swap stage
	// transition in it, so a successor can Recover after a crash. Nil
	// defaults to an in-memory log (same record protocol, no file).
	WAL WAL
	// Metrics, when set, receives the controller's instruments (intel
	// refresh and clustering timings, monitor-round latency, per-stage
	// swap durations and outcomes) and is handed to every replica the
	// controller provisions, so one registry aggregates the whole
	// deployment.
	Metrics *metrics.Registry
	// Logf receives controller logging (nil = discard).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.N == 0 {
		c.N = 4
	}
	if u := len(catalog.Deployable()); u < c.N {
		return fmt.Errorf("controlplane: universe %d smaller than n %d", u, c.N)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Net == nil {
		return fmt.Errorf("controlplane: nil network")
	}
	if c.App == nil {
		return fmt.Errorf("controlplane: nil app factory")
	}
	if len(c.LTUSecret) == 0 {
		return fmt.Errorf("controlplane: empty LTU secret")
	}
	if c.CatchUpTimeout <= 0 {
		c.CatchUpTimeout = 30 * time.Second
	}
	if c.SwapStageTimeout <= 0 {
		c.SwapStageTimeout = 15 * time.Second
	}
	if c.SwapAttempts <= 0 {
		c.SwapAttempts = 3
	}
	if c.SwapBackoff <= 0 {
		c.SwapBackoff = 50 * time.Millisecond
	}
	if c.SwapBackoffMax <= 0 {
		c.SwapBackoffMax = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.WAL == nil {
		c.WAL = NewMemWAL()
	}
	return nil
}

// countingSource wraps the seeded source and counts source-level draws.
// Both Int63 and Uint64 advance math/rand's generator by exactly one
// step, so the census can record the draw count and a recovering
// controller can burn the same number of Int63 calls to land on the
// identical rng state — deterministic replay survives the crash.
type countingSource struct {
	src   mrand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: mrand.NewSource(seed).(mrand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// swapEvaluator delegates risk queries to the engine built from the most
// recent OSINT refresh; Algorithm 1 always evaluates against fresh data.
type swapEvaluator struct {
	mu  sync.RWMutex
	eng *core.RiskEngine
}

var _ core.RiskEvaluator = (*swapEvaluator)(nil)

func (s *swapEvaluator) get() *core.RiskEngine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng
}

func (s *swapEvaluator) set(e *core.RiskEngine) {
	s.mu.Lock()
	s.eng = e
	s.mu.Unlock()
}

func (s *swapEvaluator) Risk(cfg core.Config, now time.Time) float64 {
	return s.get().Risk(cfg, now)
}

func (s *swapEvaluator) AverageScore(r core.Replica, now time.Time) float64 {
	return s.get().AverageScore(r, now)
}

func (s *swapEvaluator) FullyPatched(r core.Replica, now time.Time) bool {
	return s.get().FullyPatched(r, now)
}

func (s *swapEvaluator) UnpatchedCount(r core.Replica, now time.Time) int {
	return s.get().UnpatchedCount(r, now)
}

// nodeSlot is one execution-plane machine with its LTU.
type nodeSlot struct {
	node *deploy.Node
	ltu  *ltu.LTU
}

// Controller is the Lazarus control plane.
type Controller struct {
	cfg   Config
	store *vulndb.Store
	eval  *swapEvaluator
	rng   *mrand.Rand
	src   *countingSource // rng's source; census records its draw count

	monitor *core.Monitor

	builder  *deploy.Builder
	ctrlPub  ed25519.PublicKey
	ctrlPriv ed25519.PrivateKey
	ins      cpInstruments

	// Durability (wal.go / recover.go): every state transition is
	// appended to wal before its side effect runs. generation counts how
	// many controller processes have owned this log (0 = the bootstrap
	// process). crashed flips when a scheduled crash point fires; from
	// then on the controller refuses all WAL writes and side effects.
	wal        WAL
	generation int
	crashed    atomic.Bool
	crashPlan  atomic.Pointer[CrashPlan]

	mu sync.Mutex
	// membership is read by freshly booting replicas while c.mu is held,
	// so it lives in an atomic pointer rather than under the mutex.
	membership atomic.Pointer[bft.Membership]
	nodes      map[transport.NodeID]*nodeSlot
	osToNode   map[string]transport.NodeID
	nextNode   transport.NodeID
	ltuSeq     uint64
	client     *bft.Client
	started    bool

	// Swap-engine telemetry (see swap.go): counters plus a bounded window
	// of structured swap records.
	swapMu   sync.Mutex
	counters SwapStats
	swapHist []SwapRecord
	swapSeq  uint64 // WAL swap-record IDs, monotonic per log
	open     bool   // a swap is open: the next monitor round resumes it
}

// CrashPlan decides, after a WAL record has been appended, whether the
// controller crashes at that point (chaos testing). The record is
// durable when the plan fires: the crash simulates dying between the
// append and the side effect (intent records) or between the side
// effect and the next intent (outcome records).
type CrashPlan func(WALRecord) bool

// ErrControllerCrashed is returned by every operation once a scheduled
// crash point has fired: the process is dead for simulation purposes
// and must not run side effects, record history, or compensate.
var ErrControllerCrashed = errors.New("controlplane: controller crashed")

// ScheduleCrash arms (or, with nil, disarms) a crash plan.
func (c *Controller) ScheduleCrash(plan CrashPlan) {
	if plan == nil {
		c.crashPlan.Store(nil)
		return
	}
	c.crashPlan.Store(&plan)
}

// isCrashed reports whether a crash point has fired.
func (c *Controller) isCrashed() bool { return c.crashed.Load() }

// walAppend writes one record through the intent/outcome protocol: the
// record is appended and synced BEFORE the caller runs the side effect
// it announces. A fired crash plan marks the controller dead after the
// triggering record is durable — exactly the "crashed between the log
// write and the action" window recovery must handle.
func (c *Controller) walAppend(rec WALRecord) error {
	if c.crashed.Load() {
		return ErrControllerCrashed
	}
	if err := c.wal.Append(rec); err != nil {
		return err
	}
	if err := c.wal.Sync(); err != nil {
		return err
	}
	c.ins.walAppends.Inc()
	if plan := c.crashPlan.Load(); plan != nil && (*plan)(rec) {
		// The record IS durable; the error tells the caller the process
		// died before running whatever the record announced.
		c.crashed.Store(true)
		c.cfg.Logf("controlplane: crash point fired after %s record", rec.Kind)
		return ErrControllerCrashed
	}
	return nil
}

// Crash kills the controller immediately (chaos testing): from this point
// every WAL write and side-effect boundary refuses to run. In-flight
// stage attempts are abandoned at their next boundary check; the WAL and
// the plant are what a successor recovers from.
func (c *Controller) Crash() {
	c.crashed.Store(true)
	c.cfg.Logf("controlplane: controller killed")
}

// Plant is the execution-plane substrate that outlives a controller
// process: the deploy builder (which owns per-node signing keys and the
// controller's reconfiguration authority) and the tracked node slots with
// their LTUs. In a real deployment these are the physical machines; here
// they are the handles a crashed in-process controller leaves behind for
// Recover to re-adopt.
type Plant struct {
	builder *deploy.Builder
	nodes   map[transport.NodeID]*nodeSlot
}

// Plant hands the surviving substrate to a successor (typically called on
// a crashed controller).
func (c *Controller) Plant() Plant {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make(map[transport.NodeID]*nodeSlot, len(c.nodes))
	for id, slot := range c.nodes {
		nodes[id] = slot
	}
	return Plant{builder: c.builder, nodes: nodes}
}

// Generation reports which controller process owns the WAL (0 = the
// bootstrap process, +1 per recovery).
func (c *Controller) Generation() int { return c.generation }

// New validates the configuration and builds a controller (nothing runs
// until Bootstrap).
func New(cfg Config) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("controlplane: controller key: %w", err)
	}
	// Every provisioned replica reports into the controller's registry;
	// the caller's tuning still runs last so it can override.
	tuning := cfg.ReplicaTuning
	instrumented := func(rc *bft.ReplicaConfig) {
		rc.Metrics = cfg.Metrics
		if tuning != nil {
			tuning(rc)
		}
	}
	builder, err := deploy.NewBuilder(deploy.BuilderConfig{
		Net:           cfg.Net,
		ClientKeys:    cfg.ClientKeys,
		ControllerKey: pub,
		App:           cfg.App,
		ReplicaTuning: instrumented,
	})
	if err != nil {
		return nil, err
	}
	return newController(cfg, builder, priv), nil
}

// newController assembles a controller around its builder and signing
// key, which New makes and Recover takes from the plant and the log.
func newController(cfg Config, builder *deploy.Builder, priv ed25519.PrivateKey) *Controller {
	src := newCountingSource(cfg.Seed)
	return &Controller{
		cfg:      cfg,
		store:    vulndb.New(),
		eval:     &swapEvaluator{},
		rng:      mrand.New(src),
		src:      src,
		builder:  builder,
		ctrlPub:  priv.Public().(ed25519.PublicKey),
		ctrlPriv: priv,
		ins:      newCPInstruments(cfg.Metrics),
		wal:      cfg.WAL,
		nodes:    make(map[transport.NodeID]*nodeSlot),
		osToNode: make(map[string]transport.NodeID),
		counters: SwapStats{StageFailures: make(map[SwapStage]uint64)},
	}
}

// ControllerKey returns the public key whose signature authorizes
// reconfigurations.
func (c *Controller) ControllerKey() ed25519.PublicKey { return c.ctrlPub }

// replicaFor converts an OS into the risk engine's replica identity.
func replicaFor(os catalog.OS) core.Replica {
	return core.NewReplica(os.ID, os.CPEProduct)
}

// RefreshIntel ingests new OSINT data (crawler and/or preloaded records),
// re-clusters the descriptions, and swaps the risk engine Algorithm 1
// evaluates against (the Data manager + the analysis half of the Risk
// manager).
func (c *Controller) RefreshIntel(ctx context.Context, extra ...*osint.Vulnerability) error {
	refreshStart := time.Now()
	if err := c.store.UpsertAll(c.cfg.InitialVulns); err != nil {
		return err
	}
	c.cfg.InitialVulns = nil
	if err := c.store.UpsertAll(extra); err != nil {
		return err
	}
	if c.cfg.Crawler != nil {
		records, errs := c.cfg.Crawler.Crawl(ctx)
		c.ins.crawlRecords.Add(int64(len(records)))
		c.ins.crawlErrors.Add(int64(len(errs)))
		for _, err := range errs {
			c.cfg.Logf("controlplane: crawl: %v", err)
		}
		for _, v := range records {
			if err := c.store.Upsert(v); err != nil {
				return err
			}
		}
	}
	corpus := c.store.All()
	c.ins.intelRecords.Set(int64(len(corpus)))
	if len(corpus) == 0 {
		return fmt.Errorf("controlplane: no vulnerability data ingested")
	}
	// k scales with the corpus, clamped to [8, 192] and to its size.
	k := min(max(len(corpus)/8, 8), 192, len(corpus))
	clusterStart := time.Now()
	model, err := cluster.BuildModel(corpus, cluster.Config{K: k, MaxVocabulary: 600, Seed: c.cfg.Seed})
	if err != nil {
		return err
	}
	c.ins.clusterBuildUS.Observe(time.Since(clusterStart).Microseconds())
	intel, err := core.NewIntel(corpus, model.Clusters)
	if err != nil {
		return err
	}
	// Same-cluster links must also be textually close (K-means forces
	// every record into some cluster, so membership alone over-links).
	intel.SetSimilarityGate(func(a, b string) bool {
		return model.Cosine(a, b) >= 0.60
	})
	engine, err := core.NewRiskEngine(intel, core.DefaultScoreParams())
	if err != nil {
		return err
	}
	c.eval.set(engine)
	c.ins.intelRefreshUS.Observe(time.Since(refreshStart).Microseconds())
	c.cfg.Logf("controlplane: intel refreshed: %d records, %d clusters", len(corpus), model.Clusters.K)
	return nil
}

// Bootstrap selects the initial minimum-risk configuration, provisions
// its replicas through the LTUs, and starts monitoring state. RefreshIntel
// runs first if it has not.
func (c *Controller) Bootstrap(ctx context.Context) error {
	if c.eval.get() == nil {
		if err := c.RefreshIntel(ctx); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("controlplane: already bootstrapped")
	}
	now := c.cfg.Clock()

	var universe []core.Replica
	for _, os := range catalog.Deployable() {
		universe = append(universe, replicaFor(os))
	}
	monitor, err := strategies.StartLazarus(universe, c.cfg.N, c.eval, 0, now, c.rng)
	if err != nil {
		return err
	}
	initial := monitor.Config()
	c.monitor = monitor

	// Provision the execution plane: one node per configured OS. Keys
	// exist before power-on so the initial membership covers them.
	ids := make([]transport.NodeID, 0, c.cfg.N)
	keys := make(map[transport.NodeID]ed25519.PublicKey, c.cfg.N)
	var slots []*nodeSlot
	for range initial {
		id := c.nextNode
		c.nextNode++
		slot, err := c.newSlotLocked(id)
		if err != nil {
			return err
		}
		pub, err := c.builder.PublicKey(id)
		if err != nil {
			return err
		}
		ids = append(ids, id)
		keys[id] = pub
		slots = append(slots, slot)
	}
	membership, err := bft.NewMembership(ids, keys)
	if err != nil {
		return err
	}
	c.membership.Store(membership)

	for i, r := range initial {
		if err := c.powerOnLocked(slots[i], r.ID, false); err != nil {
			return err
		}
		c.osToNode[r.ID] = slots[i].node.ID()
	}
	if err := c.connect(transport.ClientIDBase+9999, membership); err != nil {
		return err
	}

	// Durably record what a successor needs to re-adopt this deployment:
	// identity first (the WAL's one immutable record), then the group,
	// then the full census.
	if err := c.walAppend(WALRecord{Kind: WALBootstrap, CtrlKey: c.ctrlPriv, N: c.cfg.N}); err != nil {
		return err
	}
	if err := c.walMembership(membership); err != nil {
		return err
	}
	if err := c.walCensusLocked(); err != nil {
		return err
	}
	c.cfg.Logf("controlplane: bootstrapped CONFIG %v at risk %.1f (threshold %.1f)",
		initial.IDs(), c.eval.Risk(initial, now), monitor.Threshold())
	return nil
}

// connect builds the control client that orders reconfigurations
// through membership m, and marks the controller started.
func (c *Controller) connect(id transport.NodeID, m *bft.Membership) error {
	client, err := bft.NewClient(bft.ClientConfig{
		ID:             id,
		Key:            c.ctrlPriv,
		Replicas:       m.Replicas,
		ReplicaKeys:    m.Keys,
		F:              m.F(),
		Net:            c.cfg.Net,
		RequestTimeout: 800 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	c.client, c.started = client, true
	return nil
}

// walMembership records the replica group after a committed change.
func (c *Controller) walMembership(m *bft.Membership) error {
	keys := make(map[transport.NodeID][]byte, len(m.Keys))
	for id, k := range m.Keys {
		keys[id] = append([]byte(nil), k...)
	}
	return c.walAppend(WALRecord{
		Kind:       WALMembership,
		Epoch:      m.Epoch,
		Members:    append([]transport.NodeID(nil), m.Replicas...),
		MemberKeys: keys,
	})
}

// walCensusLocked snapshots the control plane into the WAL. Caller holds
// c.mu.
func (c *Controller) walCensusLocked() error {
	st := c.statusLocked()
	// The counters only: a successor learns of an open swap from the log.
	c.swapMu.Lock()
	stats := c.counters.clone()
	c.swapMu.Unlock()
	return c.walAppend(WALRecord{
		Kind: WALCensus, Config: st.Config, Pool: st.Pool, Quarantine: st.Quarantine,
		Threshold: st.Threshold, OSNodes: st.Nodes, NextNode: c.nextNode, LTUSeq: c.ltuSeq,
		RandDraws: c.src.draws, Stats: &stats,
	})
}

// walCensus takes c.mu and snapshots; failures are logged, not fatal —
// a missed census only costs recovery precision, and a fired crash
// point makes every append a deliberate no-op anyway.
func (c *Controller) walCensus() {
	c.mu.Lock()
	err := c.walCensusLocked()
	c.mu.Unlock()
	if err != nil && !errors.Is(err, ErrControllerCrashed) {
		c.cfg.Logf("controlplane: census WAL append: %v", err)
	}
}

func (c *Controller) newSlotLocked(id transport.NodeID) (*nodeSlot, error) {
	node, err := c.builder.NewNode(id, c.currentMembership)
	if err != nil {
		return nil, err
	}
	unit, err := ltu.New(c.cfg.LTUSecret, node)
	if err != nil {
		return nil, err
	}
	if inject := c.cfg.LTUInjector; inject != nil {
		unit.SetInjector(func(cmd ltu.Command) error { return inject(id, cmd) })
	}
	slot := &nodeSlot{node: node, ltu: unit}
	c.nodes[id] = slot
	return slot, nil
}

// currentMembership supplies freshly booted replicas with the controller's
// view of the group. Lock-free: PowerOn calls it while c.mu is held.
func (c *Controller) currentMembership() *bft.Membership {
	m := c.membership.Load()
	if m == nil {
		return nil
	}
	return m.Clone()
}

// powerOnLocked drives a node through its LTU.
func (c *Controller) powerOnLocked(slot *nodeSlot, osID string, joining bool) error {
	c.ltuSeq++
	sealed, err := ltu.Seal(c.cfg.LTUSecret, ltu.Command{
		Seq:     c.ltuSeq,
		Action:  ltu.ActionPowerOn,
		OSID:    osID,
		Joining: joining,
	})
	if err != nil {
		return err
	}
	return slot.ltu.Execute(sealed)
}

func (c *Controller) powerOffLocked(slot *nodeSlot) error {
	c.ltuSeq++
	sealed, err := ltu.Seal(c.cfg.LTUSecret, ltu.Command{Seq: c.ltuSeq, Action: ltu.ActionPowerOff})
	if err != nil {
		return err
	}
	return slot.ltu.Execute(sealed)
}

// Status reports the controller's current view.
type Status struct {
	Config     []string
	Pool       []string
	Quarantine []string
	Threshold  float64
	Epoch      uint64
	Members    []transport.NodeID
	Nodes      map[string]transport.NodeID
}

// Status returns the current control-plane view.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

// statusLocked builds the view Status returns and the census records.
// Caller holds c.mu.
func (c *Controller) statusLocked() Status {
	st := Status{Nodes: make(map[string]transport.NodeID)}
	if c.monitor != nil {
		st.Config = c.monitor.Config().IDs()
		for _, r := range c.monitor.Pool() {
			st.Pool = append(st.Pool, r.ID)
		}
		for _, r := range c.monitor.Quarantine() {
			st.Quarantine = append(st.Quarantine, r.ID)
		}
		st.Threshold = c.monitor.Threshold()
	}
	if m := c.membership.Load(); m != nil {
		st.Epoch = m.Epoch
		st.Members = append([]transport.NodeID(nil), m.Replicas...)
	}
	for osID, node := range c.osToNode {
		st.Nodes[osID] = node
	}
	return st
}

// Client returns a service client bound to the current membership for the
// given identity.
func (c *Controller) ServiceClient(id transport.NodeID, key ed25519.PrivateKey) (*bft.Client, error) {
	m := c.membership.Load()
	if m == nil {
		return nil, errors.New("controlplane: not bootstrapped")
	}
	return bft.NewClient(bft.ClientConfig{
		ID:          id,
		Key:         key,
		Replicas:    m.Replicas,
		ReplicaKeys: m.Keys,
		F:           m.F(),
		Net:         c.cfg.Net,
	})
}

// Membership returns a clone of the controller's current view of the
// replica group (nil before Bootstrap). Load clients use it to follow
// reconfigurations, keys included, via Client.UpdateMembership.
func (c *Controller) Membership() *bft.Membership {
	return c.currentMembership()
}

// MonitorRound runs one Algorithm 1 round (core.Monitor.Round, which
// remediates the paper's corner cases) at the clock's current time and
// executes any resulting replica replacement on the execution plane
// through the staged swap engine (swap.go). When a swap fails and is rolled
// back, the returned Decision still describes the attempted replacement
// but the lifecycle sets have been reverted — the error reports the
// failed stage, and SwapStats/SwapHistory record the attempt. A swap
// whose compensation failed stays open, and the next round resumes it
// before Algorithm 1 runs.
func (c *Controller) MonitorRound(ctx context.Context) (core.Decision, error) {
	if c.isCrashed() {
		return core.Decision{}, ErrControllerCrashed
	}
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return core.Decision{}, errors.New("controlplane: not bootstrapped")
	}
	monitor := c.monitor
	c.mu.Unlock()
	if err := c.resumeOpen(ctx); err != nil {
		return core.Decision{}, fmt.Errorf("controlplane: resuming the open swap: %w", err)
	}

	now := c.cfg.Clock()
	roundStart := time.Now()
	decision := monitor.Round(now)
	// Algorithm 1 evaluation time, remediation included; swap execution
	// is measured separately per stage.
	c.ins.monitorRoundUS.Observe(time.Since(roundStart).Microseconds())
	if decision.Released.ID != "" {
		c.cfg.Logf("controlplane: pool exhausted; released least-vulnerable quarantined replica %s", decision.Released.ID)
	}
	if decision.RaisedTo > 0 {
		c.cfg.Logf("controlplane: no candidate below threshold; raised to %.1f", decision.RaisedTo)
	}
	if !decision.Reconfigured {
		c.walCensus()
		return decision, nil
	}
	// The swap snapshots the census itself, before it closes.
	if swapErr := c.executeSwap(ctx, decision.Removed, decision.Added); swapErr != nil {
		return decision, fmt.Errorf("controlplane: executing swap %s -> %s: %w",
			decision.Removed.ID, decision.Added.ID, swapErr)
	}
	return decision, nil
}

// Stop retires every node (bypassing any injected lifecycle faults) and
// closes the control client.
func (c *Controller) Stop() {
	c.mu.Lock()
	slots := make([]*nodeSlot, 0, len(c.nodes))
	for _, s := range c.nodes {
		slots = append(slots, s)
	}
	client := c.client
	c.mu.Unlock()
	if client != nil {
		client.Close()
	}
	for _, s := range slots {
		s.node.Retire()
	}
}
