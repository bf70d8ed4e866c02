package bft

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// The ordering engine's fixed parameters. None has two callers that want
// different values, so none is a ReplicaConfig field.
const (
	// batchSize caps requests per consensus instance.
	batchSize = 16
	// pipelineDepth caps consensus instances in flight — proposed but not
	// yet executed — letting agreement rounds for several batches overlap
	// instead of running serially.
	pipelineDepth = 8
	// verifyWorkers sizes the pool that verifies signatures off the event
	// loop.
	verifyWorkers = 4
)

// ReplicaConfig configures one replica.
type ReplicaConfig struct {
	// ID is this replica's node id (must be in the initial membership
	// unless Joining).
	ID transport.NodeID
	// Key is this replica's signing key.
	Key ed25519.PrivateKey
	// Membership is the initial configuration.
	Membership *Membership
	// App is the replicated service.
	App Application
	// Net provides the endpoint.
	Net transport.Network
	// ClientKeys authenticates client requests.
	ClientKeys map[transport.NodeID]ed25519.PublicKey
	// ControllerKey authenticates reconfiguration operations (the
	// Lazarus control plane's key).
	ControllerKey ed25519.PublicKey
	// BatchDelay is the fallback proposal tick (default 2ms). The
	// primary proposes eagerly as requests arrive; the tick only sweeps
	// up requests left pending by a full pipeline or window.
	BatchDelay time.Duration
	// CheckpointInterval is K, the period of checkpoints (default 128).
	// The log window is 2K.
	CheckpointInterval uint64
	// ViewChangeTimeout is the request-progress timer (default 300ms):
	// every arming of the timer waits exactly this long. Set it for the
	// network the group runs on; a WAN deployment needs several of its
	// round trips (the geo3 tests and chaos runs use 1.2s).
	ViewChangeTimeout time.Duration
	// Joining marks a replica that starts outside the group and must
	// state-transfer in after a reconfiguration adds it.
	Joining bool
	// Logf receives debug logging (nil = discard).
	Logf func(format string, args ...any)
	// Metrics optionally registers the replica's instruments (commit
	// latency, batch occupancy, per-phase message counts, ...) under
	// "bft.*". Replicas sharing a registry aggregate.
	Metrics *metrics.Registry
}

func (c *ReplicaConfig) fill() error {
	switch {
	case c.Membership == nil:
		return fmt.Errorf("bft: replica %d: nil membership", c.ID)
	case c.App == nil:
		return fmt.Errorf("bft: replica %d: nil application", c.ID)
	case c.Net == nil:
		return fmt.Errorf("bft: replica %d: nil network", c.ID)
	case len(c.Key) != ed25519.PrivateKeySize:
		return fmt.Errorf("bft: replica %d: bad private key", c.ID)
	case !c.Joining && !c.Membership.Contains(c.ID):
		return fmt.Errorf("bft: replica %d not in initial membership", c.ID)
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 128
	}
	if c.ViewChangeTimeout <= 0 {
		c.ViewChangeTimeout = 300 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// instance is the per-sequence-number agreement state. Prepare and
// commit votes record the digest each sender voted for: votes can arrive
// before the pre-prepare fixes the instance's digest, and tallying
// buffered votes without their digests would let votes for different
// proposals count toward one quorum.
type instance struct {
	prePrepare *Message
	batch      *Batch
	digest     Digest
	prepares   map[transport.NodeID]Digest
	commits    map[transport.NodeID]Digest
	// prepareMsgs keeps the signed prepare messages matching the
	// instance's digest: together with the signed pre-prepare they form
	// the prepared certificate carried in view changes.
	prepareMsgs map[transport.NodeID]*Message
	// cert is the prepared certificate snapshotted the moment the
	// prepared predicate fired (see preparedCert): a later new-view
	// re-proposal rebinds prePrepare to a newer view, but the signed
	// prepares on hand prove preparedness in the view they were cast.
	cert *PreparedProof
	// gate holds back the prepares whose verification cannot change what
	// this replica does (see verify.go).
	gate prepareGate
	// prepareViews records, per member, the view of the last prepare of
	// its that reached this instance, so the catch-up responder can tell a
	// late sender's first prepare from a stuck one's repeat
	// (dispatchPrepare).
	prepareViews map[transport.NodeID]uint64
	prepared     bool
	committed    bool
	executed     bool
	// startedAt stamps pre-prepare acceptance; execution observes the
	// difference as this instance's commit latency.
	startedAt time.Time
}

// clientRecord deduplicates client requests and caches the last reply.
type clientRecord struct {
	lastSeq   uint64
	lastReply *Message
}

// checkpointState tracks checkpoint votes at one sequence number.
type checkpointState struct {
	votes    map[transport.NodeID]Digest
	snapshot *frozenState // set on the replica's own checkpoint
	stable   bool
	split    bool // no digest can reach a quorum (noteSplit)
}

// Replica is one BFT state machine replica. Create with NewReplica, start
// with Start, stop with Stop. All protocol state is confined to the event
// loop goroutine.
type Replica struct {
	cfg ReplicaConfig
	ep  transport.Endpoint
	// app is cfg.App, behind snapshotCheckpointer if it is not a
	// Checkpointer itself: the replica has one checkpoint path.
	app Checkpointer
	// querier is cfg.App if it answers reads unordered, else nil.
	querier Querier

	// Event-loop state (no locking; single goroutine).
	membership *Membership
	view       uint64
	seq        uint64 // next sequence number to assign (primary)
	lowWater   uint64
	lastExec   uint64
	// commitMark is the highest sequence number this replica sent a
	// COMMIT for in its current epoch; a read waits until lastExec reaches
	// it (read.go).
	commitMark uint64
	// reads are the reads waiting for lastExec to reach their mark, at
	// most one per client, in arrival order.
	reads      []parkedRead
	log        map[uint64]*instance
	clients    map[transport.NodeID]*clientRecord
	pending    []Request
	pendingSet map[Digest]bool
	ckpts      map[uint64]*checkpointState
	// ckptAhead records, per member, the latest beyond-window checkpoint
	// SeqNo it claimed. Bounded by membership size — unlike keying ckpts
	// on attacker-chosen SeqNos — and f+1 distinct claims prove the group
	// moved past our window (see onCheckpoint).
	ckptAhead map[transport.NodeID]uint64
	lastSnap  *frozenState // state at lowWater, for state transfer
	// stableSeen is the highest checkpoint this replica learnt is stable in
	// the group. While it is ahead of lastExec the replica is behind, not
	// lost: its log may still get it there, and only a progress timeout
	// says otherwise (see checkStable, onProgressTimeout).
	stableSeen uint64
	// lastCkptVote is this replica's newest signed checkpoint vote. It
	// survives checkpoint garbage collection so a straggler whose quorum
	// votes were lost in transit can be answered long after the fact —
	// without it, a replica stuck one stability round behind can exhaust
	// its proposal window and wedge permanently (see onCheckpoint).
	lastCkptVote *Message
	// ckptDue defers a reconfiguration's checkpoint to the end of the
	// executing batch. applyReconfig runs mid-request: snapshotting there
	// would exclude the reconfig request's own reply record (written by
	// executeRequest after applyReconfig returns), producing a digest no
	// interval checkpoint at the same seq could ever match.
	ckptDue bool
	joining bool

	// View change state.
	viewChanges  map[uint64]map[transport.NodeID]*Message
	inViewChange bool
	vcTarget     uint64 // highest view this replica volunteered for
	vcTimer      *time.Timer
	vcArmed      bool

	// State transfer state.
	stReplies  map[transport.NodeID]*Message
	epochProbe uint64 // highest epoch a state transfer was triggered for
	// epochClaims records, per member, the highest future epoch it
	// claimed; f+1 distinct claimants are needed before state transfer
	// is triggered (see noteEpochClaim).
	epochClaims map[transport.NodeID]uint64

	// Request authentication (see verify.go). verified is loop-owned;
	// verifyJobs feeds the worker pool and is nil until Start. pooledReqs
	// counts, by digest, the REQUESTs at the pool (loop-owned).
	verified   *verdictCache
	verifyJobs chan *Message
	pooledReqs map[Digest]int

	// replyKeys seal replies, by the public key that authenticated the
	// request (a ClientKeys entry or ControllerKey), each derived on its
	// first reply. Loop-owned; bounded by the configured keys, since only
	// authenticated requests execute.
	replyKeys map[string]*replyKey

	// Lifecycle.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	inbox  chan *Message

	// Observability (mutex-guarded; read from outside the loop).
	statMu    sync.Mutex
	stats     ReplicaStats
	execTrace []ExecRecord
	ins       replicaInstruments
}

// ExecRecord pairs an executed sequence number with the digest of the
// batch executed there, plus the epoch and view the replica held at
// execution time. The Byzantine chaos harness cross-checks the traces
// of honest replicas pairwise: two honest replicas must never execute
// different batches at the same sequence number — and when they do, the
// epoch/view context says which fork each side was on.
type ExecRecord struct {
	Seq    uint64
	Digest Digest
	Epoch  uint64
	View   uint64
}

// execTraceCap bounds the in-memory execution trace.
const execTraceCap = 8192

// ExecTrace returns a copy of the replica's bounded execution trace
// (most recent execTraceCap entries, oldest first).
func (r *Replica) ExecTrace() []ExecRecord {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return append([]ExecRecord(nil), r.execTrace...)
}

func (r *Replica) recordExec(seq uint64, digest Digest) {
	r.statMu.Lock()
	r.execTrace = append(r.execTrace, ExecRecord{
		Seq: seq, Digest: digest,
		Epoch: r.membership.Epoch, View: r.view,
	})
	if len(r.execTrace) > execTraceCap {
		r.execTrace = r.execTrace[len(r.execTrace)-execTraceCap:]
	}
	r.statMu.Unlock()
}

// ReplicaStats exposes coarse counters for tests and monitoring.
type ReplicaStats struct {
	Executed        uint64
	Checkpoints     uint64
	ViewChanges     uint64
	StateTransfers  uint64
	Reconfigs       uint64
	CurrentView     uint64
	CurrentEpoch    uint64
	LastExecuted    uint64
	MembershipSize  int
	PendingRequests int
	// LowWater and SeqHead bound the proposal window: proposals stop
	// when SeqHead reaches LowWater plus the window, so a stuck LowWater
	// (checkpoint that never stabilizes) is a liveness smoking gun.
	LowWater uint64
	SeqHead  uint64
	// LogInstances and CheckpointStates size the in-memory protocol
	// state; checkpoint garbage collection must keep both bounded.
	LogInstances     int
	CheckpointStates int
}

// NewReplica validates the configuration and builds a replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ep, err := cfg.Net.Endpoint(cfg.ID)
	if err != nil {
		return nil, fmt.Errorf("bft: replica %d endpoint: %w", cfg.ID, err)
	}
	app, ok := cfg.App.(Checkpointer)
	if !ok {
		app = snapshotCheckpointer{cfg.App}
	}
	querier, _ := cfg.App.(Querier)
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		cfg:         cfg,
		ep:          ep,
		app:         app,
		querier:     querier,
		membership:  cfg.Membership.Clone(),
		log:         make(map[uint64]*instance),
		clients:     make(map[transport.NodeID]*clientRecord),
		pendingSet:  make(map[Digest]bool),
		ckpts:       make(map[uint64]*checkpointState),
		ckptAhead:   make(map[transport.NodeID]uint64),
		viewChanges: make(map[uint64]map[transport.NodeID]*Message),
		stReplies:   make(map[transport.NodeID]*Message),
		epochClaims: make(map[transport.NodeID]uint64),
		joining:     cfg.Joining,
		verified:    newVerdictCache(4096),
		pooledReqs:  make(map[Digest]int),
		replyKeys:   make(map[string]*replyKey),
		ctx:         ctx,
		cancel:      cancel,
		inbox:       make(chan *Message, 1024),
		ins:         newReplicaInstruments(cfg.Metrics),
	}
	r.vcTimer = time.NewTimer(time.Hour)
	if !r.vcTimer.Stop() {
		<-r.vcTimer.C
	}
	return r, nil
}

// ID returns the replica's node id.
func (r *Replica) ID() transport.NodeID { return r.cfg.ID }

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.stats
}

func (r *Replica) updateStats(f func(*ReplicaStats)) {
	r.statMu.Lock()
	f(&r.stats)
	r.stats.CurrentView = r.view
	r.stats.CurrentEpoch = r.membership.Epoch
	r.stats.LastExecuted = r.lastExec
	r.stats.MembershipSize = r.membership.N()
	r.stats.PendingRequests = len(r.pending)
	r.stats.LogInstances = len(r.log)
	r.stats.CheckpointStates = len(r.ckpts)
	r.stats.LowWater = r.lowWater
	r.stats.SeqHead = r.seq
	r.statMu.Unlock()
}

// Start launches the receive pump, the verify pool and the event loop.
func (r *Replica) Start() {
	r.verifyJobs = make(chan *Message, 4*verifyWorkers)
	r.wg.Add(verifyWorkers)
	for i := 0; i < verifyWorkers; i++ {
		go r.verifyWorker()
	}
	r.wg.Add(2)
	go r.pump()
	go r.loop()
}

// Stop terminates the replica and waits for its goroutines, then gives
// the application its checkpoint handles back (the loop that owned them
// is gone).
func (r *Replica) Stop() {
	r.cancel()
	r.ep.Close()
	r.wg.Wait()
	for _, cs := range r.ckpts {
		cs.snapshot.release()
	}
	r.lastSnap.release()
}

// pump moves envelopes from the transport into the event loop.
func (r *Replica) pump() {
	defer r.wg.Done()
	for {
		env, err := r.ep.Recv(r.ctx)
		if err != nil {
			return
		}
		msg, err := Decode(env.Payload)
		if err != nil {
			r.cfg.Logf("replica %d: dropping undecodable message from %d: %v", r.cfg.ID, env.From, err)
			continue
		}
		// The transport authenticates the envelope sender; the envelope
		// origin overrides whatever the payload claims.
		msg.From = env.From
		select {
		case r.inbox <- msg:
		case <-r.ctx.Done():
			return
		}
	}
}

// loop is the single-threaded protocol engine.
func (r *Replica) loop() {
	defer r.wg.Done()
	if r.joining {
		// A joining replica bootstraps by asking the group for state.
		// The request arms the progress timer, which only the loop may
		// touch.
		r.requestStateTransfer(transferJoin)
	}
	batchTicker := time.NewTicker(r.cfg.BatchDelay)
	defer batchTicker.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case msg := <-r.inbox:
			r.dispatch(msg)
		case <-batchTicker.C:
			r.proposeAll()
		case <-r.vcTimer.C:
			r.vcArmed = false
			r.onProgressTimeout()
		}
	}
}

func (r *Replica) dispatch(msg *Message) {
	// Epoch-gap detection: the ordering handlers silently drop messages
	// from other epochs, so without this a replica that missed a
	// reconfiguration would never learn it is behind — the group splits
	// into epoch camps that cannot hear each other and, if neither camp
	// is a quorum, wedges forever. A member claiming a higher epoch
	// registers a claim; f+1 distinct claimants trigger state transfer
	// (see noteEpochClaim).
	if msg.Epoch > r.membership.Epoch && r.membership.Contains(msg.From) {
		r.noteEpochClaim(msg.From, msg.Epoch)
	}
	if msg.Type >= MsgRequest && msg.Type <= MsgCatchUp {
		r.ins.msgIn[msg.Type].Inc()
	}
	switch msg.Type {
	case MsgRequest:
		if r.fastRead(msg) {
			r.onRead(msg)
			return
		}
		landed := msg.pooled
		if !r.ensureAuth(msg) {
			return // offloaded; re-enters the inbox with verdicts
		}
		r.onRequest(msg)
		if landed {
			r.requestLanded(msg)
		}
	case MsgPrePrepare:
		r.dispatchPrePrepare(msg)
	case MsgPrepare:
		r.dispatchPrepare(msg)
	case MsgCommit:
		r.onCommit(msg)
	case MsgCheckpoint:
		r.onCheckpoint(msg)
	case MsgViewChange:
		r.onViewChange(msg)
	case MsgNewView:
		r.onNewView(msg)
	case MsgStateRequest:
		r.onStateRequest(msg)
	case MsgStateReply:
		r.onStateReply(msg)
	case MsgCatchUp:
		r.onCatchUp(msg)
	default:
		r.cfg.Logf("replica %d: unknown message type %v from %d", r.cfg.ID, msg.Type, msg.From)
	}
}

// dispatchPrePrepare routes a pre-prepare: inbound, or back from the
// verify pool.
func (r *Replica) dispatchPrePrepare(msg *Message) {
	// Cheap structural checks first, so signature work is never spent on
	// proposals that cannot be accepted anyway.
	if !r.prePrepareAdmissible(msg) {
		return
	}
	// A batch whose requests are all in the verdict cache resolves here,
	// on the loop: the proposal itself has no signature to verify.
	if !r.ensureAuth(msg) {
		return // offloaded; it comes back with verdicts
	}
	r.onPrePrepare(msg)
	// The proposal fixed the digest: votes verified for another no longer
	// count, and a parked one may be needed in their place.
	r.refillPrepares(msg.SeqNo)
}

// send serializes and sends one message.
func (r *Replica) send(to transport.NodeID, msg *Message) {
	msg.From = r.cfg.ID
	payload, err := Encode(msg)
	if err != nil {
		r.cfg.Logf("replica %d: encode: %v", r.cfg.ID, err)
		return
	}
	if err := r.ep.Send(to, payload); err != nil {
		r.cfg.Logf("replica %d: send to %d: %v", r.cfg.ID, to, err)
	}
}

// broadcast sends to every current member (except self), encoding the
// message once: per-peer re-encoding is pure waste (the pre-prepare's
// batch alone can be kilobytes), and no peer mutates the shared payload.
func (r *Replica) broadcast(msg *Message) {
	msg.From = r.cfg.ID
	payload, err := Encode(msg)
	if err != nil {
		r.cfg.Logf("replica %d: encode: %v", r.cfg.ID, err)
		return
	}
	for _, id := range r.membership.Replicas {
		if id != r.cfg.ID {
			if err := r.ep.Send(id, payload); err != nil {
				r.cfg.Logf("replica %d: send to %d: %v", r.cfg.ID, id, err)
			}
		}
	}
}

// primary reports whether this replica leads the current view.
func (r *Replica) primary() bool {
	return r.membership.Primary(r.view) == r.cfg.ID
}

// window is L, the log window above the low watermark: two checkpoint
// intervals.
func (r *Replica) window() uint64 { return 2 * r.cfg.CheckpointInterval }

// inWindow checks the watermarks.
func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.lowWater && seq <= r.lowWater+r.window()
}

// inst returns (creating if needed) the agreement state for seq.
func (r *Replica) inst(seq uint64) *instance {
	in, ok := r.log[seq]
	if !ok {
		in = &instance{
			prepares:    make(map[transport.NodeID]Digest),
			commits:     make(map[transport.NodeID]Digest),
			prepareMsgs: make(map[transport.NodeID]*Message),
		}
		r.log[seq] = in //lazlint:allow unbounded-remote-map(every remote-derived path here is window-bounded: the message handlers gate on inWindow before calling inst, and acceptPrePrepare's other caller installNewView only replays a verified NEW-VIEW proposal set of at most one window)
	}
	return in
}

// noteEpochClaim records a member's claim of a higher epoch and triggers
// epoch state transfer once f+1 distinct members agree we are behind.
// A single claimant must never be believed: messages reaching dispatch
// are not yet signature-checked, and even an authenticated claim from one
// Byzantine member could otherwise pin epochProbe at a huge value and
// keep the replica in perpetual state-transfer noise. f+1 distinct
// claimants guarantee at least one honest replica really is ahead; the
// smallest claimed epoch is the conservatively proven target.
func (r *Replica) noteEpochClaim(from transport.NodeID, epoch uint64) {
	if prev := r.epochClaims[from]; epoch > prev {
		r.epochClaims[from] = epoch
	}
	count := 0
	var minClaim uint64
	for id, e := range r.epochClaims {
		if e > r.membership.Epoch && r.membership.Contains(id) {
			count++
			if minClaim == 0 || e < minClaim {
				minClaim = e
			}
		}
	}
	if count >= r.membership.F()+1 {
		r.maybeEpochSync(minClaim)
	}
}

// fromMember checks the sender is a current group member.
func (r *Replica) fromMember(msg *Message) bool {
	return r.membership.Contains(msg.From)
}

// verifySigned checks a signed message's replica signature against the
// CURRENT membership only. Boot-configuration keys deliberately do NOT
// count: a replica is removed from the membership precisely because it is
// suspected compromised, and accepting its signature on a state reply
// would hand the adversary one of the f+1 vouchers it needs to feed us
// fabricated state (one removed-but-boot member plus one compromised
// current member beats f=1). A joining replica's current membership IS the
// boot configuration until its first restore, so bootstrap is unaffected.
func (r *Replica) verifySigned(msg *Message) bool {
	pub, ok := r.membership.Keys[msg.From]
	if !ok {
		return false
	}
	return msg.VerifySig(pub)
}
