package bft

import (
	"strings"

	"lazarus/internal/metrics"
)

// replicaInstruments bundles the registry-backed instruments a replica
// updates on its hot paths. All replicas sharing a registry share these
// instruments, giving a cluster-level view; per-replica figures come from
// Replica.Stats or a registry per replica. Built from a nil registry the
// instruments still work, they are just unregistered.
type replicaInstruments struct {
	// commitLatencyUS measures propose→execute per consensus instance.
	commitLatencyUS *metrics.Histogram
	// batchOccupancy measures requests per proposed batch.
	batchOccupancy *metrics.Histogram
	// ckptStabilityLag measures how far execution ran past a checkpoint
	// by the time it stabilized (sequence numbers).
	ckptStabilityLag *metrics.Histogram
	// pipelineInflight samples, at each proposal, how many consensus
	// instances are in flight (proposed but not yet executed).
	pipelineInflight *metrics.Histogram
	// checkpointUS measures what taking a checkpoint holds the event loop
	// for: the application's Checkpoint plus the state digest.
	checkpointUS *metrics.Histogram

	executedBatches *metrics.Counter
	checkpoints     *metrics.Counter
	viewChanges     *metrics.Counter
	stateTransfers  *metrics.Counter
	reconfigs       *metrics.Counter

	// checkpointSplits counts checkpoints whose votes rule out a quorum
	// for every digest, once per seq (noteSplit).
	checkpointSplits *metrics.Counter

	// transferReason counts state requests by cause (transferReasons);
	// snapshotsSerialised counts the times a frozen state was turned into
	// bytes for a peer.
	transferReason      map[string]*metrics.Counter
	snapshotsSerialised *metrics.Counter

	// verifyOps counts ed25519 verifications actually performed: client
	// signatures on requests, and replica signatures on the prepares that
	// went through the dispatch path. verifyCacheHits counts requests the
	// verdict cache resolved: every cached request, including the cached
	// part of a batch that is otherwise verified.
	// requestMACs counts REQUESTs a backup accepted on its MAC; they are
	// neither verifications nor cache hits. verifyOffloaded counts messages
	// handed to the verify pool rather than verified inline on the event
	// loop.
	verifyOps       *metrics.Counter
	verifyCacheHits *metrics.Counter
	requestMACs     *metrics.Counter
	verifyOffloaded *metrics.Counter
	// votesUnverified counts prepares the gate parked or dropped without
	// verifying them; voteRefills counts parked ones verified later because
	// an earlier verification failed or came back for another digest. Their
	// difference is the prepares never verified.
	votesUnverified *metrics.Counter
	voteRefills     *metrics.Counter

	// reads counts the read-only requests answered, or parked to be,
	// without ordering them (read.go).
	reads *metrics.Counter

	// progressTimeouts counts unproductive progress-timer firings;
	// retransmitVotes counts stuck instances whose votes the timeout
	// re-broadcast; requestForwards counts pending requests re-forwarded
	// to the primary.
	progressTimeouts *metrics.Counter
	retransmitVotes  *metrics.Counter
	requestForwards  *metrics.Counter

	// msgIn counts inbound protocol messages per type, indexed by MsgType.
	msgIn [MsgCatchUp + 1]*metrics.Counter
}

func newReplicaInstruments(reg *metrics.Registry) replicaInstruments {
	ri := replicaInstruments{
		commitLatencyUS:  reg.Histogram("bft.commit_latency_us"),
		batchOccupancy:   reg.Histogram("bft.batch_occupancy"),
		ckptStabilityLag: reg.Histogram("bft.checkpoint_stability_lag"),
		pipelineInflight: reg.Histogram("bft.pipeline_inflight"),
		checkpointUS:     reg.Histogram("bft.checkpoint_us"),
		executedBatches:  reg.Counter("bft.executed_batches"),
		checkpoints:      reg.Counter("bft.checkpoints"),
		checkpointSplits: reg.Counter("bft.checkpoint_splits"),
		viewChanges:      reg.Counter("bft.view_changes"),
		stateTransfers:   reg.Counter("bft.state_transfers"),
		reconfigs:        reg.Counter("bft.reconfigs"),
		verifyOps:        reg.Counter("bft.verify_ops"),
		verifyCacheHits:  reg.Counter("bft.verify_cache_hits"),
		requestMACs:      reg.Counter("bft.request_macs"),
		verifyOffloaded:  reg.Counter("bft.verify_offloaded"),
		votesUnverified:  reg.Counter("bft.votes_unverified"),
		voteRefills:      reg.Counter("bft.vote_refills"),
		reads:            reg.Counter("bft.reads"),
		progressTimeouts: reg.Counter("bft.progress_timeouts"),
		retransmitVotes:  reg.Counter("bft.retransmit_votes"),
		requestForwards:  reg.Counter("bft.request_forwards"),

		transferReason:      make(map[string]*metrics.Counter, len(transferReasons)),
		snapshotsSerialised: reg.Counter("bft.snapshots_serialised"),
	}
	for _, reason := range transferReasons {
		ri.transferReason[reason] = reg.Counter("bft.state_transfer_reason." + reason)
	}
	for t := MsgRequest; t <= MsgCatchUp; t++ {
		ri.msgIn[t] = reg.Counter("bft.msg_in." + strings.ToLower(t.String()))
	}
	return ri
}
