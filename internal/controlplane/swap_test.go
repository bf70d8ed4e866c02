package controlplane

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/netem"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

// TestCatchUpTimeoutRollsBack is the regression test for the staged swap
// engine's compensation path: the joiner boots but can never catch up
// (its links to every member are cut), so the catch-up stage times out.
// The engine must order a compensating REMOVE of the joiner, retire its
// node, restore the monitor's lifecycle sets, and leave the group at
// exactly n members — no powered-on orphan, no stray membership entry.
// On the pre-compensation engine this leaked both.
func TestCatchUpTimeoutRollsBack(t *testing.T) {
	start := time.Now()
	base := day(2018, 1, 16)
	clock := func() time.Time { return base.Add(time.Since(start)) }

	net := netem.Wrap(transport.NewMemory(transport.MemoryConfig{Seed: 1}), netem.Config{})
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientID := transport.ClientIDBase + transport.NodeID(1)
	ctrl, err := New(Config{
		N:            4,
		Seed:         7,
		Clock:        clock,
		InitialVulns: smallCorpus(t),
		Net:          net,
		App:          func() bft.Application { return kvs.New() },
		ClientKeys:   map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		LTUSecret:    []byte("test-ltu-secret"),
		ReplicaTuning: func(cfg *bft.ReplicaConfig) {
			cfg.CheckpointInterval = 8
			cfg.ViewChangeTimeout = 200 * time.Millisecond
			cfg.BatchDelay = time.Millisecond
		},
		CatchUpTimeout:   time.Second,
		SwapStageTimeout: 3 * time.Second,
		SwapAttempts:     2,
		SwapBackoff:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctrl.Stop()
		net.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	cl, err := ctrl.ServiceClient(clientID, clientPriv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	putOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "pre", Value: []byte("swap")})
	if _, err := cl.Invoke(ctx, putOp); err != nil {
		t.Fatalf("preload: %v", err)
	}

	// Bootstrap used nodes 0..3; the swap engine will mint node 4 for the
	// joiner. Cut its future links to every member so it can never catch
	// up. (A partition names ids, so it holds before node 4's endpoint
	// exists.)
	net.Apply(netem.IsolateNode([]transport.NodeID{0, 1, 2, 3}, 4))

	before := ctrl.Status()
	bombOSes := make([]string, 3)
	copy(bombOSes, before.Config[:3])
	var products []string
	for _, id := range bombOSes {
		os, err := catalog.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		products = append(products, os.CPEProduct)
	}
	now := clock()
	bomb := &osint.Vulnerability{
		ID:          "CVE-2018-99002",
		Description: "Remote code execution in the shared virtio network driver allows full host compromise via crafted descriptors.",
		Products:    products,
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
	if err := ctrl.RefreshIntel(ctx, bomb); err != nil {
		t.Fatal(err)
	}

	if _, err := ctrl.MonitorRound(ctx); err == nil {
		t.Fatal("MonitorRound succeeded although the joiner could not catch up")
	}

	st := ctrl.SwapStats()
	if st.Attempts != 1 || st.Rollbacks != 1 || st.RollbackFailures != 0 {
		t.Errorf("stats = %+v, want 1 attempt, 1 rollback, 0 failures", st)
	}
	if st.StageFailures[StageCatchUp] == 0 {
		t.Errorf("stage failures %v do not blame catch-up", st.StageFailures)
	}
	hist := ctrl.SwapHistory()
	if len(hist) != 1 || hist[0].Outcome != SwapRolledBack ||
		hist[0].FailedStage != StageCatchUp || hist[0].Err == "" {
		t.Errorf("history = %+v", hist)
	}

	// The joiner must not linger: not in the membership, not tracked, not
	// powered on. The removed OS is back in the configuration.
	after := ctrl.Status()
	if len(after.Config) != 4 || len(after.Members) != 4 {
		t.Fatalf("after rollback: config %v members %v", after.Config, after.Members)
	}
	if !sameStrings(after.Config, before.Config) {
		t.Errorf("config %v, want pre-swap %v", after.Config, before.Config)
	}
	for _, id := range after.Members {
		if id == 4 {
			t.Error("joiner node 4 still in membership")
		}
	}
	census := ctrl.Census()
	if len(census.Orphans) != 0 {
		t.Errorf("orphan nodes leaked: %v", census.Orphans)
	}
	if census.Tracked != 4 {
		t.Errorf("tracked nodes = %d, want 4", census.Tracked)
	}
	if len(after.Quarantine) != 0 {
		t.Errorf("quarantine = %v after rollback, want empty", after.Quarantine)
	}

	// The group still serves reads and writes.
	getOp, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: "pre"})
	res, err := cl.Invoke(ctx, getOp)
	if err != nil || string(res) != "VALswap" {
		t.Fatalf("post-rollback read = %q, %v", res, err)
	}

	// The next round mints a fresh joiner (node 5, fully connected) and
	// the swap goes through: the rollback left the control plane healthy.
	d, err := ctrl.MonitorRound(ctx)
	if err != nil {
		t.Fatalf("MonitorRound after rollback: %v", err)
	}
	if !d.Reconfigured {
		t.Fatal("no reconfiguration on retry round")
	}
	st = ctrl.SwapStats()
	if st.Successes != 1 || st.Rollbacks != 1 {
		t.Errorf("stats after retry = %+v", st)
	}
	final := ctrl.Status()
	if len(final.Config) != 4 || len(final.Members) != 4 {
		t.Errorf("final config %v members %v", final.Config, final.Members)
	}
	if len(final.Quarantine) != 1 || final.Quarantine[0] != d.Removed.ID {
		t.Errorf("quarantine = %v, want [%s]", final.Quarantine, d.Removed.ID)
	}
}

// TestParseReconfigResultMalformed is the regression test for the old
// log-string scrape: `fmt.Sscanf(s, "reconfig ok: epoch %d", &epoch)`
// ignored its error, so a malformed reply parsed as "applied at epoch 0".
// The structured decoder must refuse such replies outright — and a refusal
// is an error, never a verdict.
func TestParseReconfigResultMalformed(t *testing.T) {
	malformed := [][]byte{
		nil,
		[]byte("reconfig ok: epoch banana"), // old scrape read epoch 0 out of this
		[]byte("reconfig ok"),
		[]byte("reconfig error: bad public key"),
		[]byte("\x00BFT-RECONFIG-RESULT\x00{\"status\":"), // truncated payload
		[]byte("arbitrary app reply"),
	}
	for _, reply := range malformed {
		if v, ep, err := parseReconfigResult(reply); err == nil {
			t.Errorf("parseReconfigResult(%q) = (%v, %d, nil), want error", reply, v, ep)
		}
	}

	valid := []struct {
		reply   []byte
		verdict reconfigResult
		epoch   uint64
	}{
		{bft.ReconfigResult{Status: bft.ReconfigApplied, Epoch: 9}.Encode(), reconfigApplied, 9},
		{bft.ReconfigResult{Status: bft.ReconfigAlreadyMember}.Encode(), reconfigAlreadyDone, 0},
		{bft.ReconfigResult{Status: bft.ReconfigNotMember}.Encode(), reconfigAlreadyDone, 0},
		{bft.ReconfigResult{Status: bft.ReconfigTooSmall}.Encode(), reconfigTooSmall, 0},
		{bft.ReconfigResult{Status: bft.ReconfigInvalid, Detail: "bad public key"}.Encode(), reconfigRejected, 0},
	}
	for _, tc := range valid {
		v, ep, err := parseReconfigResult(tc.reply)
		if err != nil || v != tc.verdict || ep != tc.epoch {
			t.Errorf("parseReconfigResult(%q) = (%v, %d, %v), want (%v, %d, nil)",
				tc.reply, v, ep, err, tc.verdict, tc.epoch)
		}
	}
}

func sameStrings(a, b []string) bool {
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

// TestAttemptStageAbandonBlocksLateSettle is the regression test for the
// timed-out-attempt race: a stage goroutine that outlives its attempt
// timeout must not be able to publish a verdict afterwards — the
// controller has already moved on to a retry or to compensation, and a
// late write (e.g. orderAdd clearing addUncertain) would race with and
// corrupt the compensation decision.
func TestAttemptStageAbandonBlocksLateSettle(t *testing.T) {
	release := make(chan struct{})
	settled := make(chan bool, 1)
	err := attemptStage(context.Background(), 10*time.Millisecond, func(ctx context.Context, att *stageAttempt) error {
		<-release // ignore the context: outlive the timeout on purpose
		settled <- att.settle(func() {})
		return nil
	})
	if err == nil {
		t.Fatal("attemptStage returned nil, want timeout error")
	}
	close(release) // attemptStage has returned, so the attempt is abandoned
	if <-settled {
		t.Fatal("abandoned attempt settled its verdict after the timeout")
	}
}

// TestAttemptStageLiveSettle: an attempt that finishes within its budget
// publishes normally.
func TestAttemptStageLiveSettle(t *testing.T) {
	published := false
	err := attemptStage(context.Background(), time.Second, func(ctx context.Context, att *stageAttempt) error {
		if !att.settle(func() { published = true }) {
			t.Error("live attempt reported abandoned")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("attemptStage: %v", err)
	}
	if !published {
		t.Fatal("live attempt's publish did not run")
	}
}

// TestSettleEpochBoundedInRealTime: settleEpoch's deadline runs on the
// injected clock, which a test may freeze. With the clock frozen and the
// members held below the epoch the controller waits for, only the wait's
// real-time bound (SwapStageTimeout) can end it; without that bound it
// lasted until the caller's context died.
func TestSettleEpochBoundedInRealTime(t *testing.T) {
	now := day(2018, 1, 15)
	ctrl, _, _ := testController(t, smallCorpus(t), func() time.Time { return now })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	ctrl.cfg.SwapStageTimeout = 200 * time.Millisecond
	ahead := ctrl.Membership()
	ahead.Epoch++ // no member will ever reach it
	ctrl.membership.Store(ahead)

	wait, cancelWait := context.WithTimeout(ctx, 20*time.Second)
	defer cancelWait()
	start := time.Now()
	ctrl.settleEpoch(wait)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("settleEpoch waited %v on a frozen clock, want about the %v stage timeout", took, ctrl.cfg.SwapStageTimeout)
	}
}

// TestFailedCompensationResumesNextRound: a swap whose compensation
// fails stays open, leaving the group at n = 3f+2, and the next monitor
// round resumes it before running Algorithm 1. The joiner cannot catch
// up (its links are cut), and the controller's client is cut off while
// the compensating REMOVE runs, so the compensation fails too. Once the
// client is back, the next round rolls the swap back and completes a
// fresh replacement.
func TestFailedCompensationResumesNextRound(t *testing.T) {
	start := time.Now()
	base := day(2018, 1, 16)
	rig := newRestartRig(t, smallCorpus(t), func() time.Time { return base.Add(time.Since(start)) })
	ctrl := rig.ctrl
	ctrl.cfg.CatchUpTimeout, ctrl.cfg.SwapStageTimeout = time.Second, time.Second
	ctrl.cfg.SwapAttempts, ctrl.cfg.SwapBackoff = 2, 10*time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	rig.serviceWrite(ctx, "preload", ctrl.Membership())
	rig.net.Apply(netem.IsolateNode([]transport.NodeID{0, 1, 2, 3}, 4)) // the first joiner never catches up
	if err := ctrl.RefreshIntel(ctx, sharedBomb(t, ctrl, "CVE-2018-99003", base)); err != nil {
		t.Fatal(err)
	}
	controlClient := transport.ClientIDBase + 9999
	cutOff := netem.IsolateNode([]transport.NodeID{0, 1, 2, 3, 4}, controlClient)
	var cut sync.Once
	ctrl.ScheduleCrash(func(rec WALRecord) bool {
		if rec.Kind == WALStageIntent && rec.Compensating {
			cut.Do(func() { rig.net.Apply(cutOff) })
		}
		return false
	})

	if _, err := ctrl.MonitorRound(ctx); err == nil {
		t.Fatal("round succeeded although the swap and its compensation failed")
	}
	if st := ctrl.SwapStats(); st.Attempts != 1 || st.RollbackFailures != 1 || st.Rollbacks+st.Successes != 0 {
		t.Errorf("stats with the swap open = %+v, want 1 attempt, 1 rollback failure", st)
	}
	if len(ctrl.SwapHistory()) != 0 {
		t.Errorf("history %+v, want the open swap unrecorded", ctrl.SwapHistory())
	}
	if len(ctrl.Invariants()) == 0 {
		t.Error("no invariant flags the open swap")
	}

	ctrl.ScheduleCrash(nil)
	rig.net.Revert(cutOff)
	d, err := ctrl.MonitorRound(ctx)
	if err != nil {
		t.Fatalf("round after the failed compensation: %v", err)
	}
	if !d.Reconfigured {
		t.Error("the round after the resumed swap did not reconfigure")
	}
	for _, v := range ctrl.Invariants() {
		t.Errorf("invariant violation after the resumed round: %s", v)
	}
	var outcomes []SwapOutcome
	for _, rec := range ctrl.SwapHistory() {
		outcomes = append(outcomes, rec.Outcome)
	}
	if fmt.Sprint(outcomes) != fmt.Sprint([]SwapOutcome{SwapRolledBack, SwapSucceeded}) {
		t.Errorf("history outcomes %v, want the resumed swap rolled back, then a success", outcomes)
	}
	rig.serviceWrite(ctx, "after", ctrl.Membership())
}
