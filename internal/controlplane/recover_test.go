package controlplane

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/netem"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

// restartRig is a controller whose WAL and config are kept at hand so a
// test can crash it and Recover a successor over the same plant.
type restartRig struct {
	t          *testing.T
	cfg        Config
	net        *netem.Network
	ctrl       *Controller
	clientID   transport.NodeID
	clientPriv ed25519.PrivateKey
	cl         *bft.Client // lazily-built probe client (replicas dedupe by per-client seq, so one client spans the whole test)
}

func newRestartRig(t *testing.T, vulns []*osint.Vulnerability, clock func() time.Time) *restartRig {
	t.Helper()
	net := netem.Wrap(transport.NewMemory(transport.MemoryConfig{Seed: 1}), netem.Config{})
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientID := transport.ClientIDBase + transport.NodeID(1)
	cfg := Config{
		N:            4,
		Seed:         7,
		Clock:        clock,
		InitialVulns: vulns,
		Net:          net,
		App:          func() bft.Application { return kvs.New() },
		ClientKeys:   map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		LTUSecret:    []byte("test-ltu-secret"),
		ReplicaTuning: func(rc *bft.ReplicaConfig) {
			rc.CheckpointInterval = 8
			rc.ViewChangeTimeout = 200 * time.Millisecond
			rc.BatchDelay = time.Millisecond
		},
		CatchUpTimeout: 20 * time.Second,
		WAL:            NewMemWAL(),
		Logf:           t.Logf,
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := &restartRig{t: t, cfg: cfg, net: net, ctrl: ctrl, clientID: clientID, clientPriv: clientPriv}
	t.Cleanup(func() {
		rig.ctrl.Stop()
		net.Close()
	})
	return rig
}

// restart recovers a successor from the shared WAL and the dead
// controller's plant. extra lists intel published after construction
// (the successor rebuilds risk state from feeds, not the WAL). The dead
// predecessor is never Stop()ped — its nodes belong to the successor —
// and Recover closes its control client.
func (r *restartRig) restart(ctx context.Context, extra ...*osint.Vulnerability) *Controller {
	r.t.Helper()
	cfg := r.cfg
	cfg.InitialVulns = append(append([]*osint.Vulnerability(nil), r.cfg.InitialVulns...), extra...)
	next, err := Recover(ctx, cfg, r.ctrl.Plant())
	if err != nil {
		r.t.Fatalf("Recover: %v", err)
	}
	r.ctrl = next
	return next
}

// serviceWrite orders one write through the given membership view and
// fails the test if the group cannot serve it.
func (r *restartRig) serviceWrite(ctx context.Context, tag string, m *bft.Membership) {
	r.t.Helper()
	if r.cl == nil {
		cl, err := bft.NewClient(bft.ClientConfig{
			ID:             r.clientID,
			Key:            r.clientPriv,
			Replicas:       m.Replicas,
			ReplicaKeys:    m.Keys,
			F:              m.F(),
			Net:            r.net,
			RequestTimeout: 2 * time.Second,
		})
		if err != nil {
			r.t.Fatal(err)
		}
		r.cl = cl
		r.t.Cleanup(func() { cl.Close() })
	} else {
		r.cl.UpdateMembership(m.Replicas, m.Keys)
	}
	op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "probe-" + tag, Value: []byte("ok")})
	ictx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if _, err := r.cl.Invoke(ictx, op); err != nil {
		r.t.Fatalf("service write (%s): %v", tag, err)
	}
}

// fireOnce arms a crash plan that kills the controller right after the
// first WAL record matching pred.
func fireOnce(pred func(WALRecord) bool) CrashPlan {
	fired := false
	return func(rec WALRecord) bool {
		if fired {
			return false
		}
		if pred(rec) {
			fired = true
			return true
		}
		return false
	}
}

func intentOf(stage SwapStage) func(WALRecord) bool {
	return func(rec WALRecord) bool {
		return rec.Kind == WALStageIntent && rec.Stage == stage && !rec.Compensating
	}
}

func outcomeOf(stage SwapStage) func(WALRecord) bool {
	return func(rec WALRecord) bool {
		return rec.Kind == WALStageOutcome && rec.Stage == stage && !rec.Compensating && rec.OK
	}
}

// sharedBomb builds a fresh critical exploited CVE shared by the first
// three running OSes — the trigger that forces a replacement.
func sharedBomb(t *testing.T, c *Controller, id string, now time.Time) *osint.Vulnerability {
	t.Helper()
	st := c.Status()
	if len(st.Config) < 3 {
		t.Fatalf("config too small for a shared bomb: %v", st.Config)
	}
	var products []string
	for _, osID := range st.Config[:3] {
		os, err := catalog.ByID(osID)
		if err != nil {
			t.Fatal(err)
		}
		products = append(products, os.CPEProduct)
	}
	return &osint.Vulnerability{
		ID:          id,
		Description: "Remote code execution in the shared virtio network driver allows full host compromise via crafted descriptors.",
		Products:    products,
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}
}

// TestControllerCrashResumeMatrix kills the controller immediately after
// each durable step of a swap — the begin record, the post-decision
// census, and every stage's intent and outcome — then Recovers a
// successor from the WAL and asserts the interrupted swap converges:
// rolled back cleanly when the crash precedes the recorded decision,
// completed otherwise, with no leaked nodes, a balanced ledger, and the
// service still writable while the controller was down and after it
// returned.
func TestControllerCrashResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-resume matrix boots a 4-replica group per case")
	}
	cases := []struct {
		name string
		pred func(WALRecord) bool
		// rolledBack: the swap must close as a rollback and the next
		// monitor round must redo the replacement.
		rolledBack bool
	}{
		{"after-swap-begin", func(rec WALRecord) bool { return rec.Kind == WALSwapBegin }, true},
		{"after-swap-census", func() func(WALRecord) bool {
			sawBegin := false
			return func(rec WALRecord) bool {
				if rec.Kind == WALSwapBegin {
					sawBegin = true
				}
				return sawBegin && rec.Kind == WALCensus
			}
		}(), false},
		{"after-boot-intent", intentOf(StageBoot), false},
		{"after-boot-outcome", outcomeOf(StageBoot), false},
		{"after-add-intent", intentOf(StageAdd), false},
		{"after-add-outcome", outcomeOf(StageAdd), false},
		{"after-add-membership", func() func(WALRecord) bool {
			sawBegin := false
			return func(rec WALRecord) bool {
				if rec.Kind == WALSwapBegin {
					sawBegin = true
				}
				return sawBegin && rec.Kind == WALMembership
			}
		}(), false},
		{"after-catchup-intent", intentOf(StageCatchUp), false},
		{"after-catchup-outcome", outcomeOf(StageCatchUp), false},
		{"after-remove-intent", intentOf(StageRemove), false},
		{"after-remove-outcome", outcomeOf(StageRemove), false},
		{"after-poweroff-intent", intentOf(StagePowerOff), false},
		{"after-poweroff-outcome", outcomeOf(StagePowerOff), false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			now := day(2018, 1, 15)
			clock := func() time.Time { return now }
			rig := newRestartRig(t, smallCorpus(t), clock)
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			if err := rig.ctrl.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}
			rig.serviceWrite(ctx, "preload", rig.ctrl.Membership())

			bomb := sharedBomb(t, rig.ctrl, "CVE-2018-99001", now)
			if err := rig.ctrl.RefreshIntel(ctx, bomb); err != nil {
				t.Fatal(err)
			}
			now = now.AddDate(0, 0, 1)

			rig.ctrl.ScheduleCrash(fireOnce(tc.pred))
			_, err := rig.ctrl.MonitorRound(ctx)
			if !rig.ctrl.Crashed() {
				t.Fatalf("crash plan never fired (round err: %v) — the swap did not reach %s", err, tc.name)
			}

			// The execution plane must serve writes while the control
			// plane is dead, whatever membership the swap left committed.
			rig.serviceWrite(ctx, "down", rig.ctrl.Membership())

			next := rig.restart(ctx, bomb)
			if got := next.Generation(); got != 1 {
				t.Errorf("generation = %d, want 1", got)
			}
			hist := next.SwapHistory()
			if len(hist) == 0 {
				t.Fatal("recovered controller has no swap history")
			}
			last := hist[len(hist)-1]

			if tc.rolledBack {
				if last.Outcome != SwapRolledBack {
					t.Fatalf("interrupted swap closed as %v, want %v", last.Outcome, SwapRolledBack)
				}
				// The decision was never durably recorded, so the next
				// round must re-decide and complete the replacement.
				d, err := next.MonitorRound(ctx)
				if err != nil {
					t.Fatalf("redo round: %v", err)
				}
				if !d.Reconfigured {
					t.Fatal("redo round did not reconfigure")
				}
			} else if last.Outcome != SwapSucceeded {
				t.Fatalf("interrupted swap closed as %v (stage %q, err %q), want %v",
					last.Outcome, last.FailedStage, last.Err, SwapSucceeded)
			}

			for _, v := range next.Invariants() {
				t.Errorf("invariant violation after resume: %s", v)
			}
			st := next.Status()
			if st.Epoch != 2 {
				t.Errorf("membership epoch = %d, want 2 (one add + one remove)", st.Epoch)
			}
			if len(st.Quarantine) != 1 {
				t.Errorf("quarantine = %v, want exactly the removed OS", st.Quarantine)
			}
			rig.serviceWrite(ctx, "recovered", next.Membership())
		})
	}
}

// TestRecoveredControllerReproducesHistory pins determinism across a
// crash: a controller that dies between swaps (its WAL ending in a
// census) and recovers must make the same decisions as an uncrashed run
// of the same seed — the census records the rng draw count and lifecycle
// set order, so the diversity loop replays exactly. The recovered
// controller must also report the pre-crash swap history verbatim from
// the WAL.
func TestRecoveredControllerReproducesHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two multi-swap controllers")
	}
	if RaceEnabled {
		t.Skip("two full multi-swap runs exceed the race-mode package budget; determinism is asserted in the plain pass")
	}
	const rounds = 3
	fingerprints := func(hist []SwapRecord) []string {
		out := make([]string, 0, len(hist))
		for _, rec := range hist {
			out = append(out, fmt.Sprintf("%s->%s node %d->%d outcome=%v retries=%d",
				rec.Removed, rec.Added, rec.OldNode, rec.NewNode, rec.Outcome, rec.Retries))
		}
		return out
	}

	run := func(crashAfterRound int) []string {
		now := day(2018, 1, 15)
		clock := func() time.Time { return now }
		rig := newRestartRig(t, smallCorpus(t), clock)
		ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
		defer cancel()
		if err := rig.ctrl.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		var published []*osint.Vulnerability
		for round := 0; round < rounds; round++ {
			bomb := sharedBomb(t, rig.ctrl, fmt.Sprintf("CVE-2018-88%03d", round), now)
			published = append(published, bomb)
			if err := rig.ctrl.RefreshIntel(ctx, bomb); err != nil {
				t.Fatal(err)
			}
			now = now.AddDate(0, 0, 1)
			if _, err := rig.ctrl.MonitorRound(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if round == crashAfterRound {
				before := fingerprints(rig.ctrl.SwapHistory())
				rig.ctrl.Crash()
				next := rig.restart(ctx, published...)
				after := fingerprints(next.SwapHistory())
				if fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("recovered history diverges from the WAL:\n  before: %v\n  after:  %v", before, after)
				}
			}
		}
		return fingerprints(rig.ctrl.SwapHistory())
	}

	straight := run(-1)
	crashed := run(0)
	if len(straight) == 0 {
		t.Fatal("no swaps recorded: shared bombs over 3 rounds should force replacements")
	}
	if fmt.Sprint(straight) != fmt.Sprint(crashed) {
		t.Fatalf("crashed-and-recovered run diverged from the uncrashed run:\n  straight: %v\n  crashed:  %v",
			straight, crashed)
	}
}

// TestSwapHistoryWrapBoundary drives the bounded history ring past its
// capacity and asserts the window semantics: oldest-first order, exactly
// the last swapHistoryCap records retained, and counters unaffected by
// the truncation.
func TestSwapHistoryWrapBoundary(t *testing.T) {
	c := &Controller{ins: newCPInstruments(nil)}
	const total = 300
	for i := 0; i < total; i++ {
		c.swapMu.Lock()
		c.recordSwapLocked(SwapRecord{
			Removed: fmt.Sprintf("os-%d", i),
			Added:   fmt.Sprintf("os-%d'", i),
			Outcome: SwapSucceeded,
		})
		c.swapMu.Unlock()
	}
	hist := c.SwapHistory()
	if len(hist) != swapHistoryCap {
		t.Fatalf("history holds %d records, want %d", len(hist), swapHistoryCap)
	}
	for i, rec := range hist {
		want := fmt.Sprintf("os-%d", total-swapHistoryCap+i)
		if rec.Removed != want {
			t.Fatalf("hist[%d].Removed = %s, want %s (oldest-first window of the last %d)",
				i, rec.Removed, want, swapHistoryCap)
		}
	}
	if st := c.SwapStats(); st.Successes != total {
		t.Errorf("successes = %d, want %d: ring truncation must not lose counters", st.Successes, total)
	}
}
