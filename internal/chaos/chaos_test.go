package chaos

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/ltu"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// TestProbeReportsPositions pins the chaos probe's failure report: a probe
// that cannot commit gives up at its own deadline, and its error names
// every member with the epoch, view and last executed sequence it stands
// at, so a stalled run says which replica held it up.
func TestProbeReportsPositions(t *testing.T) {
	ds, err := feeds.GenerateDataset(feeds.GenConfig{
		Seed:  3,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	net := netem.Wrap(transport.NewMemory(transport.MemoryConfig{Seed: 1}), netem.Config{})
	defer net.Close()
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientID := transport.ClientIDBase + 1
	now := time.Date(2018, 1, 15, 0, 0, 0, 0, time.UTC)
	ctrl, err := controlplane.New(controlplane.Config{
		Seed:         7,
		Clock:        func() time.Time { return now },
		InitialVulns: ds.All(),
		Net:          net,
		App:          func() bft.Application { return kvs.New() },
		ClientKeys:   map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		LTUSecret:    []byte("test-ltu-secret"),
		ReplicaTuning: func(cfg *bft.ReplicaConfig) {
			cfg.CheckpointInterval = 8
			cfg.ViewChangeTimeout = 200 * time.Millisecond
			cfg.BatchDelay = time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := ctrl.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	cl, err := ctrl.ServiceClient(clientID, clientPriv)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := probe(ctx, ctrl, cl, 15*time.Second, putOp("before", "ok")); err != nil {
		t.Fatalf("probe of a healthy group: %v", err)
	}

	members := ctrl.Status().Members
	for _, id := range members {
		net.Apply(netem.IsolateNode(net.Nodes(), id))
	}
	start := time.Now()
	_, err = probe(ctx, ctrl, cl, 300*time.Millisecond, putOp("stalled", "ok"))
	if err == nil {
		t.Fatal("probe committed with every member isolated")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("probe took %v to give up, deadline 300ms", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("probe error %q does not wrap context.DeadlineExceeded", err)
	}
	_, reps := liveReplicas(ctrl)
	for _, id := range members {
		st := reps[id].Stats()
		want := fmt.Sprintf("replica %d epoch %d view %d lastExec %d ", id, st.CurrentEpoch, st.CurrentView, st.LastExecuted)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("probe error does not place member %d (%q):\n%v", id, want, err)
		}
	}
}

// TestByzantineKillRoundsProbeTheAttack arms attackers and a controller
// kill in the same rounds. The attack must still be probed while it is
// live, beside the controller-down probes, and the round must still get
// its execution-trace safety cross-check: faults clear only after both.
func TestByzantineKillRoundsProbeTheAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take tens of seconds")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	report, err := Run(ctx, Config{
		Rounds:             4,
		Seed:               3,
		ClientWorkers:      1,
		ControllerFaults:   true,
		ControllerKillProb: 1,
		ByzFaults:          true,
		ForceByzRounds:     []int{0, 1, 2, 3},
		Logf:               t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range report.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	t.Logf("kills=%d byzRounds=%d byzProbes=%d schedule=%v", report.ControllerKills, report.ByzRounds, report.ByzProbes, report.ByzSchedule)
	if report.ControllerKills == 0 {
		t.Fatal("no controller kill fired: no round combined an attack with a kill")
	}
	if report.ByzRounds != 4 {
		t.Errorf("byzantine rounds = %d, want 4", report.ByzRounds)
	}
	if report.ByzProbes != report.ByzRounds {
		t.Errorf("byz probes = %d, want one per byzantine round (%d), kill rounds included", report.ByzProbes, report.ByzRounds)
	}
}

// TestInjectLTUModes pins the one provisioning-fault hook: boot faults
// touch only power-on commands, LTU faults every command, a stalled boot
// waits past the stage timeout once per node and then lets the command
// through, and a cleared round injects nothing.
func TestInjectLTUModes(t *testing.T) {
	h := &harness{stageTimeout: 20 * time.Millisecond, stalled: make(map[transport.NodeID]bool)}
	on, off := ltu.Command{Action: ltu.ActionPowerOn}, ltu.Command{Action: ltu.ActionPowerOff}
	for _, tc := range []struct {
		mode            ltuMode
		onFails, offErr bool
	}{
		{ltuHealthy, false, false},
		{bootFailing, true, false},
		{bootStalling, false, false},
		{ltuFailing, true, true},
		{ltuStalling, true, true},
	} {
		h.ltu.Store(int32(tc.mode))
		if err := h.injectLTU(1, on); (err != nil) != tc.onFails {
			t.Errorf("mode %d: power-on err = %v, want failure %v", tc.mode, err, tc.onFails)
		}
		if err := h.injectLTU(1, off); (err != nil) != tc.offErr {
			t.Errorf("mode %d: power-off err = %v, want failure %v", tc.mode, err, tc.offErr)
		}
		h.disarm(&round{})
	}

	h.ltu.Store(int32(bootStalling))
	stalls := func(node transport.NodeID) bool {
		start := time.Now()
		if err := h.injectLTU(node, on); err != nil {
			t.Fatalf("stalled boot of node %d failed: %v", node, err)
		}
		return time.Since(start) > h.stageTimeout
	}
	if !stalls(1) || stalls(1) || !stalls(2) {
		t.Error("a stalled boot must wait past the stage timeout once per node, not on the retry")
	}
	h.disarm(&round{})
	h.ltu.Store(int32(bootStalling))
	if !stalls(1) {
		t.Error("a new round's stalled boot did not stall a node stalled the round before")
	}
}
