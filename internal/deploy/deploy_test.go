package deploy

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/transport"
	"lazarus/internal/workload"
)

func testBuilder(t *testing.T) (*Builder, *transport.Memory) {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{Seed: 1})
	t.Cleanup(func() { net.Close() })
	ctrlPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(BuilderConfig{
		Net:           net,
		ControllerKey: ctrlPub,
		App:           func() bft.Application { return workload.EchoApp{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, net
}

func TestNewBuilderValidation(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	ctrlPub, _, _ := ed25519.GenerateKey(rand.Reader)
	app := func() bft.Application { return workload.EchoApp{} }
	if _, err := NewBuilder(BuilderConfig{ControllerKey: ctrlPub, App: app}); err == nil {
		t.Error("nil net accepted")
	}
	if _, err := NewBuilder(BuilderConfig{Net: net, ControllerKey: ctrlPub}); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := NewBuilder(BuilderConfig{Net: net, App: app}); err == nil {
		t.Error("missing controller key accepted")
	}
}

func TestPublicKeyStable(t *testing.T) {
	b, _ := testBuilder(t)
	k1, err := b.PublicKey(3)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := b.PublicKey(3)
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Equal(k2) {
		t.Error("node key changed between calls")
	}
	k3, err := b.PublicKey(4)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Equal(k3) {
		t.Error("distinct nodes share a key")
	}
}

// fourNodeMembership builds a membership over nodes 0..3 of the builder.
func fourNodeMembership(t *testing.T, b *Builder) *bft.Membership {
	t.Helper()
	ids := []transport.NodeID{0, 1, 2, 3}
	keys := make(map[transport.NodeID]ed25519.PublicKey)
	for _, id := range ids {
		k, err := b.PublicKey(id)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	m, err := bft.NewMembership(ids, keys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNodePowerCycle(t *testing.T) {
	b, _ := testBuilder(t)
	m := fourNodeMembership(t, b)
	node, err := b.NewNode(0, func() *bft.Membership { return m.Clone() })
	if err != nil {
		t.Fatal(err)
	}
	if node.Running() {
		t.Error("fresh node reports running")
	}
	if err := node.PowerOn("UB16", false); err != nil {
		t.Fatal(err)
	}
	if !node.Running() || node.OS().ID != "UB16" || node.Replica() == nil {
		t.Errorf("node state after power-on: running=%v os=%s", node.Running(), node.OS().ID)
	}
	// Double power-on is rejected.
	if err := node.PowerOn("DE8", false); err == nil {
		t.Error("double power-on accepted")
	}
	if err := node.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if node.Running() || node.Replica() != nil {
		t.Error("node state after power-off")
	}
	// Re-provision with a different image.
	if err := node.PowerOn("DE8", false); err != nil {
		t.Fatalf("re-power-on: %v", err)
	}
	if node.OS().ID != "DE8" {
		t.Errorf("os after rebuild = %s", node.OS().ID)
	}
	node.PowerOff()
}

func TestNodePowerOnValidation(t *testing.T) {
	b, _ := testBuilder(t)
	m := fourNodeMembership(t, b)
	node, err := b.NewNode(0, func() *bft.Membership { return m.Clone() })
	if err != nil {
		t.Fatal(err)
	}
	if err := node.PowerOn("NOPE", false); err == nil {
		t.Error("unknown OS image accepted")
	}
	if err := node.PowerOn("RH7", false); err == nil {
		t.Error("undeployable OS accepted")
	}
	if _, err := b.NewNode(1, nil); err == nil {
		t.Error("nil membership source accepted")
	}
}

// TestProvisionedGroupServes boots a full 4-node group via the deploy
// layer and runs a request through it.
func TestProvisionedGroupServes(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{Seed: 1})
	defer net.Close()
	ctrlPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientPub, clientPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clientID := transport.ClientIDBase
	b, err := NewBuilder(BuilderConfig{
		Net:           net,
		ControllerKey: ctrlPub,
		ClientKeys:    map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
		App:           func() bft.Application { return workload.EchoApp{} },
		ReplicaTuning: func(cfg *bft.ReplicaConfig) {
			cfg.BatchDelay = time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := fourNodeMembership(t, b)
	images := []string{"UB16", "DE8", "FB11", "OB61"}
	var nodes []*Node
	for i, img := range images {
		node, err := b.NewNode(transport.NodeID(i), func() *bft.Membership { return m.Clone() })
		if err != nil {
			t.Fatal(err)
		}
		if err := node.PowerOn(img, false); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	defer func() {
		for _, n := range nodes {
			n.PowerOff()
		}
	}()
	client, err := bft.NewClient(bft.ClientConfig{
		ID:          clientID,
		Key:         clientPriv,
		Replicas:    m.Replicas,
		ReplicaKeys: m.Keys,
		F:           m.F(),
		Net:         net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.Invoke(ctx, []byte("ping"))
	if err != nil {
		t.Fatalf("invoke through provisioned group: %v", err)
	}
	if string(res) != "ping" {
		t.Errorf("echo = %q", res)
	}
}

func TestPowerOffIdempotent(t *testing.T) {
	b, _ := testBuilder(t)
	m := fourNodeMembership(t, b)
	node, err := b.NewNode(0, func() *bft.Membership { return m.Clone() })
	if err != nil {
		t.Fatal(err)
	}
	// Powering off an idle node is a no-op, even repeatedly.
	if err := node.PowerOff(); err != nil {
		t.Fatalf("power-off of idle node: %v", err)
	}
	if err := node.PowerOff(); err != nil {
		t.Fatalf("second power-off of idle node: %v", err)
	}
	if err := node.PowerOn("UB16", false); err != nil {
		t.Fatal(err)
	}
	if err := node.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if err := node.PowerOff(); err != nil {
		t.Fatalf("second power-off: %v", err)
	}
}

func TestRetireIsTerminal(t *testing.T) {
	b, _ := testBuilder(t)
	m := fourNodeMembership(t, b)
	node, err := b.NewNode(0, func() *bft.Membership { return m.Clone() })
	if err != nil {
		t.Fatal(err)
	}
	if err := node.PowerOn("UB16", false); err != nil {
		t.Fatal(err)
	}
	node.Retire()
	if node.Running() || !node.Retired() {
		t.Errorf("after retire: running=%v retired=%v", node.Running(), node.Retired())
	}
	if err := node.PowerOn("DE8", false); !errors.Is(err, ErrRetired) {
		t.Errorf("power-on of retired node err = %v, want ErrRetired", err)
	}
}
