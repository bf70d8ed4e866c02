// Package deploy implements the Lazarus Deploy manager and replica
// builder (paper §5.1, module 3): it provisions ready-to-use replicas of
// a chosen OS image on execution-plane nodes — the role Vagrant and
// VirtualBox play in the prototype — and exposes each node through an
// LTU-drivable interface. Boot latency follows the OS profile (scaled,
// so tests run fast and the Figure 9 harness can use realistic values).
package deploy

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/transport"
)

// Lifecycle errors.
var (
	// ErrInjectedFault marks failures produced by a FaultPolicy, so tests
	// and the swap engine can tell injected faults from real ones.
	ErrInjectedFault = errors.New("deploy: injected fault")
	// ErrRetired: the node was retired by the controller and can never
	// host a replica again.
	ErrRetired = errors.New("deploy: node retired")
)

// FaultPolicy injects deterministic failures into the node lifecycle so
// the control plane's failure handling is testable (Bedrock-style
// fault-injection-first). The zero value injects nothing. Policies are
// installed on the Builder and consulted by every Node it provisioned.
type FaultPolicy struct {
	// FailPowerOnOS fails PowerOn for exactly these OS image ids.
	FailPowerOnOS map[string]bool
	// FailAfterBoots fails every PowerOn once the builder has completed
	// this many successful boots (0 = never).
	FailAfterBoots int
	// StallBoot adds this delay to every PowerOn before it takes effect,
	// simulating an image that boots far slower than its profile.
	StallBoot time.Duration
	// FailPowerOff makes PowerOff return an error while leaving the
	// replica running — a hung hypervisor that ignores the kill.
	FailPowerOff bool
}

// AppFactory builds the replicated service instance for a fresh replica.
type AppFactory func() bft.Application

// BuilderConfig configures the replica builder.
type BuilderConfig struct {
	// Net is the execution-plane network.
	Net transport.Network
	// ClientKeys and ControllerKey configure request authentication for
	// every built replica.
	ClientKeys    map[transport.NodeID]ed25519.PublicKey
	ControllerKey ed25519.PublicKey
	// App builds the service state machine.
	App AppFactory
	// ReplicaTuning optionally adjusts each replica's protocol knobs.
	ReplicaTuning func(*bft.ReplicaConfig)
}

// Builder provisions nodes.
type Builder struct {
	cfg BuilderConfig

	fault atomic.Pointer[FaultPolicy]
	boots atomic.Int64

	mu   sync.Mutex
	keys map[transport.NodeID]ed25519.PrivateKey
	pubs map[transport.NodeID]ed25519.PublicKey
}

// SetFaultPolicy installs (or, with nil, clears) the failure-injection
// policy consulted by every node of this builder.
func (b *Builder) SetFaultPolicy(p *FaultPolicy) { b.fault.Store(p) }

// FaultPolicy returns the active policy (nil = none).
func (b *Builder) FaultPolicy() *FaultPolicy { return b.fault.Load() }

// Boots returns how many successful PowerOns the builder has completed.
func (b *Builder) Boots() int { return int(b.boots.Load()) }

// powerOnFault evaluates the policy for a PowerOn of osID: the injected
// error to fail with, plus any boot stall to apply first.
func (b *Builder) powerOnFault(osID string) (time.Duration, error) {
	p := b.fault.Load()
	if p == nil {
		return 0, nil
	}
	if p.FailPowerOnOS[osID] {
		return p.StallBoot, fmt.Errorf("%w: power-on of %s", ErrInjectedFault, osID)
	}
	if p.FailAfterBoots > 0 && int(b.boots.Load()) >= p.FailAfterBoots {
		return p.StallBoot, fmt.Errorf("%w: boot budget %d exhausted", ErrInjectedFault, p.FailAfterBoots)
	}
	return p.StallBoot, nil
}

// NewBuilder validates the configuration.
func NewBuilder(cfg BuilderConfig) (*Builder, error) {
	switch {
	case cfg.Net == nil:
		return nil, fmt.Errorf("deploy: nil network")
	case cfg.App == nil:
		return nil, fmt.Errorf("deploy: nil app factory")
	case len(cfg.ControllerKey) != ed25519.PublicKeySize:
		return nil, fmt.Errorf("deploy: missing controller key")
	}
	return &Builder{
		cfg:  cfg,
		keys: make(map[transport.NodeID]ed25519.PrivateKey),
		pubs: make(map[transport.NodeID]ed25519.PublicKey),
	}, nil
}

// PublicKey returns (minting if necessary) the signing identity of a
// node. Identities are per-node, so a rebuilt node keeps its key and the
// membership can re-admit it.
func (b *Builder) PublicKey(node transport.NodeID) (ed25519.PublicKey, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.publicKeyLocked(node)
}

func (b *Builder) publicKeyLocked(node transport.NodeID) (ed25519.PublicKey, error) {
	if pub, ok := b.pubs[node]; ok {
		return pub, nil
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("deploy: minting key for node %d: %w", node, err)
	}
	b.pubs[node], b.keys[node] = pub, priv
	return pub, nil
}

// PrivateKey returns (minting if necessary) the signing key of a node.
// The chaos harness uses it to arm Byzantine attacker replicas with
// their own credentials: a compromised replica signs its forged traffic
// with its real key, so nothing it emits is detectable by signature
// checking alone.
func (b *Builder) PrivateKey(node transport.NodeID) (ed25519.PrivateKey, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.publicKeyLocked(node); err != nil {
		return nil, err
	}
	return b.keys[node], nil
}

// Node is one execution-plane machine: an LTU-drivable slot that can host
// one replica at a time.
type Node struct {
	id      transport.NodeID
	builder *Builder

	mu         sync.Mutex
	membership func() *bft.Membership // current-membership source for joins
	os         catalog.OS
	replica    *bft.Replica
	retired    bool
}

// NewNode allocates a node slot. membershipFn supplies the membership a
// freshly booted replica should bootstrap against (the controller's
// current view of the group).
func (b *Builder) NewNode(id transport.NodeID, membershipFn func() *bft.Membership) (*Node, error) {
	if membershipFn == nil {
		return nil, fmt.Errorf("deploy: nil membership source")
	}
	if _, err := b.PublicKey(id); err != nil {
		return nil, err
	}
	return &Node{id: id, builder: b, membership: membershipFn}, nil
}

// ID returns the node id.
func (n *Node) ID() transport.NodeID { return n.id }

// Running reports whether a replica is active on the node.
func (n *Node) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replica != nil
}

// OS returns the OS image of the running replica (zero OS when off).
func (n *Node) OS() catalog.OS {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.os
}

// Replica returns the running replica handle (nil when off).
func (n *Node) Replica() *bft.Replica {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replica
}

// PowerOn implements ltu.Driver: provision the OS image and start the
// replica. Boot is instant: the image profile's boot time is
// catalog data for the performance model, not a delay here. Injected faults (FaultPolicy) and retirement are surfaced as errors so
// the controller's swap engine can retry or compensate.
func (n *Node) PowerOn(osID string, joining bool) error {
	os, err := catalog.ByID(osID)
	if err != nil {
		return err
	}
	if os.VM == nil {
		return fmt.Errorf("deploy: %s has no VM image", osID)
	}
	n.mu.Lock()
	if n.retired {
		n.mu.Unlock()
		return fmt.Errorf("%w: node %d", ErrRetired, n.id)
	}
	if n.replica != nil {
		n.mu.Unlock()
		return fmt.Errorf("deploy: node %d already running %s", n.id, n.os.ID)
	}
	n.mu.Unlock()

	stall, injected := n.builder.powerOnFault(osID)
	if stall > 0 {
		time.Sleep(stall)
	}
	if injected != nil {
		return injected
	}

	n.builder.mu.Lock()
	if _, err := n.builder.publicKeyLocked(n.id); err != nil {
		n.builder.mu.Unlock()
		return err
	}
	key := n.builder.keys[n.id]
	n.builder.mu.Unlock()

	cfg := bft.ReplicaConfig{
		ID:            n.id,
		Key:           key,
		Membership:    n.membership(),
		App:           n.builder.cfg.App(),
		Net:           n.builder.cfg.Net,
		ClientKeys:    n.builder.cfg.ClientKeys,
		ControllerKey: n.builder.cfg.ControllerKey,
		Joining:       joining,
	}
	if n.builder.cfg.ReplicaTuning != nil {
		n.builder.cfg.ReplicaTuning(&cfg)
	}
	replica, err := bft.NewReplica(cfg)
	if err != nil {
		return fmt.Errorf("deploy: node %d: %w", n.id, err)
	}

	n.mu.Lock()
	// Re-check under the lock: a stalled boot may have raced a Retire or
	// a concurrent PowerOn, and a retired slot must never come back up.
	if n.retired || n.replica != nil {
		retired := n.retired
		n.mu.Unlock()
		if retired {
			return fmt.Errorf("%w: node %d", ErrRetired, n.id)
		}
		return fmt.Errorf("deploy: node %d already running", n.id)
	}
	replica.Start()
	n.os = os
	n.replica = replica
	n.mu.Unlock()
	n.builder.boots.Add(1)
	return nil
}

// PowerOff implements ltu.Driver: stop and wipe the replica. Powering off
// an idle node is a no-op (the command is idempotent). A FailPowerOff
// fault leaves the replica running and returns an error, like a
// hypervisor that ignored the kill.
func (n *Node) PowerOff() error {
	if p := n.builder.fault.Load(); p != nil && p.FailPowerOff {
		n.mu.Lock()
		running := n.replica != nil
		n.mu.Unlock()
		if running {
			return fmt.Errorf("%w: power-off of node %d", ErrInjectedFault, n.id)
		}
	}
	n.mu.Lock()
	replica := n.replica
	n.replica = nil
	n.os = catalog.OS{}
	n.mu.Unlock()
	if replica != nil {
		replica.Stop()
	}
	return nil
}

// Retire is the controller's last-resort decommission: the machine is
// wiped out-of-band, so it bypasses the LTU/driver path (and any injected
// fault), stops whatever is running, and guarantees no in-flight or
// future PowerOn can ever bring the slot back.
func (n *Node) Retire() {
	n.mu.Lock()
	n.retired = true
	replica := n.replica
	n.replica = nil
	n.os = catalog.OS{}
	n.mu.Unlock()
	if replica != nil {
		replica.Stop()
	}
}

// Retired reports whether the node has been decommissioned.
func (n *Node) Retired() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retired
}
