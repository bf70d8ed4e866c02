// Package bfttest provides a ready-made in-process BFT cluster for tests,
// examples and benchmarks: n replicas over an in-memory network, key
// management, clients, and a trusted controller for reconfigurations.
// The network is a netem layer without conditions, so tests can apply
// partitions to it.
package bfttest

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// AppFactory builds one application instance per replica.
type AppFactory func(id transport.NodeID) bft.Application

// Options tune the cluster.
type Options struct {
	// N is the number of replicas (default 4).
	N int
	// Clients is the number of pre-registered client identities
	// (default 4).
	Clients int
	// CheckpointInterval overrides the replica default.
	CheckpointInterval uint64
	// BatchDelay overrides the replica default.
	BatchDelay time.Duration
	// ViewChangeTimeout overrides the replica default.
	ViewChangeTimeout time.Duration
}

// Cluster is a running in-process BFT deployment.
type Cluster struct {
	Net        *netem.Network
	Membership *bft.Membership
	Replicas   map[transport.NodeID]*bft.Replica
	Apps       map[transport.NodeID]bft.Application

	opts       Options
	appFactory AppFactory
	keys       map[transport.NodeID]ed25519.PrivateKey
	pubs       map[transport.NodeID]ed25519.PublicKey
	clientKeys map[transport.NodeID]ed25519.PublicKey
	clientPriv map[transport.NodeID]ed25519.PrivateKey
	ctrlPriv   ed25519.PrivateKey
	ctrlPub    ed25519.PublicKey
	started    bool
}

// Launch builds and starts a cluster running the given application.
func Launch(appFactory AppFactory, opts Options) (*Cluster, error) {
	if appFactory == nil {
		return nil, fmt.Errorf("bfttest: nil app factory")
	}
	if opts.N == 0 {
		opts.N = 4
	}
	if opts.Clients == 0 {
		opts.Clients = 4
	}
	c := &Cluster{
		Net:        netem.Wrap(transport.NewMemory(transport.MemoryConfig{}), netem.Config{}),
		Replicas:   make(map[transport.NodeID]*bft.Replica),
		Apps:       make(map[transport.NodeID]bft.Application),
		opts:       opts,
		appFactory: appFactory,
		keys:       make(map[transport.NodeID]ed25519.PrivateKey),
		pubs:       make(map[transport.NodeID]ed25519.PublicKey),
		clientKeys: make(map[transport.NodeID]ed25519.PublicKey),
		clientPriv: make(map[transport.NodeID]ed25519.PrivateKey),
	}
	var err error
	if c.ctrlPub, c.ctrlPriv, err = ed25519.GenerateKey(rand.Reader); err != nil {
		return nil, fmt.Errorf("bfttest: controller key: %w", err)
	}
	ids := make([]transport.NodeID, opts.N)
	for i := range ids {
		id := transport.NodeID(i)
		ids[i] = id
		if c.pubs[id], c.keys[id], err = ed25519.GenerateKey(rand.Reader); err != nil {
			return nil, fmt.Errorf("bfttest: replica key: %w", err)
		}
	}
	if c.Membership, err = bft.NewMembership(ids, c.pubs); err != nil {
		return nil, err
	}
	for i := 0; i < opts.Clients; i++ {
		id := transport.ClientIDBase + transport.NodeID(i)
		if c.clientKeys[id], c.clientPriv[id], err = ed25519.GenerateKey(rand.Reader); err != nil {
			return nil, fmt.Errorf("bfttest: client key: %w", err)
		}
	}
	for _, id := range ids {
		if _, err := c.AddReplica(id, false); err != nil {
			return nil, err
		}
	}
	for _, r := range c.Replicas {
		r.Start()
	}
	c.started = true
	return c, nil
}

// AddReplica creates (and if the cluster runs, starts) one replica;
// joining replicas bootstrap via state transfer after an ADD
// reconfiguration.
func (c *Cluster) AddReplica(id transport.NodeID, joining bool) (*bft.Replica, error) {
	if _, ok := c.keys[id]; !ok {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("bfttest: key for %d: %w", id, err)
		}
		c.pubs[id], c.keys[id] = pub, priv
	}
	app := c.appFactory(id)
	r, err := bft.NewReplica(bft.ReplicaConfig{
		ID:                 id,
		Key:                c.keys[id],
		Membership:         c.Membership,
		App:                app,
		Net:                c.Net,
		ClientKeys:         c.clientKeys,
		ControllerKey:      c.ctrlPub,
		BatchDelay:         c.opts.BatchDelay,
		CheckpointInterval: c.opts.CheckpointInterval,
		ViewChangeTimeout:  c.opts.ViewChangeTimeout,
		Joining:            joining,
	})
	if err != nil {
		return nil, err
	}
	c.Replicas[id] = r
	c.Apps[id] = app
	if c.started {
		r.Start()
	}
	return r, nil
}

// PublicKey returns a replica's public key (for ADD reconfigurations).
func (c *Cluster) PublicKey(id transport.NodeID) ed25519.PublicKey {
	return c.pubs[id]
}

// Client builds the i-th pre-registered client.
func (c *Cluster) Client(i int) (*bft.Client, error) {
	id := transport.ClientIDBase + transport.NodeID(i)
	priv, ok := c.clientPriv[id]
	if !ok {
		return nil, fmt.Errorf("bfttest: client %d not pre-registered", i)
	}
	return bft.NewClient(bft.ClientConfig{
		ID:             id,
		Key:            priv,
		Replicas:       c.Membership.Replicas,
		ReplicaKeys:    c.pubs,
		F:              c.Membership.F(),
		Net:            c.Net,
		RequestTimeout: 500 * time.Millisecond,
	})
}

// Controller builds the trusted controller client whose requests may
// carry reconfigurations.
func (c *Cluster) Controller() (*bft.Client, error) {
	return bft.NewClient(bft.ClientConfig{
		ID:             transport.ClientIDBase + 999,
		Key:            c.ctrlPriv,
		Replicas:       c.Membership.Replicas,
		ReplicaKeys:    c.pubs,
		F:              c.Membership.F(),
		Net:            c.Net,
		RequestTimeout: 600 * time.Millisecond,
	})
}

// Stop shuts every replica and the network down.
func (c *Cluster) Stop() {
	for _, r := range c.Replicas {
		r.Stop()
	}
	c.Net.Close()
}
