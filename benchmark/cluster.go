package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"

	"lazarus/internal/bft"
	"lazarus/internal/metrics"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// Every group has four replicas and so tolerates one fault.
const (
	replicaCount = 4
	faults       = (replicaCount - 1) / 3
)

// seedKey derives an ed25519 key from the run seed, a role and an index,
// so that a seed fixes every key of a run.
func seedKey(seed int64, role string, idx int) ed25519.PrivateKey {
	h := sha256.New()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(idx))
	h.Write(b[:])
	h.Write([]byte(role))
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// clientAttempts lets a load client retransmit for as long as
// invokeTimeout allows (the client's default of 8 attempts gives up after
// about 6 s): how long an Invoke may take is the load generator's
// decision, and a stall shorter than that is a slow request, which the
// percentiles show, not a failed one.
const clientAttempts = 64

func clientID(i int) transport.NodeID { return transport.ClientIDBase + transport.NodeID(1+i) }

// netKind selects the transport stack under a cluster.
type netKind int

const (
	netMemory   netKind = iota // transport.NewMemory
	netTCP                     // transport.NewTCP on loopback
	netMemoryLN                // memory wrapped in the netem "lan" profile
)

// buildNetwork builds the transport stack for the given node ids.
func buildNetwork(kind netKind, seed int64, ids []transport.NodeID, reg *metrics.Registry) (transport.Network, *netem.Network, error) {
	switch kind {
	case netMemory:
		return transport.NewMemory(transport.MemoryConfig{Seed: seed, Metrics: reg}), nil, nil
	case netMemoryLN:
		mem := transport.NewMemory(transport.MemoryConfig{Seed: seed, Metrics: reg})
		em := netem.Wrap(mem, netem.Config{Profile: netem.Profiles["lan"], Seed: seed, Metrics: reg})
		return em, em, nil
	case netTCP:
		// Another process can take a port between its reservation and its
		// use; a second draw of ports settles that.
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			var tcp *transport.TCP
			if tcp, err = loopbackTCP(seed, ids, reg); err == nil {
				return tcp, nil, nil
			}
		}
		return nil, nil, err
	}
	return nil, nil, fmt.Errorf("unknown network kind %d", kind)
}

// loopbackTCP builds a TCP network whose nodes listen on loopback ports
// the kernel picked: each address is learnt from a throw-away 127.0.0.1:0
// listener, so no fixed port is opened.
func loopbackTCP(seed int64, ids []transport.NodeID, reg *metrics.Registry) (*transport.TCP, error) {
	// All the throw-away listeners are held open until the last port is
	// known: closing one before asking for the next lets the kernel hand
	// the same port out twice.
	addrs := make(map[transport.NodeID]string, len(ids))
	var held []net.Listener
	var listenErr error
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			listenErr = err
			break
		}
		held = append(held, ln)
		addrs[id] = ln.Addr().String()
	}
	for _, ln := range held {
		ln.Close()
	}
	if listenErr != nil {
		return nil, fmt.Errorf("reserving a loopback port: %w", listenErr)
	}
	secret := sha256.Sum256([]byte(fmt.Sprintf("benchmark-mac|%d", seed)))
	tcp, err := transport.NewTCP(transport.TCPConfig{Addrs: addrs, Secret: secret[:], Seed: seed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	// Bind every port again at once, before anything dials: an outgoing
	// connection could otherwise be given one of them as its source port.
	for _, id := range ids {
		if _, err := tcp.Endpoint(id); err != nil {
			tcp.Close()
			return nil, err
		}
	}
	return tcp, nil
}

// clusterConfig describes a benchmark-owned replica group.
type clusterConfig struct {
	seed    int64
	kind    netKind
	clients int
	// app builds the service of one replica.
	app func() bft.Application
	// trace, when set, wraps the network and the applications in the
	// benchmark's taps and attaches a metrics registry to every layer.
	trace *tracer
}

// cluster is four replicas and a fixed set of clients over one network,
// launched through the public constructors only.
type cluster struct {
	net        transport.Network
	em         *netem.Network // nil unless the stack has a netem layer
	membership *bft.Membership
	replicas   []*bft.Replica
	apps       []bft.Application // the untapped applications, by replica
	clients    []*bft.Client
}

func launchCluster(cfg clusterConfig) (*cluster, error) {
	ids := make([]transport.NodeID, 0, replicaCount+cfg.clients)
	pubs := make(map[transport.NodeID]ed25519.PublicKey, replicaCount)
	privs := make(map[transport.NodeID]ed25519.PrivateKey, replicaCount)
	for i := 0; i < replicaCount; i++ {
		id := transport.NodeID(i)
		key := seedKey(cfg.seed, "replica", i)
		ids = append(ids, id)
		privs[id] = key
		pubs[id] = key.Public().(ed25519.PublicKey)
	}
	replicaIDs := append([]transport.NodeID(nil), ids...)
	clientPubs := make(map[transport.NodeID]ed25519.PublicKey, cfg.clients)
	for i := 0; i < cfg.clients; i++ {
		clientPubs[clientID(i)] = seedKey(cfg.seed, "client", i).Public().(ed25519.PublicKey)
		ids = append(ids, clientID(i))
	}
	c := &cluster{}

	var reg *metrics.Registry
	if cfg.trace != nil {
		reg = cfg.trace.reg
	}
	inner, em, err := buildNetwork(cfg.kind, cfg.seed, ids, reg)
	if err != nil {
		return nil, err
	}
	c.net, c.em = inner, em
	if cfg.trace != nil {
		c.net = cfg.trace.wrapNetwork(inner)
	}
	if c.membership, err = bft.NewMembership(replicaIDs, pubs); err != nil {
		c.stop()
		return nil, err
	}
	for _, id := range replicaIDs {
		app := cfg.app()
		c.apps = append(c.apps, app)
		if cfg.trace != nil {
			app = cfg.trace.wrapApp(app)
		}
		r, err := bft.NewReplica(bft.ReplicaConfig{
			ID:         id,
			Key:        privs[id],
			Membership: c.membership,
			App:        app,
			Net:        c.net,
			ClientKeys: clientPubs,
			Metrics:    reg,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		r.Start()
	}
	for i := 0; i < cfg.clients; i++ {
		cl, err := bft.NewClient(bft.ClientConfig{
			ID:          clientID(i),
			Key:         seedKey(cfg.seed, "client", i),
			Replicas:    c.membership.Replicas,
			ReplicaKeys: c.membership.Keys,
			F:           c.membership.F(),
			Net:         c.net,
			MaxAttempts: clientAttempts,
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// stop closes clients, replicas and the network, in that order, and
// returns when every goroutine they own has ended.
func (c *cluster) stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	if c.net != nil {
		c.net.Close()
	}
}
