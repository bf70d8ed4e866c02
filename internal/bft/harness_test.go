package bft

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// counterApp is a deterministic test service: "add <n>" adds to a
// counter and returns the new value; "get" reads it; anything else
// echoes.
type counterApp struct {
	mu    sync.Mutex
	value int64
	ops   int
}

func (a *counterApp) Execute(op []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	switch {
	case bytes.HasPrefix(op, []byte("add ")):
		var n int64
		fmt.Sscanf(string(op[4:]), "%d", &n)
		a.value += n
		return encodeInt(a.value)
	case bytes.Equal(op, []byte("get")):
		return encodeInt(a.value)
	default:
		return append([]byte("echo:"), op...)
	}
}

func (a *counterApp) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a.value); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (a *counterApp) Restore(snapshot []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&a.value)
}

func (a *counterApp) Value() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.value
}

func encodeInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func decodeInt(b []byte) int64 {
	if len(b) != 8 {
		return -1
	}
	return int64(binary.BigEndian.Uint64(b))
}

// cluster is a complete BFT deployment for tests. Every endpoint goes
// through net, a netem layer that holds the tests' partitions; beneath it
// is mem, which takes the send and receive hooks, or loopback TCP.
type cluster struct {
	t             testing.TB
	mem           *transport.Memory // nil over TCP
	net           *netem.Network
	membership    *Membership
	replicas      map[transport.NodeID]*Replica
	apps          map[transport.NodeID]*counterApp
	keys          map[transport.NodeID]ed25519.PrivateKey
	pubs          map[transport.NodeID]ed25519.PublicKey
	clientKeys    map[transport.NodeID]ed25519.PublicKey
	clientPriv    map[transport.NodeID]ed25519.PrivateKey
	ctrlPriv      ed25519.PrivateKey
	ctrlPub       ed25519.PublicKey
	cfgTweak      func(*ReplicaConfig)
	clientTimeout time.Duration // what client gives each request
}

// clusterNet is what a cluster's endpoints talk over: the in-memory
// transport (the zero value) or loopback TCP with a frame key per link,
// under netem with the named profile ("" conditions nothing).
type clusterNet struct {
	tcp     bool
	profile string
}

func keypair(t testing.TB) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

// newCluster builds (but does not start) n replicas with ids 0..n-1 and
// nClients clients at ClientIDBase... over the in-memory transport.
func newCluster(t testing.TB, n, nClients int, tweak func(*ReplicaConfig)) *cluster {
	return newClusterOver(t, clusterNet{}, n, nClients, tweak)
}

// newClusterOver is newCluster over the given network. The keys come
// first: over TCP they are the links' identities.
func newClusterOver(t testing.TB, over clusterNet, n, nClients int, tweak func(*ReplicaConfig)) *cluster {
	t.Helper()
	c := &cluster{
		t:             t,
		replicas:      make(map[transport.NodeID]*Replica),
		apps:          make(map[transport.NodeID]*counterApp),
		keys:          make(map[transport.NodeID]ed25519.PrivateKey),
		pubs:          make(map[transport.NodeID]ed25519.PublicKey),
		clientKeys:    make(map[transport.NodeID]ed25519.PublicKey),
		clientPriv:    make(map[transport.NodeID]ed25519.PrivateKey),
		cfgTweak:      tweak,
		clientTimeout: 400 * time.Millisecond,
	}
	c.ctrlPub, c.ctrlPriv = keypair(t)
	ids := make([]transport.NodeID, n)
	for i := 0; i < n; i++ {
		id := transport.NodeID(i)
		ids[i] = id
		c.pubs[id], c.keys[id] = keypair(t)
	}
	mem, err := NewMembership(ids, c.pubs)
	if err != nil {
		t.Fatal(err)
	}
	c.membership = mem
	for i := 0; i < nClients; i++ {
		id := transport.ClientIDBase + transport.NodeID(i)
		c.clientKeys[id], c.clientPriv[id] = keypair(t)
	}
	var prof *netem.Profile
	if over.profile != "" {
		if prof, err = netem.ByName(over.profile); err != nil {
			t.Fatal(err)
		}
	}
	c.net = netem.Wrap(c.inner(over.tcp), netem.Config{Profile: prof, Seed: 1})
	for _, id := range ids {
		c.addReplica(id, false)
	}
	return c
}

// inner builds the transport beneath the netem layer: memory, or TCP on
// free loopback ports with the replicas' and clients' keys as the links'
// identities, so every link has its own frame key.
func (c *cluster) inner(tcp bool) transport.Network {
	if !tcp {
		c.mem = transport.NewMemory(transport.MemoryConfig{Seed: 1})
		return c.mem
	}
	cfg := transport.TCPConfig{
		Addrs:      make(map[transport.NodeID]string),
		Keys:       make(map[transport.NodeID]ed25519.PublicKey),
		Identities: make(map[transport.NodeID]ed25519.PrivateKey),
		Seed:       1,
	}
	for id, pub := range c.pubs {
		cfg.Keys[id], cfg.Identities[id] = pub, c.keys[id]
	}
	for id, pub := range c.clientKeys {
		cfg.Keys[id], cfg.Identities[id] = pub, c.clientPriv[id]
	}
	ports := freePorts(c.t, len(cfg.Keys))
	for id := range cfg.Keys {
		cfg.Addrs[id], ports = ports[0], ports[1:]
	}
	tnet, err := transport.NewTCP(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	return tnet
}

// freePorts grabs n distinct loopback addresses.
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// addReplica creates one replica (joining replicas are not members yet).
func (c *cluster) addReplica(id transport.NodeID, joining bool) *Replica {
	c.t.Helper()
	if _, ok := c.keys[id]; !ok {
		c.pubs[id], c.keys[id] = keypair(c.t)
	}
	app := &counterApp{}
	cfg := ReplicaConfig{
		ID:                 id,
		Key:                c.keys[id],
		Membership:         c.membership,
		App:                app,
		Net:                c.net,
		ClientKeys:         c.clientKeys,
		ControllerKey:      c.ctrlPub,
		BatchDelay:         time.Millisecond,
		CheckpointInterval: 8,
		ViewChangeTimeout:  150 * time.Millisecond,
		Joining:            joining,
	}
	if c.cfgTweak != nil {
		c.cfgTweak(&cfg)
	}
	r, err := NewReplica(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	c.replicas[id] = r
	c.apps[id] = app
	return r
}

// mute makes the replicas silent (crash-like): they run, and nothing they
// send arrives.
func (c *cluster) mute(ids ...transport.NodeID) {
	for _, id := range ids {
		c.mem.Intercept(id, func(transport.NodeID, []byte) [][]byte { return nil })
	}
}

// attack hands a replica's outgoing traffic to an Attacker holding its key.
func (c *cluster) attack(id transport.NodeID, kind AttackKind) *Attacker {
	atk := NewAttacker(id, c.keys[id], c.clientKeys, kind, 1)
	c.mem.Intercept(id, atk.Intercept)
	return atk
}

// isolate cuts id off from every other endpoint, both ways, until the
// returned partition is reverted.
func (c *cluster) isolate(id transport.NodeID) *netem.Partition {
	p := netem.IsolateNode(c.net.Nodes(), id)
	c.net.Apply(p)
	return p
}

func (c *cluster) start() {
	for _, r := range c.replicas {
		r.Start()
	}
}

func (c *cluster) stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// client builds a client for the current membership.
func (c *cluster) client(i int) *Client {
	c.t.Helper()
	id := transport.ClientIDBase + transport.NodeID(i)
	cl, err := NewClient(ClientConfig{
		ID:             id,
		Key:            c.clientPriv[id],
		Replicas:       c.membership.Replicas,
		ReplicaKeys:    c.pubs,
		F:              c.membership.F(),
		Net:            c.net,
		RequestTimeout: c.clientTimeout,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

// controller builds the trusted controller client that signs reconfig
// operations.
func (c *cluster) controller() *Client {
	c.t.Helper()
	id := transport.ClientIDBase + 999
	cl, err := NewClient(ClientConfig{
		ID:             id,
		Key:            c.ctrlPriv,
		Replicas:       c.membership.Replicas,
		ReplicaKeys:    c.pubs,
		F:              c.membership.F(),
		Net:            c.net,
		RequestTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

// invoke runs one op with a deadline.
func invoke(t *testing.T, cl *Client, op string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	result, err := cl.Invoke(ctx, []byte(op))
	if err != nil {
		t.Fatalf("Invoke(%q): %v", op, err)
	}
	return result
}

// eventually polls a predicate.
func eventually(t *testing.T, timeout time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
