package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"lazarus/internal/metrics"
)

// MemoryConfig shapes the simulated network.
type MemoryConfig struct {
	// QueueDepth is each endpoint's inbox capacity (default 4096).
	// Sends to a full inbox are dropped, as a real lossy network would.
	QueueDepth int
	// DropRate is the probability in [0,1) that a message is lost.
	DropRate float64
	// Seed drives the loss randomness.
	Seed int64
	// Metrics optionally registers the network's counters under
	// "transport.memory.*"; nil keeps them Stats()-only.
	Metrics *metrics.Registry
}

// Memory is an in-process switchboard connecting endpoints by NodeID, with
// programmable loss, per-link cuts and partitions. It is the deterministic
// substrate for protocol tests; latency comes from wrapping it in netem.
type Memory struct {
	cfg   MemoryConfig
	stats counters

	mu           sync.Mutex
	endpoints    map[NodeID]*memEndpoint
	cut          map[[2]NodeID]bool
	interceptors map[NodeID]SendInterceptor
	rng          *rand.Rand
	closed       bool
}

// NewMemory builds an in-memory network.
func NewMemory(cfg MemoryConfig) *Memory {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	m := &Memory{
		cfg:          cfg,
		endpoints:    make(map[NodeID]*memEndpoint),
		cut:          make(map[[2]NodeID]bool),
		interceptors: make(map[NodeID]SendInterceptor),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
	}
	m.stats.init(cfg.Metrics, "transport.memory")
	return m
}

var _ Network = (*Memory)(nil)

// Stats implements Network.
func (m *Memory) Stats() Stats { return m.stats.snapshot() }

type memEndpoint struct {
	id     NodeID
	net    *Memory
	inbox  chan Envelope
	closed chan struct{}
	once   sync.Once
}

// Endpoint implements Network.
func (m *Memory) Endpoint(id NodeID) (Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if ep, ok := m.endpoints[id]; ok {
		return ep, nil
	}
	ep := &memEndpoint{
		id:     id,
		net:    m,
		inbox:  make(chan Envelope, m.cfg.QueueDepth),
		closed: make(chan struct{}),
	}
	m.endpoints[id] = ep
	return ep, nil
}

// Cut severs the link between two nodes in both directions.
func (m *Memory) Cut(a, b NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[link(a, b)] = true
}

// Heal restores a previously cut link.
func (m *Memory) Heal(a, b NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, link(a, b))
}

// Isolate cuts every link of the node (a crash or a partition of one).
func (m *Memory) Isolate(id NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for other := range m.endpoints {
		if other != id {
			m.cut[link(id, other)] = true
		}
	}
}

// Rejoin heals every link of the node.
func (m *Memory) Rejoin(id NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for other := range m.endpoints {
		delete(m.cut, link(id, other))
	}
}

// Intercept installs fn as the per-sender payload interceptor for id:
// every Send from id first passes through fn, and whatever payloads it
// returns are delivered in the original's place. fn runs outside the
// network lock. A nil fn removes the hook.
func (m *Memory) Intercept(id NodeID, fn SendInterceptor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fn == nil {
		delete(m.interceptors, id)
		return
	}
	m.interceptors[id] = fn
}

func link(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Close implements Network.
func (m *Memory) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	eps := make([]*memEndpoint, 0, len(m.endpoints))
	for _, ep := range m.endpoints {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		ep.shut()
	}
	return nil
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() NodeID { return ep.id }

// Send implements Endpoint. If a SendInterceptor is installed for this
// sender, the payload is rewritten (outside the network lock) before
// normal cut/loss handling applies to each resulting payload.
func (ep *memEndpoint) Send(to NodeID, payload []byte) error {
	m := ep.net
	m.mu.Lock()
	fn := m.interceptors[ep.id]
	m.mu.Unlock()
	if fn == nil {
		return ep.sendOne(to, payload)
	}
	var first error
	for _, p := range fn(to, payload) {
		if err := ep.sendOne(to, p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ep *memEndpoint) sendOne(to NodeID, payload []byte) error {
	m := ep.net
	st := &m.stats
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	select {
	case <-ep.closed:
		m.mu.Unlock()
		return ErrClosed
	default:
	}
	if m.cut[link(ep.id, to)] {
		m.mu.Unlock()
		st.dropsLossy.Add(1)
		return nil // silently lost, like a partitioned network
	}
	dst, ok := m.endpoints[to]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("transport: unknown destination %d", to)
	}
	drop := m.cfg.DropRate > 0 && m.rng.Float64() < m.cfg.DropRate
	m.mu.Unlock()
	if drop {
		st.dropsLossy.Add(1)
		return nil
	}
	env := Envelope{From: ep.id, To: to, Payload: append([]byte(nil), payload...)}
	st.framesSent.Add(1)
	st.bytesSent.Add(int64(len(payload)))
	select {
	case dst.inbox <- env:
		st.framesRecv.Add(1)
		st.bytesRecv.Add(int64(len(env.Payload)))
	case <-dst.closed:
	default: // inbox full: lossy network drops
		st.dropsInboxFull.Add(1)
	}
	return nil
}

// Recv implements Endpoint.
func (ep *memEndpoint) Recv(ctx context.Context) (Envelope, error) {
	select {
	case env := <-ep.inbox:
		return env, nil
	case <-ep.closed:
		// Drain anything already queued before reporting closure.
		select {
		case env := <-ep.inbox:
			return env, nil
		default:
			return Envelope{}, ErrClosed
		}
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

func (ep *memEndpoint) shut() {
	ep.once.Do(func() { close(ep.closed) })
}

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.shut()
	return nil
}
