package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"lazarus/internal/metrics"
)

// memInboxDepth is each endpoint's inbox capacity. Sends to a full inbox
// are dropped, as a real lossy network would.
const memInboxDepth = 4096

// MemoryConfig shapes the simulated network.
type MemoryConfig struct {
	// DropRate is the probability in [0,1] that a message is lost.
	DropRate float64
	// Seed drives the loss randomness.
	Seed int64
	// Metrics optionally registers the network's counters under
	// "transport.memory.*"; nil keeps them Stats()-only.
	Metrics *metrics.Registry
}

// Memory is an in-process switchboard connecting endpoints by NodeID, with
// programmable loss. It is the deterministic substrate for protocol tests;
// latency and partitions come from wrapping it in netem.
type Memory struct {
	cfg   MemoryConfig
	stats counters
	// inboxDepth is memInboxDepth, set by NewMemory; the package's tests
	// shrink it before opening endpoints.
	inboxDepth int

	mu           sync.Mutex
	endpoints    map[NodeID]*memEndpoint
	interceptors map[NodeID]SendInterceptor
	observers    map[NodeID]RecvObserver
	rng          *rand.Rand
	closed       bool
}

// NewMemory builds an in-memory network.
func NewMemory(cfg MemoryConfig) *Memory {
	m := &Memory{
		cfg:          cfg,
		inboxDepth:   memInboxDepth,
		endpoints:    make(map[NodeID]*memEndpoint),
		interceptors: make(map[NodeID]SendInterceptor),
		observers:    make(map[NodeID]RecvObserver),
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
		inbox:  make(chan Envelope, m.inboxDepth),
		closed: make(chan struct{}),
	}
	m.endpoints[id] = ep
	return ep, nil
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

// Observe installs fn as the observer of id's inbound traffic: it sees
// every payload delivered to id, outside the network lock. A nil fn
// removes the hook.
func (m *Memory) Observe(id NodeID, fn RecvObserver) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fn == nil {
		delete(m.observers, id)
		return
	}
	m.observers[id] = fn
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
// normal loss handling applies to each resulting payload.
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
	dst, ok := m.endpoints[to]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("transport: unknown destination %d", to)
	}
	drop := m.cfg.DropRate > 0 && m.rng.Float64() < m.cfg.DropRate
	observe := m.observers[to]
	m.mu.Unlock()
	if drop {
		st.dropsLossy.Add(1)
		return nil
	}
	env := Envelope{From: ep.id, To: to, Payload: append([]byte(nil), payload...)}
	if observe != nil {
		observe(ep.id, env.Payload)
	}
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
