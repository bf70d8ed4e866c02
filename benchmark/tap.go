package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// tracer is the benchmark's view into the layers, taken from outside: a
// tap around the network (outermost, so it sees what replicas and clients
// hand to and take from the transport stack), a tap around every
// application, and the metrics registry the layers already know how to
// report into. It exists only in a traced run.
type tracer struct {
	reg *metrics.Registry
	// recording gates the network tap: frames are kept only while load
	// runs, not during set-up.
	recording atomic.Bool

	mu   sync.Mutex
	eps  map[transport.NodeID]*tapEndpoint
	apps []*appTap
}

func newTracer() *tracer {
	return &tracer{reg: metrics.NewRegistry(), eps: make(map[transport.NodeID]*tapEndpoint)}
}

// frameEvent is one frame crossing the tap.
type frameEvent struct {
	// at is when Send was called, or when Recv returned.
	at time.Time
	// call is how long the Send call took (zero for a Recv).
	call time.Duration
	// peer is the destination of a Send, the source of a Recv.
	peer    transport.NodeID
	payload []byte
}

type tapNetwork struct {
	transport.Network
	t *tracer
}

func (t *tracer) wrapNetwork(inner transport.Network) transport.Network {
	return &tapNetwork{Network: inner, t: t}
}

// Endpoint wraps the inner endpoint once per node.
func (n *tapNetwork) Endpoint(id transport.NodeID) (transport.Endpoint, error) {
	n.t.mu.Lock()
	defer n.t.mu.Unlock()
	if ep, ok := n.t.eps[id]; ok {
		return ep, nil
	}
	inner, err := n.Network.Endpoint(id)
	if err != nil {
		return nil, err
	}
	ep := &tapEndpoint{Endpoint: inner, t: n.t}
	n.t.eps[id] = ep
	return ep, nil
}

// tapEndpoint timestamps every Send call and every Recv return. Payloads
// are kept by reference: senders never change a payload after Send, and a
// received payload belongs to the receiver, which only reads it.
type tapEndpoint struct {
	transport.Endpoint
	t *tracer

	sendMu sync.Mutex
	sends  []frameEvent
	recvMu sync.Mutex
	recvs  []frameEvent
}

func (ep *tapEndpoint) Send(to transport.NodeID, payload []byte) error {
	if !ep.t.recording.Load() {
		return ep.Endpoint.Send(to, payload)
	}
	at := time.Now()
	err := ep.Endpoint.Send(to, payload)
	ev := frameEvent{at: at, call: time.Since(at), peer: to, payload: payload}
	ep.sendMu.Lock()
	ep.sends = append(ep.sends, ev)
	ep.sendMu.Unlock()
	return err
}

func (ep *tapEndpoint) Recv(ctx context.Context) (transport.Envelope, error) {
	env, err := ep.Endpoint.Recv(ctx)
	if err != nil || !ep.t.recording.Load() {
		return env, err
	}
	ev := frameEvent{at: time.Now(), peer: env.From, payload: env.Payload}
	ep.recvMu.Lock()
	ep.recvs = append(ep.recvs, ev)
	ep.recvMu.Unlock()
	return env, nil
}

// appTap times the calls a replica makes into its application.
type appTap struct {
	inner bft.Application

	mu        sync.Mutex
	executes  []appCall
	snapshots []appCall
	restores  []appCall
}

// appCall is one timed call into an application.
type appCall struct {
	at  time.Time
	dur time.Duration
}

func (t *tracer) wrapApp(inner bft.Application) bft.Application {
	tap := &appTap{inner: inner}
	t.mu.Lock()
	t.apps = append(t.apps, tap)
	t.mu.Unlock()
	return tap
}

func (a *appTap) record(into *[]appCall, start time.Time) {
	call := appCall{at: start, dur: time.Since(start)}
	a.mu.Lock()
	*into = append(*into, call)
	a.mu.Unlock()
}

func (a *appTap) Execute(op []byte) []byte {
	defer a.record(&a.executes, time.Now())
	return a.inner.Execute(op)
}

func (a *appTap) Snapshot() ([]byte, error) {
	defer a.record(&a.snapshots, time.Now())
	return a.inner.Snapshot()
}

func (a *appTap) Restore(snapshot []byte) error {
	defer a.record(&a.restores, time.Now())
	return a.inner.Restore(snapshot)
}

// appCalls gathers the application calls of every tapped replica.
func (t *tracer) appCalls() (executes, snapshots, restores []appCall) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range t.apps {
		a.mu.Lock()
		executes = append(executes, a.executes...)
		snapshots = append(snapshots, a.snapshots...)
		restores = append(restores, a.restores...)
		a.mu.Unlock()
	}
	return executes, snapshots, restores
}

// release drops the recorded frames once they have been analysed.
func (t *tracer) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ep := range t.eps {
		ep.sendMu.Lock()
		ep.sends = nil
		ep.sendMu.Unlock()
		ep.recvMu.Lock()
		ep.recvs = nil
		ep.recvMu.Unlock()
	}
}
