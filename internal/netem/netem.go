// Package netem is a deterministic network-condition layer: it wraps any
// transport.Network (the in-memory switchboard or the TCP transport) and
// subjects every directed link to a configurable latency/jitter
// distribution, a bandwidth cap, drop/duplicate/reorder rates, and
// directed partitions (A can hear B while B cannot hear A). Every random
// decision on a link is drawn from that link's own seeded RNG stream, so
// two runs with the same seed and the same send sequence make identical
// drop/duplicate/reorder decisions — the property the chaos harness's
// replay tests depend on.
//
// The wrapper sits strictly on the send side: a delayed frame is held in
// a lifecycle-tied goroutine and handed to the inner network's Send when
// its delivery time arrives. Partitions live here, and only here, so they
// work over any inner network. The inner network keeps its queues and
// interceptors; a caller that intercepts keeps its own handle on it, as
// the chaos harness does.
package netem

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// Config configures the condition layer.
type Config struct {
	// Profile selects the per-link conditions. Nil conditions nothing:
	// frames forward inline, with no delay and no rng draw, and only an
	// applied partition drops them.
	Profile *Profile
	// Seed roots the per-directed-link RNG streams. Link (src,dst) draws
	// from a stream derived as Seed^(src<<32)^dst, so the decisions on
	// one link do not depend on traffic order across links.
	Seed int64
	// Metrics optionally registers the layer's counters under "netem.*".
	Metrics *metrics.Registry
}

// Network wraps an inner transport with link conditioning. It implements
// transport.Network.
type Network struct {
	inner   transport.Network
	profile *Profile
	seed    int64
	ins     instruments

	mu      sync.Mutex
	links   map[[2]transport.NodeID]*linkState
	blocked map[[2]transport.NodeID]int // directed [src,dst] -> partitions blocking it
	nodes   map[transport.NodeID]bool   // every id an endpoint was opened for
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// linkState is the per-directed-link conditioning state.
type linkState struct {
	rng   *rand.Rand
	class LinkClass
	// nextFree is when the link's serialization pipe drains; a frame
	// sent before then queues behind the bytes already in flight
	// (bandwidth cap as a single-server queue).
	nextFree time.Time
}

// instruments are the layer's registry-backed counters; with a nil
// registry they still count, just unregistered.
type instruments struct {
	frames     *metrics.Counter
	delayed    *metrics.Counter
	dropsLink  *metrics.Counter
	dropsPart  *metrics.Counter
	duplicates *metrics.Counter
	reordered  *metrics.Counter
	delayUS    *metrics.Histogram
}

func (ins *instruments) init(reg *metrics.Registry) {
	ins.frames = reg.Counter("netem.frames")
	ins.delayed = reg.Counter("netem.delayed")
	ins.dropsLink = reg.Counter("netem.drops_link")
	ins.dropsPart = reg.Counter("netem.drops_partition")
	ins.duplicates = reg.Counter("netem.duplicates")
	ins.reordered = reg.Counter("netem.reordered")
	ins.delayUS = reg.Histogram("netem.delay_us")
}

// Stats is a snapshot of the layer's counters.
type Stats struct {
	Frames         int64 // frames entering the layer
	Delayed        int64 // frames held for a nonzero delay
	DropsLink      int64 // frames shed by the link's loss rate
	DropsPartition int64 // frames shed by an open partition
	Duplicates     int64 // extra copies injected
	Reordered      int64 // frames given an extra reorder delay
}

// Wrap builds the condition layer over inner. Closing the returned
// network closes inner too.
func Wrap(inner transport.Network, cfg Config) *Network {
	n := &Network{
		inner:   inner,
		profile: cfg.Profile,
		seed:    cfg.Seed,
		links:   make(map[[2]transport.NodeID]*linkState),
		blocked: make(map[[2]transport.NodeID]int),
		nodes:   make(map[transport.NodeID]bool),
		done:    make(chan struct{}),
	}
	n.ins.init(cfg.Metrics)
	return n
}

// NetemStats snapshots the layer's own counters (distinct from the inner
// transport's Stats, which Stats() passes through).
func (n *Network) NetemStats() Stats {
	return Stats{
		Frames:         n.ins.frames.Value(),
		Delayed:        n.ins.delayed.Value(),
		DropsLink:      n.ins.dropsLink.Value(),
		DropsPartition: n.ins.dropsPart.Value(),
		Duplicates:     n.ins.duplicates.Value(),
		Reordered:      n.ins.reordered.Value(),
	}
}

// Stats implements transport.Network by delegating to the inner network.
func (n *Network) Stats() transport.Stats { return n.inner.Stats() }

// Endpoint wraps the inner endpoint of id.
func (n *Network) Endpoint(id transport.NodeID) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.nodes[id] = true
	n.mu.Unlock()
	return &endpoint{net: n, inner: ep, id: id}, nil
}

// Nodes lists, in ascending order, every id an endpoint was opened for:
// the peers an IsolateNode over them cuts a node off from.
func (n *Network) Nodes() []transport.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]transport.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Close drains the delay goroutines, then closes the inner network.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return n.inner.Close()
	}
	n.closed = true
	close(n.done)
	n.mu.Unlock()
	n.wg.Wait()
	return n.inner.Close()
}

// Apply opens every directed edge of the partition. Partitions compose:
// an edge stays blocked until every partition blocking it is reverted.
func (n *Network) Apply(p *Partition) {
	n.mu.Lock()
	for _, e := range p.Edges {
		n.blocked[e]++
	}
	n.mu.Unlock()
}

// Revert heals every directed edge of the partition.
func (n *Network) Revert(p *Partition) {
	n.mu.Lock()
	for _, e := range p.Edges {
		if n.blocked[e]--; n.blocked[e] <= 0 {
			delete(n.blocked, e)
		}
	}
	n.mu.Unlock()
}

// link returns (creating if needed) the state of directed link src→dst.
// Caller holds n.mu.
func (n *Network) link(src, dst transport.NodeID) *linkState {
	key := [2]transport.NodeID{src, dst}
	ls, ok := n.links[key]
	if !ok {
		ls = &linkState{
			rng:   rand.New(rand.NewSource(linkSeed(n.seed, src, dst))),
			class: n.profile.Link(src, dst),
		}
		n.links[key] = ls
	}
	return ls
}

// linkSeed derives the RNG stream of directed link src→dst from the
// layer seed. Mirrors the TCP transport's jitterSeed construction.
func linkSeed(seed int64, src, dst transport.NodeID) int64 {
	return seed ^ int64(src)<<32 ^ int64(dst)
}

// delivery is one planned frame arrival.
type delivery struct {
	delay     time.Duration
	duplicate bool
}

// plan decides, under the network lock, what happens to one frame on
// src→dst: every conditioned call consumes exactly four draws from the
// link's RNG stream (drop, duplicate, jitter, reorder) regardless of
// outcome, so the stream position depends only on how many frames the
// link carried — never on which way earlier decisions went.
func (n *Network) plan(src, dst transport.NodeID, size int) (dels []delivery, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, false
	}
	n.ins.frames.Inc()
	if n.blocked[[2]transport.NodeID{src, dst}] > 0 {
		n.ins.dropsPart.Inc()
		return nil, true
	}
	if n.profile == nil {
		return []delivery{{}}, true
	}
	ls := n.link(src, dst)
	c := &ls.class
	pDrop := ls.rng.Float64()
	pDup := ls.rng.Float64()
	uJit := ls.rng.Float64()
	pReord := ls.rng.Float64()
	if c.DropRate > 0 && pDrop < c.DropRate {
		n.ins.dropsLink.Inc()
		return nil, true
	}
	delay := c.BaseDelay
	if c.Jitter > 0 {
		delay += time.Duration(uJit * float64(c.Jitter))
	}
	if c.BandwidthBPS > 0 {
		// Single-server queue: the frame starts transmitting when the
		// link's pipe drains, and occupies it for size/bandwidth.
		now := time.Now()
		start := now
		if ls.nextFree.After(now) {
			start = ls.nextFree
		}
		ser := time.Duration(size) * time.Second / time.Duration(c.BandwidthBPS)
		ls.nextFree = start.Add(ser)
		delay += start.Sub(now) + ser
	}
	if c.ReorderRate > 0 && pReord < c.ReorderRate {
		delay += c.ReorderDelay
		n.ins.reordered.Inc()
	}
	dels = append(dels, delivery{delay: delay})
	if c.DupRate > 0 && pDup < c.DupRate {
		// The duplicate trails the original by the link's base delay, the
		// usual shape of a retransmission-induced duplicate.
		dels = append(dels, delivery{delay: delay + c.BaseDelay, duplicate: true})
		n.ins.duplicates.Inc()
	}
	return dels, true
}

// endpoint conditions one node's outbound traffic.
type endpoint struct {
	net   *Network
	inner transport.Endpoint
	id    transport.NodeID
}

func (e *endpoint) ID() transport.NodeID { return e.id }

func (e *endpoint) Recv(ctx context.Context) (transport.Envelope, error) { return e.inner.Recv(ctx) }

func (e *endpoint) Close() error { return e.inner.Close() }

// Send plans the frame's fate under the link's conditions and forwards
// it to the inner transport, immediately or from a delay goroutine. The
// payload is forwarded by reference: senders never mutate a payload
// after Send (the BFT layer broadcasts one shared encoding), and the
// inner transport copies on delivery where it must.
func (e *endpoint) Send(to transport.NodeID, payload []byte) error {
	n := e.net
	dels, ok := n.plan(e.id, to, len(payload))
	if !ok {
		return transport.ErrClosed
	}
	for _, d := range dels {
		if d.delay <= 0 {
			e.forward(to, payload)
			continue
		}
		n.ins.delayed.Inc()
		n.ins.delayUS.Observe(d.delay.Microseconds())
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return transport.ErrClosed
		}
		// The Add must happen under n.mu while closed is known false:
		// Close marks the network closed under the same lock before it
		// calls Wait, so no Add can race the Wait.
		n.wg.Add(1)
		n.mu.Unlock()
		go e.deliverLater(to, payload, d.delay)
	}
	return nil
}

// deliverLater forwards the frame after its planned delay, or gives up
// when the layer closes.
func (e *endpoint) deliverLater(to transport.NodeID, payload []byte, delay time.Duration) {
	defer e.net.wg.Done()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		e.forward(to, payload)
	case <-e.net.done:
	}
}

// forward hands the frame to the inner transport; inner-side errors are
// absorbed (Send is best-effort by contract, and the inner network's own
// drop counters record the loss).
func (e *endpoint) forward(to transport.NodeID, payload []byte) {
	_ = e.inner.Send(to, payload)
}
