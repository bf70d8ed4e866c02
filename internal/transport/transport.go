// Package transport carries messages between BFT nodes. It offers an
// in-memory switchboard with programmable loss and partitions
// (for deterministic protocol tests) and a TCP transport with
// authenticated, length-prefixed frames (for multi-process deployments).
// Both present the same interface to the BFT layer.
package transport

import (
	"context"
	"errors"
)

// NodeID identifies a protocol participant. Replicas use small integers;
// clients use ids offset by ClientIDBase.
type NodeID int

// ClientIDBase offsets client identifiers from replica identifiers.
const ClientIDBase NodeID = 1000

// IsClient reports whether the id denotes a client.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

// Envelope is one routed message: an opaque payload plus routing metadata.
// The payload is the BFT layer's serialized message; the transport never
// inspects it.
type Envelope struct {
	// From and To route the message.
	From, To NodeID
	// Payload is the serialized protocol message.
	Payload []byte
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// SendInterceptor rewrites one node's outbound traffic: given the
// destination and the payload about to leave, it returns the payloads
// actually handed to the network — the original to pass through, none
// to censor the send, or several to equivocate or inject extras. It is
// the hook the Byzantine chaos harness uses to turn a correct replica's
// endpoint into an attacker's. Implementations must be safe for
// concurrent use and must not call back into the network.
type SendInterceptor func(to NodeID, payload []byte) [][]byte

// RecvObserver sees one node's inbound traffic: every payload delivered
// to it, and who sent it. It may not change or keep the payload. The
// Byzantine harness uses it to let an attacker know what its replica was
// asked. Implementations must be safe for concurrent use and must not call
// back into the network.
type RecvObserver func(from NodeID, payload []byte)

// Endpoint is one node's connection to the network.
type Endpoint interface {
	// ID returns the node this endpoint belongs to.
	ID() NodeID
	// Send routes a message to one destination. Sends are best-effort
	// and non-blocking: the network may drop, delay or reorder.
	Send(to NodeID, payload []byte) error
	// Recv blocks until a message arrives or ctx is done.
	Recv(ctx context.Context) (Envelope, error)
	// Close releases the endpoint.
	Close() error
}

// Network hands out endpoints.
type Network interface {
	// Endpoint returns the endpoint of the given node, creating it if
	// needed.
	Endpoint(id NodeID) (Endpoint, error)
	// Stats returns a snapshot of the network's transport counters
	// (frames, bytes, dials and per-cause drops).
	Stats() Stats
	// Close shuts the network down.
	Close() error
}
