package transport_test

import (
	"context"
	"testing"
	"time"

	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// The memory network carries no partitions of its own: tests cut links by
// wrapping it in netem, with no profile, and applying a Partition. These
// tests pin that a cut memory link loses frames silently and delivers
// again once healed.

func partitioned(t *testing.T, ids ...transport.NodeID) (*netem.Network, map[transport.NodeID]transport.Endpoint) {
	t.Helper()
	n := netem.Wrap(transport.NewMemory(transport.MemoryConfig{}), netem.Config{})
	t.Cleanup(func() { n.Close() })
	eps := make(map[transport.NodeID]transport.Endpoint)
	for _, id := range ids {
		ep, err := n.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	return n, eps
}

func recvNothing(t *testing.T, ep transport.Endpoint, why string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if env, err := ep.Recv(ctx); err == nil {
		t.Fatalf("%s: received %q from %d", why, env.Payload, env.From)
	}
}

func recvPayload(t *testing.T, ep transport.Endpoint, want string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	env, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv on %d: %v", ep.ID(), err)
	}
	if string(env.Payload) != want {
		t.Errorf("payload = %q, want %q", env.Payload, want)
	}
}

func TestMemoryCutAndHeal(t *testing.T) {
	n, eps := partitioned(t, 1, 2)
	cut := &netem.Partition{Kind: "cut", Desc: "cut[1-2]", Edges: [][2]transport.NodeID{{1, 2}, {2, 1}}}
	n.Apply(cut)
	if err := eps[1].Send(2, []byte("lost")); err != nil {
		t.Fatalf("send over cut link errored: %v", err)
	}
	recvNothing(t, eps[2], "message crossed a cut link")
	n.Revert(cut)
	if err := eps[1].Send(2, []byte("back")); err != nil {
		t.Fatal(err)
	}
	recvPayload(t, eps[2], "back")
}

func TestMemoryIsolateRejoin(t *testing.T) {
	ids := []transport.NodeID{1, 2, 3}
	n, eps := partitioned(t, ids...)
	iso := netem.IsolateNode(ids, 2)
	n.Apply(iso)
	eps[1].Send(2, []byte("x"))
	eps[3].Send(2, []byte("y"))
	recvNothing(t, eps[2], "isolated node received a message")
	eps[2].Send(1, []byte("out"))
	recvNothing(t, eps[1], "isolated node's message got out")
	n.Revert(iso)
	eps[1].Send(2, []byte("z"))
	recvPayload(t, eps[2], "z")
}
