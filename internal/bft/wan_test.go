package bft

import (
	"context"
	"crypto/ed25519"
	"testing"
	"time"

	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// wanHarness is a 4-replica cluster over a netem-wrapped transport, for
// the partition-healing matrix.
type wanHarness struct {
	net     *netem.Network
	members []transport.NodeID
	reps    []*Replica
	apps    map[transport.NodeID]*counterApp
	cl      *Client
}

// newWANHarness builds and starts the cluster over the given inner
// transport kind ("memory" or "tcp"), wrapped in a netem layer with the
// named profile: "lan" for fast links, where the partition machinery is
// what is under test, or a WAN profile to run the static progress timer
// at that latency.
func newWANHarness(t *testing.T, kind, profile string) *wanHarness {
	t.Helper()
	const n = 4
	clientID := transport.ClientIDBase
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}

	pubs := make(map[transport.NodeID]ed25519.PublicKey, n)
	privs := make(map[transport.NodeID]ed25519.PrivateKey, n)
	for _, id := range ids {
		pubs[id], privs[id] = keypair(t)
	}
	clientPub, clientPriv := keypair(t)
	ctrlPub, _ := keypair(t)

	var inner transport.Network
	switch kind {
	case "memory":
		inner = transport.NewMemory(transport.MemoryConfig{Seed: 1})
	case "tcp":
		ports := freePorts(t, n+1)
		addrs := make(map[transport.NodeID]string, n+1)
		for i, id := range ids {
			addrs[id] = ports[i]
		}
		addrs[clientID] = ports[n]
		keys, identities := linkIdentities(pubs, privs, clientID, clientPub, clientPriv)
		tnet, err := transport.NewTCP(transport.TCPConfig{
			Addrs:      addrs,
			Keys:       keys,
			Identities: identities,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		inner = tnet
	default:
		t.Fatalf("unknown transport kind %q", kind)
	}
	prof, err := netem.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	wnet := netem.Wrap(inner, netem.Config{Profile: prof, Seed: 1})

	membership, err := NewMembership(ids, pubs)
	if err != nil {
		t.Fatal(err)
	}

	h := &wanHarness{net: wnet, members: ids, apps: make(map[transport.NodeID]*counterApp, n)}
	for _, id := range ids {
		app := &counterApp{}
		h.apps[id] = app
		r, err := NewReplica(ReplicaConfig{
			ID:                 id,
			Key:                privs[id],
			Membership:         membership,
			App:                app,
			Net:                wnet,
			ClientKeys:         map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
			ControllerKey:      ctrlPub,
			BatchDelay:         time.Millisecond,
			CheckpointInterval: 16,
			// Longer than the partition's open window: recovery below is
			// attributable to the heal, not to a view change that raced it.
			ViewChangeTimeout: 1200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		h.reps = append(h.reps, r)
	}
	t.Cleanup(func() {
		for _, r := range h.reps {
			r.Stop()
		}
		wnet.Close()
	})

	cl, err := NewClient(ClientConfig{
		ID:             clientID,
		Key:            clientPriv,
		Replicas:       ids,
		ReplicaKeys:    pubs,
		F:              membership.F(),
		Net:            wnet,
		RequestTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	h.cl = cl
	return h
}

func (h *wanHarness) maxView() uint64 {
	var out uint64
	for _, r := range h.reps {
		if v := r.Stats().CurrentView; v > out {
			out = v
		}
	}
	return out
}

// TestPartitionHealingMatrix runs the three partition shapes over both
// transports: each must stall commit progress while open (the quorum,
// or the path to the primary, is broken and the progress timer has not
// yet fired) and recover within a bounded number of views after heal.
// One more row isolates the primary under geo3 (cross-region links of
// 8–22 ms ±3 ms each way with 1% loss), at the same static 1.2s timer the
// WAN chaos run gives its replicas.
func TestPartitionHealingMatrix(t *testing.T) {
	kinds := []struct {
		name  string
		build func(members []transport.NodeID, primary transport.NodeID) *netem.Partition
	}{
		{"symmetric-split", func(m []transport.NodeID, _ transport.NodeID) *netem.Partition {
			return netem.SymmetricSplit(m, len(m)/2)
		}},
		{"asymmetric-primary-mute", func(m []transport.NodeID, p transport.NodeID) *netem.Partition {
			// The primary hears everyone; nobody hears the primary.
			return netem.AsymmetricMute(m, p)
		}},
		{"primary-isolated", func(m []transport.NodeID, p transport.NodeID) *netem.Partition {
			return netem.IsolateNode(m, p)
		}},
	}
	networks := []struct{ name, tr, profile, only string }{
		{"memory", "memory", "lan", ""},
		{"tcp", "tcp", "lan", ""},
		{"memory-geo3", "memory", "geo3", "primary-isolated"},
	}
	for _, nw := range networks {
		for _, kind := range kinds {
			if nw.only != "" && kind.name != nw.only {
				continue
			}
			t.Run(nw.name+"/"+kind.name, func(t *testing.T) {
				h := newWANHarness(t, nw.tr, nw.profile)

				// Warm-up: the cluster commits on the conditioned network.
				if got := decodeInt(invoke(t, h.cl, "add 1")); got != 1 {
					t.Fatalf("warm-up result %d, want 1", got)
				}

				view := h.reps[0].Stats().CurrentView
				primary := transport.NodeID(int(view) % len(h.members))
				p := kind.build(h.members, primary)
				h.net.Apply(p)

				// While open: no quorum can assemble (or the primary cannot
				// reach one), so a short-deadline invoke must fail. The
				// deadline is far below ViewChangeTimeout, so a view change
				// cannot be what breaks the stall.
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				_, err := h.cl.Invoke(ctx, []byte("add 2"))
				cancel()
				if err == nil {
					t.Fatalf("%s: commit went through with the partition open", p.Desc)
				}

				h.net.Revert(p)

				// After heal: commits recover...
				if res := invoke(t, h.cl, "add 3"); decodeInt(res) < 4 {
					t.Fatalf("post-heal result %d, want >= 4", decodeInt(res))
				}
				// ...every replica converges on the same state...
				eventually(t, 10*time.Second, "replica convergence after heal", func() bool {
					want := h.apps[h.members[0]].Value()
					for _, app := range h.apps {
						if app.Value() != want {
							return false
						}
					}
					return want >= 4
				})
				// ...and within a bounded number of views: the stall plus
				// recovery spans at most a few progress timeouts, so view
				// escalation must stay small instead of storming.
				if v := h.maxView(); v > 4 {
					t.Fatalf("view escalated to %d during a single partition episode", v)
				}
			})
		}
	}
}
