package bft

import (
	"context"
	"testing"
	"time"

	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// maxView is the highest view any replica is in.
func (c *cluster) maxView() uint64 {
	var out uint64
	for _, r := range c.replicas {
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
	// "lan" for fast links, where the partition machinery is what is under
	// test, or a WAN profile to run the static progress timer at that
	// latency.
	networks := []struct {
		name string
		over clusterNet
		only string
	}{
		{"memory", clusterNet{profile: "lan"}, ""},
		{"tcp", clusterNet{tcp: true, profile: "lan"}, ""},
		{"memory-geo3", clusterNet{profile: "geo3"}, "primary-isolated"},
	}
	for _, nw := range networks {
		for _, kind := range kinds {
			if nw.only != "" && kind.name != nw.only {
				continue
			}
			t.Run(nw.name+"/"+kind.name, func(t *testing.T) {
				c := newClusterOver(t, nw.over, 4, 1, func(cfg *ReplicaConfig) {
					cfg.CheckpointInterval = 16
					// Longer than the partition's open window: recovery
					// below is attributable to the heal, not to a view
					// change that raced it.
					cfg.ViewChangeTimeout = 1200 * time.Millisecond
				})
				c.start()
				t.Cleanup(c.stop)
				cl := c.client(0)
				t.Cleanup(func() { cl.Close() })

				// Warm-up: the cluster commits on the conditioned network.
				if got := decodeInt(invoke(t, cl, "add 1")); got != 1 {
					t.Fatalf("warm-up result %d, want 1", got)
				}

				members := c.membership.Replicas
				view := c.replicas[0].Stats().CurrentView
				primary := transport.NodeID(int(view) % len(members))
				p := kind.build(members, primary)
				c.net.Apply(p)

				// While open: no quorum can assemble (or the primary cannot
				// reach one), so a short-deadline invoke must fail. The
				// deadline is far below ViewChangeTimeout, so a view change
				// cannot be what breaks the stall.
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				_, err := cl.Invoke(ctx, []byte("add 2"))
				cancel()
				if err == nil {
					t.Fatalf("%s: commit went through with the partition open", p.Desc)
				}

				c.net.Revert(p)

				// After heal: commits recover...
				if res := invoke(t, cl, "add 3"); decodeInt(res) < 4 {
					t.Fatalf("post-heal result %d, want >= 4", decodeInt(res))
				}
				// ...every replica converges on the same state...
				eventually(t, 10*time.Second, "replica convergence after heal", func() bool {
					want := c.apps[members[0]].Value()
					for _, app := range c.apps {
						if app.Value() != want {
							return false
						}
					}
					return want >= 4
				})
				// ...and within a bounded number of views: the stall plus
				// recovery spans at most a few progress timeouts, so view
				// escalation must stay small instead of storming.
				if v := c.maxView(); v > 4 {
					t.Fatalf("view escalated to %d during a single partition episode", v)
				}
			})
		}
	}
}
