package kvs_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/bft/bfttest"
	"lazarus/internal/transport"
	"lazarus/internal/workload"
)

// plain hides everything but bft.Application, the way a decorator that
// predates bft.Checkpointer does.
type plain struct{ bft.Application }

// TestApplicationWithoutCheckpointer: an Application that does not
// implement bft.Checkpointer goes through the replica's adapter (Snapshot
// plus SHA-256 at every checkpoint) and must checkpoint, serve state and
// restore as it always did: checkpoints turn stable, and a replica cut off
// for longer than the log window comes back by state transfer and agrees
// with the others. The native store runs the same scenario beside it.
func TestApplicationWithoutCheckpointer(t *testing.T) {
	for name, factory := range map[string]bfttest.AppFactory{
		"echo":        func(transport.NodeID) bft.Application { return workload.EchoApp{} },
		"wrapped kvs": func(transport.NodeID) bft.Application { return plain{kvs.New()} },
		"native kvs":  func(transport.NodeID) bft.Application { return kvs.New() },
	} {
		t.Run(name, func(t *testing.T) {
			cluster, err := bfttest.Launch(factory, bfttest.Options{CheckpointInterval: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Stop()
			cl, err := cluster.Client(0)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			put := func(i int) {
				op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: fmt.Sprintf("key%d", i%7), Value: []byte(fmt.Sprintf("val%d", i))})
				if _, err := cl.Invoke(ctx, op); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}

			// Three checkpoint intervals without replica 3 put the group
			// past its window (2 x 4); the next ones tell it so.
			cluster.Net.Isolate(3)
			for i := 0; i < 14; i++ {
				put(i)
			}
			cluster.Net.Rejoin(3)
			for i := 14; i < 24; i++ {
				put(i)
			}

			deadline := time.Now().Add(20 * time.Second)
			for {
				lead, lag := cluster.Replicas[0].Stats(), cluster.Replicas[3].Stats()
				if lag.LastExecuted == lead.LastExecuted && lag.StateTransfers > 0 && lead.LowWater > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica 3 at %d after %d state transfers, replica 0 at %d with low water %d",
						lag.LastExecuted, lag.StateTransfers, lead.LastExecuted, lead.LowWater)
				}
				put(int(time.Now().UnixNano() % 7))
				time.Sleep(20 * time.Millisecond)
			}
			// No operation is in flight now; the two settle on one state.
			for {
				want, err := cluster.Apps[0].Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := cluster.Apps[3].Snapshot(); bytes.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the restored replica's state differs from replica 0's")
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
