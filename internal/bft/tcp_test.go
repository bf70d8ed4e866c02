package bft

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestOrderingOverTCP runs the full protocol over real sockets with
// authenticated frames (the deployment transport) instead of the
// in-memory switchboard.
func TestOrderingOverTCP(t *testing.T) {
	c := newClusterOver(t, clusterNet{tcp: true}, 4, 1, func(cfg *ReplicaConfig) {
		cfg.CheckpointInterval = 16
		cfg.ViewChangeTimeout = 500 * time.Millisecond
	})
	c.start()
	defer c.stop()
	c.clientTimeout = time.Second
	client := c.client(0)
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var want int64
	for i := 1; i <= 8; i++ {
		want += int64(i)
		res, err := client.Invoke(ctx, []byte(fmt.Sprintf("add %d", i)))
		if err != nil {
			t.Fatalf("invoke %d over TCP: %v", i, err)
		}
		if decodeInt(res) != want {
			t.Fatalf("result %d, want %d", decodeInt(res), want)
		}
	}
	eventually(t, 10*time.Second, "TCP replica convergence", func() bool {
		for _, app := range c.apps {
			if app.Value() != want {
				return false
			}
		}
		return true
	})

	// A full protocol run must be visible in the transport counters.
	st := c.net.Stats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.Dials == 0 {
		t.Errorf("transport counters silent after a BFT run: %+v", st)
	}
	if st.DropsAuthFail != 0 || st.DropsMisrouted != 0 {
		t.Errorf("unexpected hostile-frame drops on a clean run: %+v", st)
	}
}
