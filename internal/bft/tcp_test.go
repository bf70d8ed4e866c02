package bft

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"testing"
	"time"

	"lazarus/internal/transport"
)

// freePorts grabs n distinct loopback addresses.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// TestOrderingOverTCP runs the full protocol over real sockets with
// authenticated frames (the deployment transport) instead of the
// in-memory switchboard.
func TestOrderingOverTCP(t *testing.T) {
	const n = 4
	clientID := transport.ClientIDBase
	ports := freePorts(t, n+1)
	addrs := make(map[transport.NodeID]string, n+1)
	ids := make([]transport.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = transport.NodeID(i)
		addrs[ids[i]] = ports[i]
	}
	addrs[clientID] = ports[n]
	tnet, err := transport.NewTCP(transport.TCPConfig{
		Addrs:  addrs,
		Secret: []byte("bft-over-tcp-test"),
		// Tight deadlines: a wedged replica must cost milliseconds, not
		// OS-default connect timeouts, even in this happy-path test.
		DialTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tnet.Close()

	pubs := make(map[transport.NodeID]ed25519.PublicKey, n)
	privs := make(map[transport.NodeID]ed25519.PrivateKey, n)
	for _, id := range ids {
		pubs[id], privs[id] = keypair(t)
	}
	clientPub, clientPriv := keypair(t)
	ctrlPub, _ := keypair(t)
	membership, err := NewMembership(ids, pubs)
	if err != nil {
		t.Fatal(err)
	}

	apps := make(map[transport.NodeID]*counterApp, n)
	var replicas []*Replica
	for _, id := range ids {
		app := &counterApp{}
		apps[id] = app
		r, err := NewReplica(ReplicaConfig{
			ID:                 id,
			Key:                privs[id],
			Membership:         membership,
			App:                app,
			Net:                tnet,
			ClientKeys:         map[transport.NodeID]ed25519.PublicKey{clientID: clientPub},
			ControllerKey:      ctrlPub,
			BatchDelay:         time.Millisecond,
			CheckpointInterval: 16,
			ViewChangeTimeout:  500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	client, err := NewClient(ClientConfig{
		ID:             clientID,
		Key:            clientPriv,
		Replicas:       ids,
		ReplicaKeys:    pubs,
		F:              membership.F(),
		Net:            tnet,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
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
		for _, app := range apps {
			if app.Value() != want {
				return false
			}
		}
		return true
	})

	// A full protocol run must be visible in the transport counters.
	st := tnet.Stats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.Dials == 0 {
		t.Errorf("transport counters silent after a BFT run: %+v", st)
	}
	if st.DropsAuthFail != 0 || st.DropsMisrouted != 0 {
		t.Errorf("unexpected hostile-frame drops on a clean run: %+v", st)
	}
}
