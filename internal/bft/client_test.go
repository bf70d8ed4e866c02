package bft

import (
	"context"
	"crypto/ed25519"
	"sync"
	"testing"
	"time"

	"lazarus/internal/transport"
)

// replicaKeys makes key pairs for replicas 0..n-1.
func replicaKeys(t *testing.T, n int) (map[transport.NodeID]ed25519.PublicKey, map[transport.NodeID]ed25519.PrivateKey) {
	t.Helper()
	pubs := make(map[transport.NodeID]ed25519.PublicKey, n)
	privs := make(map[transport.NodeID]ed25519.PrivateKey, n)
	for i := 0; i < n; i++ {
		pubs[transport.NodeID(i)], privs[transport.NodeID(i)] = keypair(t)
	}
	return pubs, privs
}

// signedReply is what replica from, holding key, would send the first
// client in answer to its request 1.
func signedReply(t *testing.T, from transport.NodeID, result string, key ed25519.PrivateKey) []byte {
	t.Helper()
	msg := &Message{Type: MsgReply, From: from, ReplySeq: 1,
		ReplyClient: transport.ClientIDBase, Result: []byte(result)}
	msg.Sign(key)
	return mustEncode(t, msg)
}

// keepSending has ep send payload to the first client every few
// milliseconds until stop closes.
func keepSending(stop <-chan struct{}, wg *sync.WaitGroup, ep transport.Endpoint, payload []byte) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep.Send(transport.ClientIDBase, payload)
			time.Sleep(5 * time.Millisecond)
		}
	}()
}

func TestNewClientValidation(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	_, priv := keypair(t)
	pubs, _ := replicaKeys(t, 4)
	base := ClientConfig{
		ID:          transport.ClientIDBase,
		Key:         priv,
		Replicas:    []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys: pubs,
		F:           1,
		Net:         net,
	}
	if _, err := NewClient(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.ID = 3 // replica-range id
	if _, err := NewClient(bad); err == nil {
		t.Error("replica-range client id accepted")
	}
	bad = base
	bad.Key = nil
	if _, err := NewClient(bad); err == nil {
		t.Error("missing key accepted")
	}
	bad = base
	bad.Replicas = nil
	if _, err := NewClient(bad); err == nil {
		t.Error("empty replica set accepted")
	}
	bad = base
	bad.Net = nil
	if _, err := NewClient(bad); err == nil {
		t.Error("nil network accepted")
	}
	bad = base
	bad.ReplicaKeys = nil
	if _, err := NewClient(bad); err == nil {
		t.Error("client that cannot authenticate replies accepted")
	}
}

func TestClientGivesUpWithoutQuorum(t *testing.T) {
	// No replicas running at all: the client must return an error after
	// its attempt budget, not hang.
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	for i := 0; i < 4; i++ {
		if _, err := net.Endpoint(transport.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, priv := keypair(t)
	pubs, _ := replicaKeys(t, 4)
	cl, err := NewClient(ClientConfig{
		ID:             transport.ClientIDBase,
		Key:            priv,
		Replicas:       []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys:    pubs,
		F:              1,
		Net:            net,
		RequestTimeout: 50 * time.Millisecond,
		MaxAttempts:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.Invoke(context.Background(), []byte("op"))
	if err == nil {
		t.Fatal("invoke without any replicas succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("gave up after %v, want prompt failure", elapsed)
	}
}

func TestClientHonorsContext(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	for i := 0; i < 4; i++ {
		if _, err := net.Endpoint(transport.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, priv := keypair(t)
	pubs, _ := replicaKeys(t, 4)
	cl, err := NewClient(ClientConfig{
		ID:          transport.ClientIDBase,
		Key:         priv,
		Replicas:    []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys: pubs,
		F:           1,
		Net:         net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.Invoke(ctx, []byte("op")); err == nil {
		t.Fatal("invoke with dead service succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("context deadline ignored for %v", elapsed)
	}
}

func TestClientIgnoresForgedReplies(t *testing.T) {
	// f forged replies must not reach the f+1 quorum: with f=1, a single
	// lying node cannot convince the client.
	c := newCluster(t, 4, 1, nil)
	c.attack(1, AttackEquivocate) // forges every reply, validly signed
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	for i := 0; i < 5; i++ {
		res := invoke(t, cl, "add 1")
		if decodeInt(res) != int64(i+1) {
			t.Fatalf("result %d, want %d", decodeInt(res), i+1)
		}
	}
}

func TestClientIgnoresRetiredReplicaVotes(t *testing.T) {
	// Two nodes OUTSIDE the client's replica-set snapshot (e.g. replicas
	// retired by a Lazarus reconfiguration, possibly compromised) pump
	// f+1 matching bogus replies at the client, each signed with the key
	// the node held as a member. Tallying votes from any sender would let
	// the pair reach the quorum.
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	for i := 0; i < 4; i++ {
		if _, err := net.Endpoint(transport.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	retiredA, err := net.Endpoint(50)
	if err != nil {
		t.Fatal(err)
	}
	retiredB, err := net.Endpoint(51)
	if err != nil {
		t.Fatal(err)
	}
	_, priv := keypair(t)
	// The client still holds the retired pair's public keys (callers may
	// hand it a key map that is a superset of the membership), so their
	// signatures verify and only the membership snapshot can reject the
	// votes.
	pubs, _ := replicaKeys(t, 4)
	retired := map[transport.NodeID]transport.Endpoint{50: retiredA, 51: retiredB}
	retiredKeys := make(map[transport.NodeID]ed25519.PrivateKey, len(retired))
	for id := range retired {
		pubs[id], retiredKeys[id] = keypair(t)
	}
	cl, err := NewClient(ClientConfig{
		ID:             transport.ClientIDBase,
		Key:            priv,
		Replicas:       []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys:    pubs,
		F:              1,
		Net:            net,
		RequestTimeout: 100 * time.Millisecond,
		MaxAttempts:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for from, src := range retired {
		keepSending(stop, &wg, src, signedReply(t, from, "evil", retiredKeys[from]))
	}

	res, err := cl.Invoke(context.Background(), []byte("op"))
	close(stop)
	wg.Wait()
	if err == nil {
		t.Fatalf("invoke accepted result %q vouched only by retired replicas", res)
	}
}

func TestClientRejectsUnsignedInMemberReplies(t *testing.T) {
	// In-member spoofing: attackers holding the transport endpoints of
	// CURRENT members 1 and 2 pump f+1 matching unsigned replies at the
	// client. The membership filter alone cannot help — the senders are
	// members — so before reply signing, those two votes reached the f+1
	// quorum and the client accepted the fabricated result. With
	// ReplicaKeys set, only properly signed votes count, and the genuine
	// signed quorum (members 0 and 3) must win instead.
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	eps := make(map[transport.NodeID]transport.Endpoint)
	keys := make(map[transport.NodeID]ed25519.PublicKey)
	privs := make(map[transport.NodeID]ed25519.PrivateKey)
	for i := 0; i < 4; i++ {
		id := transport.NodeID(i)
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
		keys[id], privs[id] = keypair(t)
	}
	_, cpriv := keypair(t)
	cl, err := NewClient(ClientConfig{
		ID:             transport.ClientIDBase,
		Key:            cpriv,
		Replicas:       []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys:    keys,
		F:              1,
		Net:            net,
		RequestTimeout: 200 * time.Millisecond,
		MaxAttempts:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	encodeReply := func(from transport.NodeID, result string, sign bool) []byte {
		msg := &Message{
			Type: MsgReply, From: from, ReplySeq: 1,
			ReplyClient: transport.ClientIDBase, Result: []byte(result),
		}
		if sign {
			msg.Sign(privs[from])
		}
		payload, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	send := func(from transport.NodeID, payload []byte, delay time.Duration) {
		defer wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-stop:
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			eps[from].Send(transport.ClientIDBase, payload)
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Forged votes flow first and alone for a while: if they count, they
	// reach f+1 long before a genuine vote shows up.
	wg.Add(4)
	go send(1, encodeReply(1, "evil", false), 0)
	go send(2, encodeReply(2, "evil", false), 0)
	go send(0, encodeReply(0, "good", true), 100*time.Millisecond)
	go send(3, encodeReply(3, "good", true), 100*time.Millisecond)

	res, err := cl.Invoke(context.Background(), []byte("op"))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("invoke with a genuine signed quorum failed: %v", err)
	}
	if string(res) != "good" {
		t.Fatalf("invoke returned %q; unsigned in-member votes were counted", res)
	}
}

// TestUpdateMembershipVisible: following a reconfiguration swaps the keys
// with the replica set, so the joiner's replies count and a retired
// replica's key is gone.
func TestUpdateMembershipVisible(t *testing.T) {
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	eps := make(map[transport.NodeID]transport.Endpoint)
	for i := 0; i < 5; i++ {
		ep, err := net.Endpoint(transport.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		eps[transport.NodeID(i)] = ep
	}
	pubs, privs := replicaKeys(t, 5)
	_, priv := keypair(t)
	before := map[transport.NodeID]ed25519.PublicKey{0: pubs[0], 1: pubs[1], 2: pubs[2], 3: pubs[3]}
	cl, err := NewClient(ClientConfig{
		ID:             transport.ClientIDBase,
		Key:            priv,
		Replicas:       []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys:    before,
		F:              1,
		Net:            net,
		RequestTimeout: 200 * time.Millisecond,
		MaxAttempts:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	after := map[transport.NodeID]ed25519.PublicKey{1: pubs[1], 2: pubs[2], 3: pubs[3], 4: pubs[4]}
	cl.UpdateMembership([]transport.NodeID{1, 2, 3, 4}, after)
	if got := cl.Replicas(); len(got) != 4 || got[3] != 4 {
		t.Errorf("Replicas() = %v", got)
	}

	// The retired replica 0 vouches for one result, survivor 3 and the
	// joiner 4 for another: f+1 needs the joiner's vote to count.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for from, result := range map[transport.NodeID]string{0: "stale", 3: "current", 4: "current"} {
		keepSending(stop, &wg, eps[from], signedReply(t, from, result, privs[from]))
	}
	res, err := cl.Invoke(context.Background(), []byte("op"))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("invoke after the membership update: %v", err)
	}
	if string(res) != "current" {
		t.Fatalf("invoke returned %q, want the result the joiner vouched for", res)
	}
}
