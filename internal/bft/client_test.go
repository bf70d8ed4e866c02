package bft

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lazarus/internal/netem"
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

// sealReply seals msg as the replica holding key would for the client with
// public key client.
func sealReply(t *testing.T, msg *Message, key ed25519.PrivateKey, client ed25519.PublicKey) *Message {
	t.Helper()
	k, err := newReplyKey(key, client, false)
	if err != nil {
		t.Fatal(err)
	}
	k.Seal(msg)
	return msg
}

// sealedReply is what replica from, holding key, would send the first
// client, whose public key is client, in answer to its request 1.
func sealedReply(t *testing.T, from transport.NodeID, result string, key ed25519.PrivateKey, client ed25519.PublicKey) []byte {
	t.Helper()
	msg := &Message{Type: MsgReply, From: from, ReplySeq: 1,
		ReplyClient: transport.ClientIDBase, Result: []byte(result)}
	return mustEncode(t, sealReply(t, msg, key, client))
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

// TestClientHonorsContext pins the one bound on a wait: Invoke gives up
// when its context ends, with an error that wraps the context's and names
// the client and the request, and not before — a group that stalls for
// many request timeouts and then recovers still commits the operation.
func TestClientHonorsContext(t *testing.T) {
	t.Run("dead service", func(t *testing.T) {
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
		_, err = cl.Invoke(ctx, []byte("op"))
		if err == nil {
			t.Fatal("invoke with dead service succeeded")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("context deadline ignored for %v", elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("error %q does not wrap context.DeadlineExceeded", err)
		}
		if want := fmt.Sprintf("client %d: no quorum for request 1", transport.ClientIDBase); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the client and request (%q)", err, want)
		}
	})

	t.Run("stall outlasting many attempts", func(t *testing.T) {
		c := newCluster(t, 4, 1, nil)
		c.start()
		defer c.stop()
		id := transport.ClientIDBase
		cl, err := NewClient(ClientConfig{
			ID:             id,
			Key:            c.clientPriv[id],
			Replicas:       c.membership.Replicas,
			ReplicaKeys:    c.pubs,
			F:              c.membership.F(),
			Net:            c.net,
			RequestTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// Every replica drops off for about 25 request timeouts: more
		// attempts, backoff included, than any fixed budget of eight.
		var isos []*netem.Partition
		for _, r := range c.membership.Replicas {
			isos = append(isos, c.isolate(r))
		}
		time.AfterFunc(500*time.Millisecond, func() {
			for _, p := range isos {
				c.net.Revert(p)
			}
		})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		res, err := cl.Invoke(ctx, []byte("add 5"))
		if err != nil {
			t.Fatalf("invoke across a 0.5 s stall with a 5 s deadline: %v (after %v)", err, time.Since(start))
		}
		if decodeInt(res) != 5 {
			t.Fatalf("result %d, want 5", decodeInt(res))
		}
	})
}

func TestClientIgnoresForgedReplies(t *testing.T) {
	// f forged replies must not reach the f+1 quorum: with f=1, a single
	// lying node cannot convince the client.
	c := newCluster(t, 4, 1, nil)
	c.attack(1, AttackEquivocate) // forges every reply, validly sealed
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
	// f+1 matching bogus replies at the client, each sealed with the key
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
	cpub, priv := keypair(t)
	// The client still holds the retired pair's public keys (callers may
	// hand it a key map that is a superset of the membership), so their
	// MACs verify and only the membership snapshot can reject the votes.
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
		keepSending(stop, &wg, src, sealedReply(t, from, "evil", retiredKeys[from], cpub))
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
	// members — so before reply authentication, those two votes reached
	// the f+1 quorum and the client accepted the fabricated result.
	rejectsInMemberForgery(t, func(k forgeryKeys, from transport.NodeID, msg *Message) *Message { return msg })
}

// TestClientRejectsMisauthenticatedReplies: replies whose MAC is genuine
// but not the one this client shares with the sending replica — or that
// carry the ed25519 signature replies used to carry — count no more than
// unsigned ones.
func TestClientRejectsMisauthenticatedReplies(t *testing.T) {
	for name, forge := range map[string]func(forgeryKeys, transport.NodeID, *Message) *Message{
		// A genuine reply to another client, replayed to this one.
		"sealed for another client": func(k forgeryKeys, from transport.NodeID, msg *Message) *Message {
			msg.ReplyClient = transport.ClientIDBase + 1
			return sealReply(t, msg, k.replicas[from], k.other)
		},
		// Member i relays member j's genuine reply as its own vote.
		"sealed by another replica": func(k forgeryKeys, from transport.NodeID, msg *Message) *Message {
			other := 3 - from // 1 relays 2's reply, 2 relays 1's
			msg.From = other
			return sealReply(t, msg, k.replicas[other], k.client)
		},
		// No fallback to the old format.
		"ed25519-signed": func(k forgeryKeys, from transport.NodeID, msg *Message) *Message {
			msg.Sign(k.replicas[from])
			return msg
		},
	} {
		t.Run(name, func(t *testing.T) { rejectsInMemberForgery(t, forge) })
	}
}

// forgeryKeys is the key material a forger may use.
type forgeryKeys struct {
	replicas      map[transport.NodeID]ed25519.PrivateKey
	client, other ed25519.PublicKey // the client under test and another one
}

// rejectsInMemberForgery: members 1 and 2 pump f+1 matching "evil" replies
// made by forge at the client, alone for a while, before members 0 and 3
// send genuinely sealed "good" ones. Only the genuine quorum may win.
func rejectsInMemberForgery(t *testing.T, forge func(k forgeryKeys, from transport.NodeID, msg *Message) *Message) {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{})
	defer net.Close()
	eps := make(map[transport.NodeID]transport.Endpoint)
	keys := make(map[transport.NodeID]ed25519.PublicKey)
	k := forgeryKeys{replicas: make(map[transport.NodeID]ed25519.PrivateKey)}
	for i := 0; i < 4; i++ {
		id := transport.NodeID(i)
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
		keys[id], k.replicas[id] = keypair(t)
	}
	var cpriv ed25519.PrivateKey
	k.client, cpriv = keypair(t)
	k.other, _ = keypair(t)
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

	reply := func(from transport.NodeID, result string) *Message {
		return &Message{Type: MsgReply, From: from, ReplySeq: 1,
			ReplyClient: transport.ClientIDBase, Result: []byte(result)}
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
	go send(1, mustEncode(t, forge(k, 1, reply(1, "evil"))), 0)
	go send(2, mustEncode(t, forge(k, 2, reply(2, "evil"))), 0)
	go send(0, mustEncode(t, sealReply(t, reply(0, "good"), k.replicas[0], k.client)), 100*time.Millisecond)
	go send(3, mustEncode(t, sealReply(t, reply(3, "good"), k.replicas[3], k.client)), 100*time.Millisecond)

	res, err := cl.Invoke(context.Background(), []byte("op"))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("invoke with a genuine sealed quorum failed: %v", err)
	}
	if string(res) != "good" {
		t.Fatalf("invoke returned %q; forged in-member votes were counted", res)
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
	cpub, priv := keypair(t)
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
	old := cl.replyKeys
	cl.UpdateMembership([]transport.NodeID{1, 2, 3, 4}, after)
	if got := cl.Replicas(); len(got) != 4 || got[3] != 4 {
		t.Errorf("Replicas() = %v", got)
	}
	// Survivors keep the key derived for them; only the joiner's is new.
	for id := transport.NodeID(1); id <= 3; id++ {
		if cl.replyKeys[id] != old[id] {
			t.Errorf("replica %d's reply key was derived again for an unchanged public key", id)
		}
	}

	// The retired replica 0 vouches for one result, survivor 3 and the
	// joiner 4 for another: f+1 needs the joiner's vote to count.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for from, result := range map[transport.NodeID]string{0: "stale", 3: "current", 4: "current"} {
		keepSending(stop, &wg, eps[from], sealedReply(t, from, result, privs[from], cpub))
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
