package transport

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"net"
	"testing"
	"time"
)

// testIdentity is the i'th of a fixed sequence of ed25519 keys.
func testIdentity(i int) ed25519.PrivateKey {
	seed := sha256.Sum256([]byte(fmt.Sprintf("tcp-link-key-test|%d", i)))
	return ed25519.NewKeyFromSeed(seed[:])
}

// TestTCPLinkKeysPinTheSender: with per-link keys, member 2 cannot put
// member 0's id on a frame to member 1. Member 2 runs its own network
// holding only its own identity; every key it can derive, for any link
// it is an end of, MACs a frame naming 0, and member 1 drops each one as
// an authentication failure, also on a connection that opened with a
// genuine frame. Member 2's frames in its own name arrive.
func TestTCPLinkKeysPinTheSender(t *testing.T) {
	privs := map[NodeID]ed25519.PrivateKey{0: testIdentity(0), 1: testIdentity(1), 2: testIdentity(2)}
	keys := make(map[NodeID]ed25519.PublicKey, len(privs))
	for id, priv := range privs {
		keys[id] = priv.Public().(ed25519.PublicKey)
	}
	addrs := map[NodeID]string{0: blackholeAddr(t), 1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	honest, err := NewTCP(TCPConfig{Addrs: addrs, Keys: keys,
		Identities: map[NodeID]ed25519.PrivateKey{0: privs[0], 1: privs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	b, err := honest.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = b.(*tcpEndpoint).listener.Addr().String()

	compromised, err := NewTCP(TCPConfig{Addrs: addrs, Keys: keys,
		Identities: map[NodeID]ed25519.PrivateKey{2: privs[2]}})
	if err != nil {
		t.Fatal(err)
	}
	defer compromised.Close()
	if _, err := compromised.Endpoint(0); err == nil {
		t.Fatal("a network without member 0's identity opened its endpoint")
	}
	m2, err := compromised.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	held := m2.(*tcpEndpoint)
	var forgeable [][]byte
	for _, peer := range []NodeID{0, 1} {
		forgeable = append(forgeable, held.keyTo(peer), held.keyFrom(peer))
	}
	for i, key := range forgeable {
		conn, err := net.Dial("tcp", addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, key, Envelope{From: 0, To: 1, Payload: []byte("forged")}); err != nil {
			t.Fatal(err)
		}
		eventuallyStats(t, honest, 2*time.Second, fmt.Sprintf("forgery %d dropped", i), func(s Stats) bool {
			return s.DropsAuthFail == int64(i+1)
		})
		conn.Close()
	}

	// A connection that opened with a genuine frame does not vouch for
	// the next one: each frame is checked under the key of the sender it
	// names.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, held.keyTo(1), Envelope{From: 2, To: 1, Payload: []byte("genuine")}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, held.keyTo(1), Envelope{From: 0, To: 1, Payload: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	eventuallyStats(t, honest, 2*time.Second, "forgery after a genuine frame dropped", func(s Stats) bool {
		return s.DropsAuthFail == int64(len(forgeable)+1)
	})
	if err := m2.Send(1, []byte("sent")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"genuine", "sent"} {
		env := recvOne(t, b, 2*time.Second)
		if env.From != 2 || string(env.Payload) != want {
			t.Fatalf("delivered %+v, want member 2's own frame %q", env, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if env, err := b.Recv(ctx); err == nil {
		t.Fatalf("delivered %+v", env)
	}
}

// TestTCPLinkKeysDirected: the two directions of a link have different
// keys, and the two ends of each direction derive the same one.
func TestTCPLinkKeysDirected(t *testing.T) {
	a, b := testIdentity(0), testIdentity(1)
	keys := map[NodeID]ed25519.PublicKey{0: a.Public().(ed25519.PublicKey), 1: b.Public().(ed25519.PublicKey)}
	tnet, err := NewTCP(TCPConfig{Addrs: map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"},
		Keys: keys, Identities: map[NodeID]ed25519.PrivateKey{0: a, 1: b}})
	if err != nil {
		t.Fatal(err)
	}
	defer tnet.Close()
	out0, in0, err := tnet.linkKeys(0)
	if err != nil {
		t.Fatal(err)
	}
	out1, in1, err := tnet.linkKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(out0[1]) != string(in1[0]) || string(out1[0]) != string(in0[1]) {
		t.Fatal("the two ends of a link derived different keys")
	}
	if string(out0[1]) == string(out1[0]) {
		t.Fatal("both directions of a link share one key")
	}
}

// TestNewTCPKeyValidation: per-link keys need a public key for every node
// and identities that match them, and exclude a shared secret.
func TestNewTCPKeyValidation(t *testing.T) {
	a, b := testIdentity(0), testIdentity(1)
	pubA := a.Public().(ed25519.PublicKey)
	addrs := map[NodeID]string{0: ":0", 1: ":0"}
	for name, cfg := range map[string]TCPConfig{
		"missing public key": {Addrs: addrs, Keys: map[NodeID]ed25519.PublicKey{0: pubA}},
		"mismatched identity": {Addrs: map[NodeID]string{0: ":0"}, Keys: map[NodeID]ed25519.PublicKey{0: pubA},
			Identities: map[NodeID]ed25519.PrivateKey{0: b}},
		"truncated identity": {Addrs: map[NodeID]string{0: ":0"}, Keys: map[NodeID]ed25519.PublicKey{0: pubA},
			Identities: map[NodeID]ed25519.PrivateKey{0: a[:32]}},
		"keys and a secret": {Addrs: map[NodeID]string{0: ":0"}, Keys: map[NodeID]ed25519.PublicKey{0: pubA},
			Secret: []byte("x")},
	} {
		if _, err := NewTCP(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
