package bft

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"testing"

	"lazarus/internal/pairkey"
	"lazarus/internal/transport"
)

// seededKey is the i'th of a fixed sequence of ed25519 keys.
func seededKey(i int) ed25519.PrivateKey {
	seed := sha256.Sum256(binary.BigEndian.AppendUint64([]byte("reply-key-test"), uint64(i)))
	return ed25519.NewKeyFromSeed(seed[:])
}

// TestReplyKeyDerivation: the Edwards→Montgomery map of an ed25519 public
// key is the X25519 public key of the scalar its seed expands to, and a
// client and a replica derive the same key from opposite halves.
func TestReplyKeyDerivation(t *testing.T) {
	for i := 0; i < 64; i++ {
		priv, replica := seededKey(2*i), seededKey(2*i+1)
		u, err := pairkey.MontgomeryU(priv.Public().(ed25519.PublicKey))
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		h := sha512.Sum512(priv.Seed())
		x, err := ecdh.X25519().NewPrivateKey(h[:32])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(u, x.PublicKey().Bytes()) {
			t.Fatalf("key %d: converted public key %x, X25519 public key of the converted scalar %x", i, u, x.PublicKey().Bytes())
		}

		atClient, err := newReplyKey(priv, replica.Public().(ed25519.PublicKey), true)
		if err != nil {
			t.Fatal(err)
		}
		atReplica, err := newReplyKey(replica, priv.Public().(ed25519.PublicKey), false)
		if err != nil {
			t.Fatal(err)
		}
		if atClient.mac != atReplica.mac {
			t.Fatalf("pair %d: client and replica derived different keys", i)
		}
		// The roles are part of the key: the same two identities in the
		// other roles share a different one.
		swapped, err := newReplyKey(priv, replica.Public().(ed25519.PublicKey), false)
		if err != nil {
			t.Fatal(err)
		}
		if swapped.mac == atClient.mac {
			t.Fatalf("pair %d: key does not depend on which side is the client", i)
		}
	}
}

// degeneratePeers are public keys no reply key may be derived from.
func degeneratePeers() map[string][]byte {
	le := func(first byte, fill byte, last byte) []byte {
		b := bytes.Repeat([]byte{fill}, ed25519.PublicKeySize)
		b[0], b[31] = first, last
		return b
	}
	return map[string][]byte{
		"y=1 (identity)":            le(0x01, 0x00, 0x00),
		"y=1 with x's sign bit":     le(0x01, 0x00, 0x80),
		"y=p":                       le(0xed, 0xff, 0x7f),
		"y=p+1":                     le(0xee, 0xff, 0x7f),
		"y=2^255-1":                 le(0xff, 0xff, 0x7f),
		"y=0 (order 4)":             le(0x00, 0x00, 0x00),
		"y=p-1 (order 2)":           le(0xec, 0xff, 0x7f),
		"empty":                     nil,
		"31 bytes":                  make([]byte, 31),
		"33 bytes":                  append(seededKey(0).Public().(ed25519.PublicKey), 0),
		"private key as public key": seededKey(0),
	}
}

// TestReplyKeyRejectsDegeneratePeers: a public key that is not canonical,
// is the identity, has small order or has the wrong length is an error,
// never a panic and never a key.
func TestReplyKeyRejectsDegeneratePeers(t *testing.T) {
	priv := seededKey(0)
	for name, pub := range degeneratePeers() {
		for _, clientSide := range []bool{true, false} {
			if k, err := newReplyKey(priv, pub, clientSide); err == nil {
				t.Errorf("%s: derived key %x", name, k.mac)
			}
		}
	}
	if _, err := newReplyKey(priv[:32], seededKey(1).Public().(ed25519.PublicKey), true); err == nil {
		t.Error("derived a key from a truncated private key")
	}
}

// FuzzReplyKeyPeer: whatever 32 bytes — or any other number — a peer's
// public key is, derivation returns a key or an error and never panics;
// only 32-byte keys yield one, and a key it yields seals what it verifies.
// The degenerate keys are in testdata/fuzz/FuzzReplyKeyPeer.
func FuzzReplyKeyPeer(f *testing.F) {
	f.Add([]byte(seededKey(1).Public().(ed25519.PublicKey)))
	priv := seededKey(0)
	f.Fuzz(func(t *testing.T, pub []byte) {
		k, err := newReplyKey(priv, pub, true)
		if err != nil {
			return
		}
		if len(pub) != ed25519.PublicKeySize {
			t.Fatalf("derived a key from a %d-byte public key", len(pub))
		}
		m := &Message{Type: MsgReply, From: 1, ReplySeq: 1, ReplyClient: transport.ClientIDBase, Result: pub}
		k.Seal(m)
		if len(m.Sig) != sha256.Size || !k.Verify(m) {
			t.Fatalf("key from %x does not verify its own seal", pub)
		}
	})
}

// The four reply-authentication costs side by side, on one reply.

func benchReply(b *testing.B) (*Message, ed25519.PrivateKey, *replyKey) {
	b.Helper()
	replica, client := seededKey(1), seededKey(2)
	k, err := newReplyKey(replica, client.Public().(ed25519.PublicKey), false)
	if err != nil {
		b.Fatal(err)
	}
	m := &Message{Type: MsgReply, From: 1, Epoch: 1, ReplySeq: 42,
		ReplyClient: transport.ClientIDBase, Result: bytes.Repeat([]byte("v"), 64)}
	b.ReportAllocs()
	return m, replica, k
}

func BenchmarkReplySign(b *testing.B) {
	m, replica, _ := benchReply(b)
	for i := 0; i < b.N; i++ {
		m.Sign(replica)
	}
}

func BenchmarkReplyVerifySig(b *testing.B) {
	m, replica, _ := benchReply(b)
	m.Sign(replica)
	pub := replica.Public().(ed25519.PublicKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.VerifySig(pub) {
			b.Fatal("signature rejected")
		}
	}
}

func BenchmarkReplySeal(b *testing.B) {
	m, _, k := benchReply(b)
	for i := 0; i < b.N; i++ {
		k.Seal(m)
	}
}

func BenchmarkReplyVerify(b *testing.B) {
	m, _, k := benchReply(b)
	k.Seal(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Verify(m) {
			b.Fatal("MAC rejected")
		}
	}
}

// BenchmarkReplyKeyDerive is what a client pays per replica key it has
// not seen, and a replica per client on its first reply.
func BenchmarkReplyKeyDerive(b *testing.B) {
	replica, client := seededKey(1), seededKey(2)
	pub := client.Public().(ed25519.PublicKey)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := newReplyKey(replica, pub, false); err != nil {
			b.Fatal(err)
		}
	}
}
