package bft

// Reply and request MACs. A reply needs no transferability — only the
// client it answers must tell whether it came from the replica it names —
// so it carries an HMAC-SHA256 instead of an ed25519 signature, under a key
// that only that client and that replica can compute. The client seals the
// copy of each request it sends a replica under the same key, next to its
// signature (verify.go says who checks which). The key comes from the
// ed25519 identities both already hold: each side turns its own seed into
// an X25519 scalar and the other's public key into an X25519 point (what
// libsodium's crypto_sign_ed25519_{sk,pk}_to_curve25519 do), runs ECDH, and
// hashes the shared secret under a domain tag with both public keys.
// DESIGN.md §10 says why requests keep their signature and why
// everything else stays signed.

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"errors"
	"fmt"
	"hash"
	"math/big"
)

// replyKeyTag separates reply keys from any other use of the shared secret.
const replyKeyTag = "lazarus/bft reply MAC v1\x00"

// fieldP is 2^255 - 19, the field both forms of the curve are defined over.
var fieldP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// replyKey MACs the replies one replica sends one client, and the requests
// that client sends that replica. It is not safe for concurrent use: a
// replica's keys belong to its event loop, a client's to its one Invoke at
// a time, an attacker's to its mutex.
type replyKey struct {
	mac [sha256.Size]byte
	// h is HMAC-SHA256 under mac, reset before every MAC: keying it
	// anew would cost two SHA-256 key schedules a message.
	h hash.Hash
	// peer is the other side's ed25519 public key: a holder handed a new
	// key set derives again only for the peers whose key changed.
	peer ed25519.PublicKey
}

// newReplyKey derives the reply key between the holder of priv and the
// holder of peer. clientSide says which of the two priv belongs to: the
// public keys enter the hash in (client, replica) order, so both sides of
// a pair derive the same key.
func newReplyKey(priv ed25519.PrivateKey, peer ed25519.PublicKey, clientSide bool) (*replyKey, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("bft: reply key: private key is %d bytes", len(priv))
	}
	u, err := montgomeryU(peer)
	if err != nil {
		return nil, err
	}
	remote, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return nil, fmt.Errorf("bft: reply key: %w", err)
	}
	h := sha512.Sum512(priv.Seed())
	local, err := ecdh.X25519().NewPrivateKey(h[:32])
	if err != nil {
		return nil, fmt.Errorf("bft: reply key: %w", err)
	}
	secret, err := local.ECDH(remote) // rejects low-order peers
	if err != nil {
		return nil, fmt.Errorf("bft: reply key: %w", err)
	}
	client, replica := priv.Public().(ed25519.PublicKey), peer
	if !clientSide {
		client, replica = replica, client
	}
	d := sha256.New()
	d.Write([]byte(replyKeyTag))
	d.Write(secret)
	d.Write(client)
	d.Write(replica)
	k := &replyKey{peer: append(ed25519.PublicKey(nil), peer...)}
	d.Sum(k.mac[:0])
	k.h = hmac.New(sha256.New, k.mac[:])
	return k, nil
}

// montgomeryU maps an ed25519 public key — the Edwards y coordinate,
// little-endian, with the sign of x in the top bit — to the X25519
// u-coordinate (1+y)/(1−y) mod p, little-endian.
func montgomeryU(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bft: reply key: public key is %d bytes", len(pub))
	}
	b := make([]byte, len(pub))
	for i := range pub {
		b[len(pub)-1-i] = pub[i]
	}
	b[0] &= 0x7f
	y := new(big.Int).SetBytes(b)
	if y.Cmp(fieldP) >= 0 {
		return nil, errors.New("bft: reply key: public key is not canonical (y >= p)")
	}
	one := big.NewInt(1)
	if y.Cmp(one) == 0 {
		return nil, errors.New("bft: reply key: public key is the identity (y = 1)")
	}
	num := new(big.Int).Add(one, y)
	den := new(big.Int).Sub(fieldP, y)
	den.Add(den, one).ModInverse(den, fieldP)
	u := num.Mul(num, den).Mod(num, fieldP).FillBytes(b)
	for i, j := 0, len(u)-1; i < j; i, j = i+1, j-1 {
		u[i], u[j] = u[j], u[i]
	}
	return u, nil
}

// Seal sets m.Sig to the MAC of what a signature on m would cover: the
// client's on a request (digestInput), a replica's on anything else
// (signedInput). The two inputs start with different tags, so neither MAC
// passes for the other.
func (k *replyKey) Seal(m *Message) { m.Sig = k.sum(m) }

// Verify reports whether m.Sig is the MAC Seal sets.
func (k *replyKey) Verify(m *Message) bool { return hmac.Equal(m.Sig, k.sum(m)) }

func (k *replyKey) sum(m *Message) []byte {
	k.h.Reset()
	if m.Type == MsgRequest && m.Request != nil {
		m.Request.writeInput(k.h)
	} else {
		k.h.Write(m.signedInput())
	}
	return k.h.Sum(nil)
}
