package bft

// Reply and request MACs. A reply needs no transferability — only the
// client it answers must tell whether it came from the replica it names —
// so it carries an HMAC-SHA256 instead of an ed25519 signature, under a key
// that only that client and that replica can compute. The client seals the
// copy of each request it sends a replica under the same key, next to its
// signature (verify.go says who checks which). The key is the X25519
// secret of the two ed25519 identities (pairkey.Shared), hashed under a
// domain tag with both public keys. DESIGN.md §10 says why requests keep
// their signature and why everything else stays signed.

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"

	"lazarus/internal/pairkey"
)

// replyKeyTag separates reply keys from any other use of the shared secret.
const replyKeyTag = "lazarus/bft reply MAC v1\x00"

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
	// hdr is scratch for a message's signed input before its result.
	hdr []byte
}

// newReplyKey derives the reply key between the holder of priv and the
// holder of peer. clientSide says which of the two priv belongs to: the
// public keys enter the hash in (client, replica) order, so both sides of
// a pair derive the same key.
func newReplyKey(priv ed25519.PrivateKey, peer ed25519.PublicKey, clientSide bool) (*replyKey, error) {
	secret, err := pairkey.Shared(priv, peer)
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
		// signedInput without its copy of the result, which can be
		// kilobytes: the result goes to the hash where it lies.
		k.hdr = m.appendSignedHeader(k.hdr[:0])
		k.h.Write(k.hdr)
		k.h.Write(m.Result)
	}
	return k.h.Sum(nil)
}
