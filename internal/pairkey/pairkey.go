// Package pairkey derives the secret two holders of ed25519 identities
// share, with no message exchanged: each side turns its own seed into an
// X25519 scalar and the other's public key into an X25519 point (what
// libsodium's crypto_sign_ed25519_{sk,pk}_to_curve25519 do) and runs ECDH.
// Callers hash the result under their own domain tag before keying a MAC
// with it: bft's reply keys (client, replica) and the TCP transport's
// link keys (sender, receiver).
package pairkey

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
)

// fieldP is 2^255 - 19, the field both forms of the curve are defined over.
var fieldP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// Shared returns the X25519 secret of the holder of priv and the holder of
// peer. Both sides of a pair compute the same bytes. A peer key that is
// malformed, the identity or of small order is an error.
func Shared(priv ed25519.PrivateKey, peer ed25519.PublicKey) ([]byte, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("private key is %d bytes", len(priv))
	}
	u, err := MontgomeryU(peer)
	if err != nil {
		return nil, err
	}
	remote, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		return nil, err
	}
	h := sha512.Sum512(priv.Seed())
	local, err := ecdh.X25519().NewPrivateKey(h[:32])
	if err != nil {
		return nil, err
	}
	return local.ECDH(remote) // rejects low-order peers
}

// MontgomeryU maps an ed25519 public key — the Edwards y coordinate,
// little-endian, with the sign of x in the top bit — to the X25519
// u-coordinate (1+y)/(1−y) mod p, little-endian.
func MontgomeryU(pub ed25519.PublicKey) ([]byte, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("public key is %d bytes", len(pub))
	}
	b := make([]byte, len(pub))
	for i := range pub {
		b[len(pub)-1-i] = pub[i]
	}
	b[0] &= 0x7f
	y := new(big.Int).SetBytes(b)
	if y.Cmp(fieldP) >= 0 {
		return nil, errors.New("public key is not canonical (y >= p)")
	}
	one := big.NewInt(1)
	if y.Cmp(one) == 0 {
		return nil, errors.New("public key is the identity (y = 1)")
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
