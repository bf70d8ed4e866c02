package bft

import (
	"crypto/ed25519"
	"errors"
	"testing"

	"lazarus/internal/transport"
)

func TestReconfigResultRoundTrip(t *testing.T) {
	cases := []ReconfigResult{
		{Status: ReconfigApplied, Epoch: 7},
		{Status: ReconfigAlreadyMember, Detail: "replica 4: bft: already a member"},
		{Status: ReconfigNotMember, Detail: "replica 0: bft: not a member"},
		{Status: ReconfigTooSmall, Detail: "removing replica 1 would leave 3 replicas"},
		{Status: ReconfigInvalid, Detail: "bad public key"},
	}
	for _, want := range cases {
		got, err := DecodeReconfigResult(want.Encode())
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestReconfigResultRejectsMalformed(t *testing.T) {
	applied := ReconfigResult{Status: ReconfigApplied, Epoch: 3}.Encode()
	cases := map[string][]byte{
		"empty":            nil,
		"legacy ok string": []byte("reconfig ok: epoch 3"),
		"legacy error":     []byte("reconfig error: bad public key"),
		"app reply":        []byte("\x05\x00\x00\x00\x00\x00\x00\x00"),
		"truncated":        applied[:len(applied)-1],
		"trailing byte":    append(applied, 0),
		"unknown status":   ReconfigResult{Status: ReconfigStatus(42)}.Encode(),
		"applied no epoch": ReconfigResult{Status: ReconfigApplied}.Encode(),
		"foreign body":     append(append([]byte(nil), reconfigResultPrefix...), []byte("epoch 3")...),
	}
	for name, reply := range cases {
		if rr, err := DecodeReconfigResult(reply); err == nil {
			t.Errorf("%s: decoded %+v from %q, want error", name, rr, reply)
		}
	}
}

func TestMembershipErrorsAreSentinels(t *testing.T) {
	ids := []transport.NodeID{0, 1, 2, 3}
	keys := make(map[transport.NodeID]ed25519.PublicKey, len(ids))
	for _, id := range ids {
		pub, _, err := ed25519.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = pub
	}
	m, err := NewMembership(ids, keys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WithAdded(0, m.Keys[0]); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("WithAdded(existing) = %v, want ErrAlreadyMember", err)
	}
	if _, err := m.WithRemoved(99); !errors.Is(err, ErrNotMember) {
		t.Errorf("WithRemoved(stranger) = %v, want ErrNotMember", err)
	}
	if _, err := m.WithRemoved(0); !errors.Is(err, ErrGroupTooSmall) {
		t.Errorf("WithRemoved at minimum = %v, want ErrGroupTooSmall", err)
	}
}
