package bft

import (
	"bytes"
	"reflect"
	"testing"

	"lazarus/internal/transport"
)

// FuzzDecode: whatever the bytes, Decode never panics and never allocates
// more than their number justifies; what decodes has exactly one encoding
// (Encode(Decode(p)) == p), in a buffer Encode sized exactly, and survives
// the round trip unchanged; and every byte field it decodes is capped at
// its length, so appending to one cannot write into the payload.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(mustEncode(f, m))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m *Message
		var err error
		withinBudget(t, payload, func() { m, err = Decode(payload) })
		if err != nil {
			return
		}
		for _, f := range byteFields(reflect.ValueOf(m)) {
			if cap(f) != len(f) {
				t.Fatalf("decoding %x gave a field of len %d, cap %d", payload, len(f), cap(f))
			}
		}
		again, err := Encode(m)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x, re-encoded %x (err %v)", payload, again, err)
		}
		if cap(again) != len(again) {
			t.Fatalf("re-encoding %x sized its buffer at %d", payload, cap(again))
		}
		if back, err := Decode(again); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip of %x: got %+v (err %v), want %+v", payload, back, err, m)
		}
	})
}

// FuzzDecodeReconfig: the same for the two payloads a reconfiguration
// puts inside a request and a reply.
func FuzzDecodeReconfig(f *testing.F) {
	f.Add(EncodeReconfigOp(ReconfigOp{Add: true, Replica: 7, PubKey: make([]byte, 32)}))
	f.Add(EncodeReconfigOp(ReconfigOp{Replica: 2}))
	f.Add(ReconfigResult{Status: ReconfigApplied, Epoch: 3}.Encode())
	f.Add(ReconfigResult{Status: ReconfigNotMember, Detail: "replica 0: bft: not a member"}.Encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		withinBudget(t, payload, func() {
			if op, ok := decodeReconfigOp(payload); ok {
				if again := EncodeReconfigOp(op); !bytes.Equal(again, payload) {
					t.Fatalf("op decoded from %x re-encodes to %x", payload, again)
				}
			}
			if res, err := DecodeReconfigResult(payload); err == nil {
				if again := res.Encode(); !bytes.Equal(again, payload) {
					t.Fatalf("result decoded from %x re-encodes to %x", payload, again)
				}
			}
		})
	})
}

// FuzzRestoreEnvelope: the snapshot envelope decodes under the same
// discipline, and a replica handed any envelope its vouchers' digest does
// not match — here the zero digest, which nothing hashes to — is left
// exactly as it was.
func FuzzRestoreEnvelope(f *testing.F) {
	c := newCluster(f, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1] // unstarted: the fuzz function is its event loop
	req := signedReq(c, transport.ClientIDBase, 1, "add 5")
	r.executeRequest(&req)
	frozen, err := r.freeze()
	if err != nil {
		f.Fatal(err)
	}
	reply, err := r.stateReply(frozen)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reply.Snapshot)
	f.Add((&replicaSnapshot{}).encode())
	f.Fuzz(func(t *testing.T, envelope []byte) {
		withinBudget(t, envelope, func() {
			if snap, err := decodeSnapshot(envelope); err == nil {
				if again := snap.encode(); !bytes.Equal(again, envelope) {
					t.Fatalf("envelope %x re-encodes to %x", envelope, again)
				}
			}
		})
		err := r.restoreSnapshot(&Message{Type: MsgStateReply, From: 0, SnapSeqNo: 99, Snapshot: envelope})
		if err == nil {
			t.Fatalf("restored %x, which does not hash to the voted digest", envelope)
		}
		if got := c.apps[1].Value(); got != 5 || r.lastExec != 0 || r.membership.Epoch != 0 || r.membership.N() != 4 {
			t.Fatalf("rejected envelope %x left value %d, lastExec %d, epoch %d, n %d",
				envelope, got, r.lastExec, r.membership.Epoch, r.membership.N())
		}
	})
}
