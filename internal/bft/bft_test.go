package bft

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"testing"
	"time"

	"lazarus/internal/transport"
)

func TestBasicOrdering(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()

	var want int64
	for i := 1; i <= 10; i++ {
		want += int64(i)
		got := decodeInt(invoke(t, cl, fmt.Sprintf("add %d", i)))
		if got != want {
			t.Fatalf("add %d returned %d, want %d", i, got, want)
		}
	}
	// Every replica converges to the same state.
	eventually(t, 5*time.Second, "replica convergence", func() bool {
		for _, app := range c.apps {
			if app.Value() != want {
				return false
			}
		}
		return true
	})
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, 4, 8, nil)
	c.start()
	defer c.stop()

	const perClient = 15
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.client(i)
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < perClient; j++ {
				if _, err := cl.Invoke(ctx, []byte("add 1")); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(8 * perClient)
	eventually(t, 20*time.Second, "convergence", func() bool {
		for _, app := range c.apps {
			if app.Value() != want {
				return false
			}
		}
		return true
	})
}

func TestToleratesSilentBackup(t *testing.T) {
	// One silent (crashed) non-primary replica: the quorum of 3 keeps
	// the system live.
	c := newCluster(t, 4, 1, nil)
	c.mute(3) // not the view-0 primary (0)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	if got := decodeInt(invoke(t, cl, "add 5")); got != 5 {
		t.Fatalf("result = %d, want 5", got)
	}
	if got := decodeInt(invoke(t, cl, "add 2")); got != 7 {
		t.Fatalf("result = %d, want 7", got)
	}
}

func TestViewChangeOnSilentPrimary(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.mute(0) // view-0 primary
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	if got := decodeInt(invoke(t, cl, "add 9")); got != 9 {
		t.Fatalf("result = %d, want 9", got)
	}
	// A correct replica must have moved past view 0.
	eventually(t, 5*time.Second, "view change", func() bool {
		return c.replicas[1].Stats().CurrentView > 0
	})
}

func TestViewChangeOnEquivocatingPrimary(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.attack(0, AttackEquivocate) // view-0 primary
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	if got := decodeInt(invoke(t, cl, "add 3")); got != 3 {
		t.Fatalf("result = %d, want 3", got)
	}
	// Correct replicas must agree (no divergence despite equivocation),
	// under a primary the view change put in the equivocator's place.
	eventually(t, 5*time.Second, "correct replicas converge", func() bool {
		return c.apps[1].Value() == 3 && c.apps[2].Value() == 3 && c.apps[3].Value() == 3
	})
	if c.replicas[1].Stats().CurrentView == 0 {
		t.Error("the equivocating primary still leads")
	}
	executed := make(map[uint64]Digest)
	for id := transport.NodeID(1); id <= 3; id++ {
		for _, rec := range c.replicas[id].ExecTrace() {
			if d, ok := executed[rec.Seq]; ok && d != rec.Digest {
				t.Errorf("replica %d executed a different batch at seq %d", id, rec.Seq)
			}
			executed[rec.Seq] = rec.Digest
		}
	}
}

// TestViewChangeCatchesUpStraggler pins the commit re-announcement in
// installNewView. A replica that misses committed instances while
// partitioned (below the first checkpoint boundary, so state transfer
// cannot help) re-prepares them from the new view's re-proposals — but
// the peers that already executed them take checkPrepared's
// already-prepared early return and never resend their commit votes.
// Without the re-announcement the straggler holds one commit vote
// forever, cannot execute, and the group livelocks once its replies are
// needed for a client quorum.
func TestViewChangeCatchesUpStraggler(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()

	want := int64(1)
	if got := decodeInt(invoke(t, cl, "add 1")); got != want {
		t.Fatalf("baseline = %d, want %d", got, want)
	}

	// Partition replica 3 and commit ops it misses entirely. The op
	// count stays far below CheckpointInterval (128): catch-up can only
	// come through the new view's re-proposals, never a snapshot.
	c.net.Isolate(3)
	for i := 0; i < 5; i++ {
		want += 2
		if got := decodeInt(invoke(t, cl, "add 2")); got != want {
			t.Fatalf("partitioned-phase result = %d, want %d", got, want)
		}
	}
	c.net.Rejoin(3)

	// Silence the view-0 primary. Replicas 1 and 2 time out on the next
	// request, replica 3 joins the view change via the f+1 boost, and
	// the view-1 primary re-proposes everything replica 3 missed.
	c.net.Isolate(0)
	defer c.net.Rejoin(0)

	// With replica 0 down, ordering this request needs a quorum of 1, 2
	// and 3 — i.e. replica 3 must take part in the view change and the
	// new primary must re-propose everything it missed.
	want += 7
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := cl.Invoke(ctx, []byte("add 7"))
	if err != nil {
		t.Fatalf("post-view-change invoke (straggler must catch up): %v", err)
	}
	if got := decodeInt(res); got != want {
		t.Fatalf("post-view-change result = %d, want %d", got, want)
	}
	// The client returns on f+1 matching replies, so replica 3 may still
	// be applying the final instance; what must never stall is the gap.
	eventually(t, 5*time.Second, "straggler to execute all 7 instances", func() bool {
		return c.replicas[3].Stats().LastExecuted >= 7
	})
}

func TestClientSurvivesCorruptReplies(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	atk := c.attack(2, AttackEquivocate) // forges its replies, validly sealed
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	got := invoke(t, cl, "add 4")
	if decodeInt(got) != 4 {
		t.Fatalf("client accepted wrong result %q", got)
	}
	if bytes.HasPrefix(got, []byte("forged:")) {
		t.Fatal("client accepted a forged reply")
	}
	eventually(t, 5*time.Second, "the attacker to forge a reply", func() bool {
		return atk.Stats().Equivocated > 0
	})
}

func TestCheckpointTruncatesLog(t *testing.T) {
	c := newCluster(t, 4, 1, nil) // CheckpointInterval = 8
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	for i := 0; i < 20; i++ {
		invoke(t, cl, "add 1")
	}
	eventually(t, 5*time.Second, "checkpoints", func() bool {
		for _, r := range c.replicas {
			if r.Stats().Checkpoints == 0 {
				return false
			}
		}
		return true
	})
}

func TestLaggingReplicaCatchesUpViaStateTransfer(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()

	// Partition replica 3, run past several checkpoints, heal.
	c.net.Isolate(3)
	for i := 0; i < 30; i++ {
		invoke(t, cl, "add 1")
	}
	c.net.Rejoin(3)
	// Nudge the group so new checkpoints reveal the gap.
	for i := 0; i < 10; i++ {
		invoke(t, cl, "add 1")
	}
	eventually(t, 10*time.Second, "replica 3 catch-up", func() bool {
		return c.apps[3].Value() == 40
	})
	if c.replicas[3].Stats().StateTransfers == 0 {
		t.Error("replica 3 caught up without a state transfer (log replay unexpected after truncation)")
	}
}

func TestRequestDeduplication(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	// Hand-roll a client so the same signed request can be retransmitted.
	id := transport.ClientIDBase + transport.NodeID(0)
	ep, err := c.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Client: id, Seq: 1, Op: []byte("add 7")}
	req.Sign(c.clientPriv[id])
	payload, err := Encode(&Message{Type: MsgRequest, From: id, Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for _, rid := range c.membership.Replicas {
			ep.Send(rid, payload)
		}
		time.Sleep(50 * time.Millisecond)
	}
	eventually(t, 5*time.Second, "execution", func() bool {
		return c.apps[0].Value() == 7
	})
	time.Sleep(300 * time.Millisecond) // let any duplicate executions land
	for rid, app := range c.apps {
		if v := app.Value(); v != 7 {
			t.Errorf("replica %d executed retransmissions: value %d, want 7", rid, v)
		}
	}
}

func TestRejectsUnauthenticatedRequests(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()

	id := transport.ClientIDBase + transport.NodeID(50) // unregistered client
	ep, err := c.net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	_, priv := keypair(t)
	req := Request{Client: id, Seq: 1, Op: []byte("add 100")}
	req.Sign(priv)
	payload, _ := Encode(&Message{Type: MsgRequest, From: id, Request: &req})
	for _, rid := range c.membership.Replicas {
		ep.Send(rid, payload)
	}
	time.Sleep(400 * time.Millisecond)
	for rid, app := range c.apps {
		if app.Value() != 0 {
			t.Errorf("replica %d executed an unauthenticated request", rid)
		}
	}
}

func TestReconfigurationAddThenRemove(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	ctrl := c.controller()
	defer ctrl.Close()

	for i := 0; i < 10; i++ {
		invoke(t, cl, "add 1")
	}

	// Boot replica 4 as a joiner, then order the ADD (BFT-SMaRt style:
	// add first, remove after).
	joiner := c.addReplica(4, true)
	joiner.Start()
	defer joiner.Stop()

	addOp := EncodeReconfigOp(ReconfigOp{Add: true, Replica: 4, PubKey: c.pubs[4]})
	if rr, err := DecodeReconfigResult(invoke(t, ctrl, string(addOp))); err != nil || rr.Status != ReconfigApplied || rr.Epoch != 1 {
		t.Fatalf("add reconfig result: %+v, err %v", rr, err)
	}
	// The joiner must state-transfer in and reach the group's state.
	eventually(t, 15*time.Second, "joiner catch-up", func() bool {
		return c.apps[4].Value() == 10 && joiner.Stats().CurrentEpoch == 1
	})

	// Service continues; all 5 replicas execute.
	if got := decodeInt(invoke(t, cl, "add 5")); got != 15 {
		t.Fatalf("post-add result = %d, want 15", got)
	}
	eventually(t, 10*time.Second, "5-replica convergence", func() bool {
		return c.apps[4].Value() == 15
	})

	// Remove replica 0 (quarantine it).
	rmOp := EncodeReconfigOp(ReconfigOp{Add: false, Replica: 0})
	if rr, err := DecodeReconfigResult(invoke(t, ctrl, string(rmOp))); err != nil || rr.Status != ReconfigApplied || rr.Epoch != 2 {
		t.Fatalf("remove reconfig result: %+v, err %v", rr, err)
	}
	// The group (now 1,2,3,4) keeps serving. Removing the view-0 primary
	// forces a view change first.
	cl.UpdateMembership([]transport.NodeID{1, 2, 3, 4}, c.pubs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	result, err := cl.Invoke(ctx, []byte("add 1"))
	if err != nil {
		t.Fatalf("post-remove invoke: %v", err)
	}
	if decodeInt(result) != 16 {
		t.Fatalf("post-remove result = %d, want 16", decodeInt(result))
	}
	eventually(t, 10*time.Second, "epoch 2 everywhere", func() bool {
		for _, id := range []transport.NodeID{1, 2, 3, 4} {
			if c.replicas[id].Stats().CurrentEpoch != 2 {
				return false
			}
		}
		return true
	})
}

func TestReconfigRejectedWithoutControllerKey(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	c.start()
	defer c.stop()
	cl := c.client(0) // ordinary client, not the controller
	defer cl.Close()

	op := EncodeReconfigOp(ReconfigOp{Add: false, Replica: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := cl.Invoke(ctx, op); err == nil {
		t.Fatal("reconfiguration signed by a non-controller client was executed")
	}
	for _, r := range c.replicas {
		if r.Stats().CurrentEpoch != 0 {
			t.Fatal("membership changed despite invalid signature")
		}
	}
}

func TestMembershipHelpers(t *testing.T) {
	c := newCluster(t, 7, 0, nil)
	defer c.stop()
	m := c.membership
	if m.N() != 7 || m.F() != 2 || m.Quorum() != 5 {
		t.Errorf("n=%d f=%d q=%d", m.N(), m.F(), m.Quorum())
	}
	if m.Primary(0) != 0 || m.Primary(8) != 1 {
		t.Errorf("primary rotation wrong: %d %d", m.Primary(0), m.Primary(8))
	}
	added, err := m.WithAdded(100, c.pubs[0])
	if err != nil || added.N() != 8 || added.Epoch != 1 {
		t.Errorf("WithAdded: %v %v", added, err)
	}
	if _, err := m.WithAdded(0, c.pubs[0]); err == nil {
		t.Error("duplicate add accepted")
	}
	removed, err := m.WithRemoved(6)
	if err != nil || removed.N() != 6 {
		t.Errorf("WithRemoved: %v %v", removed, err)
	}
	if _, err := m.WithRemoved(99); err == nil {
		t.Error("removing non-member accepted")
	}
	four, _ := NewMembership([]transport.NodeID{0, 1, 2, 3}, c.pubs)
	if _, err := four.WithRemoved(0); err == nil {
		t.Error("shrinking below 4 accepted")
	}
	if m.Digest() == added.Digest() {
		t.Error("digests collide across memberships")
	}
}

// TestPrimaryAcrossMembershipChange pins Primary(v) = Replicas[v mod n]
// across one swap's ADD and REMOVE. The view does not change with the
// epoch, so at a fixed view either change can hand the primary role to
// another replica with no new-view message (ROADMAP item 0(a)). The
// asserted values are today's; the logged moves are the rows a fix that
// keeps the primary, or changes the view with it, must change.
func TestPrimaryAcrossMembershipChange(t *testing.T) {
	pub, _ := keypair(t)
	keys := map[transport.NodeID]ed25519.PublicKey{0: pub, 1: pub, 2: pub, 3: pub}
	before, err := NewMembership([]transport.NodeID{0, 1, 2, 3}, keys)
	if err != nil {
		t.Fatal(err)
	}
	added, err := before.WithAdded(4, pub)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := added.WithRemoved(0)
	if err != nil {
		t.Fatal(err)
	}
	// Primary at each view: before, after the ADD of 4, after the REMOVE of 0.
	want := [][3]transport.NodeID{
		{0, 0, 1},
		{1, 1, 2},
		{2, 2, 3},
		{3, 3, 4},
		{0, 4, 1}, // view 4: the ADD makes the joiner primary
		{1, 0, 2},
	}
	moves := 0
	for v, w := range want {
		view := uint64(v)
		got := [3]transport.NodeID{before.Primary(view), added.Primary(view), removed.Primary(view)}
		if got != w {
			t.Errorf("view %d: primaries %v, want %v", view, got, w)
		}
		for i, change := range []string{"ADD", "REMOVE"} {
			if got[i] != got[i+1] {
				moves++
				t.Logf("view %d: the %s moves the primary %d -> %d with no view change", view, change, got[i], got[i+1])
			}
		}
	}
	if moves != 8 {
		t.Errorf("%d primary moves across the swap, want 8 (2 by the ADD, 6 by the REMOVE)", moves)
	}
}

func TestMessageSignatures(t *testing.T) {
	pub, priv := keypair(t)
	pub2, _ := keypair(t)
	m := &Message{Type: MsgViewChange, From: 2, NewView: 3, LastStable: 8}
	m.Sign(priv)
	if !m.VerifySig(pub) {
		t.Error("valid signature rejected")
	}
	if m.VerifySig(pub2) {
		t.Error("wrong key accepted")
	}
	m.LastStable = 9
	if m.VerifySig(pub) {
		t.Error("tampered message accepted")
	}
}

func TestRequestSignature(t *testing.T) {
	pub, priv := keypair(t)
	r := Request{Client: transport.ClientIDBase, Seq: 4, Op: []byte("x")}
	r.Sign(priv)
	if !r.Verify(pub) {
		t.Error("valid request rejected")
	}
	r.Op = []byte("y")
	if r.Verify(pub) {
		t.Error("tampered request accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	batch := &Batch{Requests: []Request{{Client: 1001, Seq: 2, Op: []byte("op")}}}
	m := &Message{
		Type:        MsgPrePrepare,
		From:        1,
		View:        3,
		SeqNo:       17,
		Epoch:       2,
		Batch:       batch,
		BatchDigest: batch.Digest(),
	}
	payload, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.SeqNo != m.SeqNo || got.BatchDigest != m.BatchDigest {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestBatchDigestOrderSensitive(t *testing.T) {
	a := Request{Client: 1001, Seq: 1, Op: []byte("x")}
	b := Request{Client: 1001, Seq: 2, Op: []byte("y")}
	d1 := (&Batch{Requests: []Request{a, b}}).Digest()
	d2 := (&Batch{Requests: []Request{b, a}}).Digest()
	if d1 == d2 {
		t.Error("batch digest ignores order")
	}
	if (&Batch{}).Digest().IsZero() {
		t.Error("empty batch digest is zero")
	}
}

// TestSevenReplicasToleratesTwoFaults: n=7 tolerates f=2 — two silent
// replicas plus one corrupt replier still leave a correct quorum of 5 and
// an honest f+1 reply set.
func TestSevenReplicasToleratesTwoFaults(t *testing.T) {
	c := newCluster(t, 7, 1, nil)
	c.mute(5, 6) // backups; view-0 primary is replica 0
	c.start()
	defer c.stop()
	if c.membership.F() != 2 || c.membership.Quorum() != 5 {
		t.Fatalf("n=7 f=%d quorum=%d", c.membership.F(), c.membership.Quorum())
	}
	cl := c.client(0)
	defer cl.Close()
	var want int64
	for i := 1; i <= 6; i++ {
		want += int64(i)
		if got := decodeInt(invoke(t, cl, fmt.Sprintf("add %d", i))); got != want {
			t.Fatalf("result %d, want %d", got, want)
		}
	}
	// The five correct replicas converge.
	eventually(t, 5*time.Second, "correct-replica convergence", func() bool {
		for id, app := range c.apps {
			if id >= 5 {
				continue
			}
			if app.Value() != want {
				return false
			}
		}
		return true
	})
}

// TestSevenReplicasViewChangeCascade: with the primaries of views 0 AND 1
// silent, liveness requires cascading view changes to view 2.
func TestSevenReplicasViewChangeCascade(t *testing.T) {
	c := newCluster(t, 7, 1, nil)
	c.mute(0, 1)
	c.start()
	defer c.stop()
	cl := c.client(0)
	defer cl.Close()
	if got := decodeInt(invoke(t, cl, "add 42")); got != 42 {
		t.Fatalf("result %d, want 42", got)
	}
	eventually(t, 5*time.Second, "cascade past view 1", func() bool {
		return c.replicas[2].Stats().CurrentView >= 2
	})
}

// TestBatchingAmortizesConsensus: under concurrent load the primary packs
// multiple requests per consensus instance, so instances executed stay
// well below operations executed.
func TestBatchingAmortizesConsensus(t *testing.T) {
	c := newCluster(t, 4, 8, func(cfg *ReplicaConfig) {
		cfg.BatchDelay = 5 * time.Millisecond // give batches time to fill
	})
	c.start()
	defer c.stop()

	const perClient = 10
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.client(i)
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for j := 0; j < perClient; j++ {
				if _, err := cl.Invoke(ctx, []byte("add 1")); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := int64(8 * perClient)
	eventually(t, 5*time.Second, "convergence", func() bool {
		return c.apps[0].Value() == total
	})
	instances := c.replicas[0].Stats().Executed
	if instances >= uint64(total) {
		t.Errorf("executed %d instances for %d ops; batching never amortized", instances, total)
	}
}
