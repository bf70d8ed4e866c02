package bft

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// Tests of the unsigned proposal (DESIGN.md §10): a pre-prepare is
// authenticated by the primary's channel alone, and a prepared certificate
// is quorum−1 signed prepares of one epoch.

// TestCertificatesNeverConflict is §10's safety argument as a property, at
// n = 4 and n = 5. At most f members are faulty and sign prepares for
// every digest. A correct primary sends one digest per (view, seq), a
// faulty one any digest, or none, to each backup, and a correct backup
// prepares only the digest the primary sent it. The same (view, seq) ran
// in the previous epoch too, under the same rules: views carry over and
// the epoch fence reuses sequence numbers. Given every prepare anyone
// signed, validPreparedProof accepts at most one digest.
func TestCertificatesNeverConflict(t *testing.T) {
	for _, n := range []int{4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := newCluster(t, n, 0, nil)
			defer c.stop()
			mem := c.membership.Clone()
			mem.Epoch = 1
			var batches [3]*Batch
			for i := range batches {
				batches[i] = &Batch{Requests: []Request{{Client: transport.ClientIDBase, Seq: uint64(i + 1)}}}
			}
			// Signatures are memoised: the cases reuse a few views.
			type vote struct {
				from        transport.NodeID
				epoch, view uint64
				digest      int
			}
			signed := make(map[vote]Message)
			prepare := func(v vote) Message {
				if m, ok := signed[v]; ok {
					return m
				}
				m := *signedMsg(c, &Message{Type: MsgPrepare, From: v.from, View: v.view, SeqNo: 1,
					Epoch: v.epoch, BatchDigest: batches[v.digest].Digest()})
				signed[v] = m
				return m
			}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				view := uint64(rng.Intn(2 * n))
				primary := mem.Primary(view)
				faulty := make(map[transport.NodeID]bool)
				for _, i := range rng.Perm(n)[:rng.Intn(mem.F()+1)] {
					faulty[mem.Replicas[i]] = true
				}
				byDigest := make([][]Message, len(batches))
				for epoch := uint64(0); epoch <= mem.Epoch; epoch++ {
					proposal := rng.Intn(len(batches))
					for _, id := range mem.Replicas {
						switch {
						case faulty[id]:
							for d := range batches {
								byDigest[d] = append(byDigest[d], prepare(vote{id, epoch, view, d}))
							}
						case id != primary:
							sent := proposal
							if faulty[primary] {
								sent = rng.Intn(len(batches) + 1) // len(batches): sent nothing
							}
							if sent < len(batches) {
								byDigest[sent] = append(byDigest[sent], prepare(vote{id, epoch, view, sent}))
							}
						}
					}
				}
				valid := 0
				for d, votes := range byDigest {
					p := &PreparedProof{View: view, SeqNo: 1, BatchDigest: batches[d].Digest(),
						Batch: batches[d], Prepares: votes}
					if validPreparedProof(p, mem) {
						valid++
					}
				}
				if valid > 1 {
					t.Logf("seed %d: %d digests certified at view %d (faulty %v)", seed, valid, view, faulty)
				}
				return valid <= 1
			}
			cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(int64(n)))}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOldEpochCertificateLoses: a certificate from the previous epoch can
// name the same (view, seq) as one from this epoch, for another batch. A
// VIEW-CHANGE carrying it must not decide what the new view re-proposes,
// nor may a CATCH-UP install it: only prepares signed in the current epoch
// count. The old certificate goes first, which is where the tie between
// two same-view proofs used to fall.
func TestOldEpochCertificateLoses(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	mem := c.membership.Clone()
	mem.Epoch = 1
	cert := func(epoch uint64, op string) PreparedProof {
		batch := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, 1, op)}}
		d := batch.Digest()
		p := PreparedProof{View: 0, SeqNo: 1, BatchDigest: d, Batch: batch}
		for _, from := range []transport.NodeID{1, 2} {
			p.Prepares = append(p.Prepares, *signedMsg(c, &Message{Type: MsgPrepare, From: from,
				View: 0, SeqNo: 1, Epoch: epoch, BatchDigest: d}))
		}
		return p
	}
	old, cur := cert(0, "add 1"), cert(1, "add 2")
	vcs := []Message{
		{Type: MsgViewChange, From: 1, Epoch: 1, NewView: 1, Prepared: []PreparedProof{old}},
		{Type: MsgViewChange, From: 2, Epoch: 1, NewView: 1, Prepared: []PreparedProof{cur}},
		{Type: MsgViewChange, From: 3, Epoch: 1, NewView: 1},
	}
	out := buildNewViewProposals(1, 1, vcs, mem)
	if len(out) != 1 || out[0].BatchDigest != cur.BatchDigest {
		var got []Digest
		for i := range out {
			got = append(got, out[i].BatchDigest)
		}
		t.Fatalf("re-proposed %v, want the current epoch's batch %v at seq 1", got, cur.BatchDigest)
	}

	r := c.replicas[3] // unstarted, driven directly
	r.membership = mem
	r.onCatchUp(&Message{Type: MsgCatchUp, From: 1, SeqNo: 1, Epoch: 1, Prepared: []PreparedProof{old}})
	if in := r.log[1]; in != nil {
		t.Fatal("an old epoch's certificate was installed by a catch-up")
	}
	r.onCatchUp(&Message{Type: MsgCatchUp, From: 1, SeqNo: 1, Epoch: 1, Prepared: []PreparedProof{cur}})
	if in := r.log[1]; in == nil || !in.prepared || in.digest != cur.BatchDigest || in.prePrepare.From != 0 {
		t.Fatal("the current epoch's certificate did not install as view 0's proposal")
	}
}

// TestProposalNeedsPrimaryChannel: member 2 sends replica 1 a PRE-PREPARE
// whose payload names the primary as its sender. The transport's envelope
// says who sent it, and a proposal is not the primary's unless its channel
// carried it: this is all that authenticates a proposal. A genuine
// proposal from the primary, sent after it, installs.
func TestProposalNeedsPrimaryChannel(t *testing.T) {
	reg := metrics.NewRegistry()
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) { cfg.Metrics = reg })
	defer c.stop()
	r := c.replicas[1]
	var (
		mu       sync.Mutex
		prepared = make(map[uint64]bool)
	)
	c.mem.Intercept(1, func(_ transport.NodeID, p []byte) [][]byte {
		if m, err := Decode(p); err == nil && m.Type == MsgPrepare {
			mu.Lock()
			prepared[m.SeqNo] = true
			mu.Unlock()
		}
		return [][]byte{p}
	})
	r.Start()
	proposal := func(seq uint64) []byte {
		batch := &Batch{}
		return mustEncode(t, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: seq,
			Batch: batch, BatchDigest: batch.Digest()})
	}
	if err := c.replicas[2].ep.Send(1, proposal(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.replicas[0].ep.Send(1, proposal(2)); err != nil {
		t.Fatal(err)
	}
	arrived := reg.Counter("bft.msg_in.pre-prepare")
	eventually(t, 5*time.Second, "both proposals dispatched and the genuine one prepared", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return arrived.Value() == 2 && prepared[2]
	})
	r.Stop() // the loop is done with both: its state can be read
	if in := r.log[1]; in != nil && in.prePrepare != nil {
		t.Fatalf("replica 1 installed a proposal member 2 sent in the primary's name (from %d)", in.prePrepare.From)
	}
	mu.Lock()
	defer mu.Unlock()
	if prepared[1] {
		t.Fatal("replica 1 prepared a proposal member 2 sent in the primary's name")
	}
}

// TestPrePrepareAdmissionIsOneRule: onPrePrepare admits exactly the
// proposals prePrepareAdmissible does. Over sender, view, epoch, window,
// joining and an open view change, a proposal the rule rejects leaves the
// log untouched when the handler is called directly, and one it admits
// installs.
func TestPrePrepareAdmissionIsOneRule(t *testing.T) {
	rows := []struct {
		name  string
		admit bool
		set   func(r *Replica, pp *Message)
	}{
		{"the primary's proposal", true, func(*Replica, *Message) {}},
		{"from a backup", false, func(_ *Replica, pp *Message) { pp.From = 2 }},
		{"from a non-member", false, func(_ *Replica, pp *Message) { pp.From = 9 }},
		// Replica 0 leads views 0 and 4 alike: only the view differs.
		{"for a later view", false, func(_ *Replica, pp *Message) { pp.View = 4 }},
		{"for an earlier view", false, func(r *Replica, _ *Message) { r.view = 4 }},
		{"for another epoch", false, func(_ *Replica, pp *Message) { pp.Epoch++ }},
		{"at the low watermark", false, func(r *Replica, pp *Message) { r.lowWater = pp.SeqNo }},
		{"above the window", false, func(r *Replica, pp *Message) { pp.SeqNo = r.lowWater + r.window() + 1 }},
		{"at the window's top", true, func(r *Replica, pp *Message) { pp.SeqNo = r.lowWater + r.window() }},
		{"while joining", false, func(r *Replica, _ *Message) { r.joining = true }},
		{"during a view change", false, func(r *Replica, _ *Message) { r.inViewChange = true }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newCluster(t, 4, 1, nil)
			defer c.stop()
			r := c.replicas[1]
			_, pp := batchOf(c, 1)
			row.set(r, pp)
			if got := r.prePrepareAdmissible(pp); got != row.admit {
				t.Fatalf("prePrepareAdmissible = %v, want %v", got, row.admit)
			}
			r.onPrePrepare(pp)
			in := r.log[pp.SeqNo]
			if installed := in != nil && in.prePrepare != nil; installed != row.admit {
				t.Errorf("onPrePrepare installed the proposal: %v, want %v", installed, row.admit)
			}
			if !row.admit && len(r.log) != 0 {
				t.Errorf("a rejected proposal left %d log instances", len(r.log))
			}
		})
	}
}

// splitApp is a counterApp whose snapshot names its replica, so no two
// replicas' checkpoint digests agree.
type splitApp struct {
	counterApp
	id transport.NodeID
}

func (a *splitApp) Snapshot() ([]byte, error) {
	b, err := a.counterApp.Snapshot()
	return append(b, byte(a.id)), err
}

// TestCheckpointSplitReported: when the votes at a checkpoint rule out a
// quorum for every digest, each replica counts bft.checkpoint_splits once
// for that seq and logs a line naming the seq, its own digest and the
// tally per digest.
func TestCheckpointSplitReported(t *testing.T) {
	reg := metrics.NewRegistry()
	var (
		mu    sync.Mutex
		lines []string
	)
	c := newCluster(t, 4, 1, func(cfg *ReplicaConfig) {
		cfg.App = &splitApp{id: cfg.ID}
		cfg.Metrics = reg
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	defer c.stop()
	c.start()
	cl := c.client(0)
	defer cl.Close()
	for i := uint64(0); i < c.replicas[0].cfg.CheckpointInterval+2; i++ {
		invoke(t, cl, "add 1")
	}
	splits := reg.Counter("bft.checkpoint_splits")
	eventually(t, 5*time.Second, "a split counted at every replica", func() bool { return splits.Value() >= 4 })
	time.Sleep(100 * time.Millisecond) // more votes at the same seq must not count again
	if got := splits.Value(); got != 4 {
		t.Errorf("bft.checkpoint_splits = %d, want 4: once per replica for seq 8", got)
	}
	mu.Lock()
	defer mu.Unlock()
	var found []string
	for _, l := range lines {
		if strings.Contains(l, "checkpoint digests split at seq 8") {
			found = append(found, l)
		}
	}
	if len(found) != 4 {
		t.Fatalf("%d split lines, want 4: %q", len(found), found)
	}
	for _, l := range found {
		if !strings.Contains(l, "own ") || !strings.Contains(l, "tally map[") {
			t.Errorf("split line %q does not name this replica's digest and the tally", l)
		}
	}
}

// BenchmarkProposal times one instance's proposal at n = 4, a full batch
// of batchSize requests: primary, the primary taking them off its queue,
// encoding the pre-prepare and sending it; backup, a backup that already
// MAC'd the requests decoding the proposal, accepting it and signing and
// sending its prepare. Neither verifies a signature (verifies/op); the
// backup signs one prepare, the primary nothing.
func BenchmarkProposal(b *testing.B) {
	reg := metrics.NewRegistry()
	c := newCluster(b, 4, 1, func(cfg *ReplicaConfig) { cfg.Metrics = reg })
	defer c.stop()
	reqs := make([]Request, batchSize)
	for i := range reqs {
		reqs[i] = signedReq(c, transport.ClientIDBase, uint64(i+1), "add 1")
	}
	verifies := reg.Counter("bft.verify_ops")
	run := func(b *testing.B, op func()) {
		b.ReportAllocs()
		before := verifies.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		if got := verifies.Value() - before; got != 0 {
			b.Fatalf("%d ed25519 verifications, want 0", got)
		}
		b.ReportMetric(0, "verifies/op")
	}

	b.Run("primary", func(b *testing.B) {
		r := c.replicas[0]
		for i := range reqs {
			r.verified.add(reqs[i].Digest(), reqs[i].Sig)
		}
		run(b, func() {
			delete(r.log, 1)
			r.seq, r.lastExec = 0, 0
			r.pending = append(r.pending[:0], reqs...)
			for i := range reqs {
				r.pendingSet[reqs[i].Digest()] = true
			}
			r.propose(false)
			if in := r.log[1]; in == nil || len(in.batch.Requests) != batchSize {
				b.Fatal("primary did not propose a full batch")
			}
		})
	})

	b.Run("backup", func(b *testing.B) {
		r := c.replicas[1]
		for i := range reqs {
			r.verified.add(reqs[i].Digest(), nil) // MAC'd, as a backup accepts a REQUEST
		}
		batch := &Batch{Requests: reqs}
		payload := mustEncode(b, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: 1,
			Batch: batch, BatchDigest: batch.Digest()})
		run(b, func() {
			delete(r.log, 1)
			m, err := Decode(payload)
			if err != nil {
				b.Fatal(err)
			}
			r.dispatch(m)
			if in := r.log[1]; in == nil || in.prePrepare == nil || len(in.prepareMsgs[1].Sig) != ed25519.SignatureSize {
				b.Fatal("backup did not accept the proposal and sign its prepare")
			}
		})
	})
}
