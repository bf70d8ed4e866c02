package bft

import (
	"testing"
	"time"

	"lazarus/internal/transport"
)

// TestTimeoutCtlDisabledIsStatic pins the baseline: a disabled
// controller is the pre-adaptive replica, returning the configured
// constant no matter what it observes.
func TestTimeoutCtlDisabledIsStatic(t *testing.T) {
	tc := newTimeoutCtl(false, 300*time.Millisecond)
	if tc.min != 75*time.Millisecond || tc.max != 2400*time.Millisecond {
		t.Fatalf("clamp [%v, %v], want [base/4, 8×base]", tc.min, tc.max)
	}
	tc.observe(50 * time.Millisecond)
	tc.onTimeout()
	tc.onTimeout()
	if got := tc.timeout(); got != 300*time.Millisecond {
		t.Fatalf("disabled controller returned %v, want the 300ms constant", got)
	}
	tc.progress()
	if got := tc.timeout(); got != 300*time.Millisecond {
		t.Fatalf("disabled controller drifted to %v", got)
	}
}

func TestTimeoutCtlTracksRTT(t *testing.T) {
	tc := newTimeoutCtl(true, 300*time.Millisecond)
	tc.min, tc.max = 10*time.Millisecond, 5*time.Second
	if got := tc.timeout(); got != 300*time.Millisecond {
		t.Fatalf("unsampled controller returned %v, want the base", got)
	}
	// A steady 2ms network should pull the timeout far below the 300ms
	// static base (fast fault detection on fast links)...
	for i := 0; i < 50; i++ {
		tc.observe(2 * time.Millisecond)
	}
	fast := tc.timeout()
	if fast >= 300*time.Millisecond {
		t.Fatalf("fast network timeout %v did not drop below the static base", fast)
	}
	if fast < 10*time.Millisecond {
		t.Fatalf("timeout %v violated the min clamp", fast)
	}
	// ...and a steady 100ms network should push it above it (no spurious
	// view changes on slow links).
	for i := 0; i < 50; i++ {
		tc.observe(100 * time.Millisecond)
	}
	slow := tc.timeout()
	if slow <= 300*time.Millisecond {
		t.Fatalf("slow network timeout %v did not rise above the static base", slow)
	}
	if slow > 5*time.Second {
		t.Fatalf("timeout %v violated the max clamp", slow)
	}
}

func TestTimeoutCtlBackoffAndDecay(t *testing.T) {
	tc := newTimeoutCtl(true, 300*time.Millisecond)
	tc.min, tc.max = 10*time.Millisecond, 60*time.Second
	for i := 0; i < 20; i++ {
		tc.observe(10 * time.Millisecond)
	}
	base := tc.timeout()
	if !tc.onTimeout() {
		t.Fatal("first onTimeout did not raise the backoff")
	}
	if got := tc.timeout(); got != 2*base {
		t.Fatalf("one timeout: %v, want doubled %v", got, 2*base)
	}
	tc.onTimeout()
	if got := tc.timeout(); got != 4*base {
		t.Fatalf("two timeouts: %v, want quadrupled %v", got, 4*base)
	}
	tc.progress()
	if got := tc.timeout(); got != 2*base {
		t.Fatalf("after one progress decay: %v, want %v", got, 2*base)
	}
	tc.progress()
	tc.progress() // extra decay at level zero must not underflow
	if got := tc.timeout(); got != base {
		t.Fatalf("fully decayed: %v, want %v", got, base)
	}
}

func TestTimeoutCtlBackoffCapped(t *testing.T) {
	tc := newTimeoutCtl(true, 300*time.Millisecond)
	tc.min, tc.max = 10*time.Millisecond, 2*time.Second
	for i := 0; i < 20; i++ {
		tc.observe(50 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		tc.onTimeout()
	}
	if got := tc.timeout(); got != 2*time.Second {
		t.Fatalf("runaway backoff returned %v, want the 2s max clamp", got)
	}
	if tc.backoff > timeoutBackoffCap {
		t.Fatalf("backoff level %d exceeded cap %d", tc.backoff, timeoutBackoffCap)
	}
}

// TestProgressTimerNotArmedByExecutedProposal: votes can reach a backup
// before the proposal they vote on (the proposal takes a detour through
// the verify pool), and then accepting the proposal executes it on the
// spot. onPrePrepare used to arm the progress timer after that anyway; the
// next execution reset it, so under load nobody noticed, but whenever the
// load paused the timer ran out with nothing owed, the replica volunteered
// for a view change alone, refused proposals from then on, and came back
// only by state transfer — the view changes and transfers of fault-free
// runs.
func TestProgressTimerNotArmedByExecutedProposal(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	defer c.stop()
	r := c.replicas[1]

	batch := func(seq uint64) (*Batch, Digest) {
		b := &Batch{Requests: []Request{signedReq(c, transport.ClientIDBase, seq, "add 1")}}
		return b, b.Digest()
	}
	votes := func(seq uint64, d Digest) {
		for _, from := range []transport.NodeID{2, 3} {
			r.onPrepare(signedMsg(c, &Message{Type: MsgPrepare, From: from, View: 0, SeqNo: seq, BatchDigest: d}))
			r.onCommit(&Message{Type: MsgCommit, From: from, View: 0, SeqNo: seq, BatchDigest: d})
		}
	}
	propose := func(seq uint64, b *Batch, d Digest) {
		r.onPrePrepare(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, View: 0, SeqNo: seq, Batch: b, BatchDigest: d}))
	}

	b1, d1 := batch(1)
	votes(1, d1)
	propose(1, b1, d1)
	if r.lastExec != 1 {
		t.Fatalf("setup: lastExec %d, want 1", r.lastExec)
	}
	if r.vcArmed {
		t.Fatal("progress timer armed by a proposal that had already executed")
	}

	// The usual order still owes progress until the instance executes.
	b2, d2 := batch(2)
	propose(2, b2, d2)
	if !r.vcArmed {
		t.Fatal("progress timer not armed by an accepted, unexecuted proposal")
	}
	votes(2, d2)
	if r.lastExec != 2 || r.vcArmed {
		t.Fatalf("after executing: lastExec %d, timer armed %v; want 2 and false", r.lastExec, r.vcArmed)
	}
}
