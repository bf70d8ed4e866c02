package transport

import (
	"math/rand"
	"testing"
	"time"
)

// TestJitterSeedDeterministic pins the redial-jitter contract: the
// per-writer RNG is fully determined by (network seed, endpoint, peer),
// so two networks built from the same seed replay identical backoff
// sequences — the property the seeded chaos harness depends on. The
// old implementation drew from the global math/rand, which interleaves
// with every other goroutine in the process and made runs unrepeatable.
func TestJitterSeedDeterministic(t *testing.T) {
	draw := func(seed int64, self, to NodeID) []int64 {
		rng := rand.New(rand.NewSource(jitterSeed(seed, self, to)))
		out := make([]int64, 8)
		for i := range out {
			out[i] = rng.Int63n(1000)
		}
		return out
	}
	a, b := draw(42, 1, 2), draw(42, 1, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (seed, self, to) diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Distinct directed pairs must not march in lockstep.
	if c := draw(42, 2, 1); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("reverse direction (2,1) replays (1,2)'s jitter stream")
	}
	if d := draw(43, 1, 2); a[0] == d[0] && a[1] == d[1] && a[2] == d[2] {
		t.Error("different network seed replays the same jitter stream")
	}
}

// TestPeerWriterSleepJitterBounds drives sleep() directly: the waited
// duration includes up to 50% jitter, a wake() cuts the wait short but
// never below the base-backoff floor, and a closing endpoint aborts
// the wait immediately.
func TestPeerWriterSleepJitterBounds(t *testing.T) {
	ep := &tcpEndpoint{
		net:    &TCP{lim: tcpLimits{redialBackoff: 10 * time.Millisecond}},
		closed: make(chan struct{}),
	}
	pw := &peerWriter{
		ep:   ep,
		kick: make(chan struct{}, 1),
		rng:  rand.New(rand.NewSource(jitterSeed(1, 0, 1))),
	}

	start := time.Now()
	if !pw.sleep(10 * time.Millisecond) {
		t.Fatal("sleep returned false with the endpoint open")
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Errorf("slept %v, want at least the base backoff 10ms", waited)
	}

	// A wake cuts a long backoff short, but not below the floor — and a
	// nudge already pending when sleep starts is stale and gets drained
	// rather than trusted, so this one must wait out the floor too.
	pw.wake()
	pw.wake() // idempotent: a pending nudge is as good as two
	go func() {
		time.Sleep(20 * time.Millisecond)
		pw.wake()
	}()
	start = time.Now()
	if !pw.sleep(10 * time.Second) {
		t.Fatal("woken sleep returned false with the endpoint open")
	}
	waited := time.Since(start)
	if waited < 10*time.Millisecond {
		t.Errorf("woken sleep waited %v, want at least the 10ms floor", waited)
	}
	if waited > 5*time.Second {
		t.Errorf("woken sleep waited %v, want the wake to cut the 10s backoff short", waited)
	}

	close(ep.closed)
	start = time.Now()
	if pw.sleep(10 * time.Second) {
		t.Fatal("sleep returned true on a closed endpoint")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("closed-endpoint sleep took %v, want immediate return", waited)
	}
}
