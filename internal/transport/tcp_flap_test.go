package transport

import (
	"testing"
	"time"
)

// TestTCPRedialCutsBackoffOnSendAfterHeal scripts a link flap: the peer
// is down long enough for the writer's redial backoff to reach its cap,
// then comes back. A send issued after the heal must trigger a prompt
// reconnect — the old sleep waited out the full capped backoff (here 3s
// plus jitter) no matter what, so a healed link stayed unused for
// seconds while frames piled up behind a timer.
func TestTCPRedialCutsBackoffOnSendAfterHeal(t *testing.T) {
	// Node 3's port is reserved then released: down for now, but
	// re-bindable when the flap ends.
	tnet, a, _ := newTwoNodeTCP(t, TCPConfig{}, blackholeAddr(t), func(l *tcpLimits) {
		l.dialTimeout = 200 * time.Millisecond
		l.redialBackoff, l.redialBackoffMax = 10*time.Millisecond, 3*time.Second
	})

	// Flap phase 1: one frame toward the dead peer parks its writer in
	// the dial/backoff loop. Nine failures sleep 10+20+...+1280ms, after
	// which the backoff sits at the 3s cap.
	if err := a.Send(3, []byte("during-down")); err != nil {
		t.Fatal(err)
	}
	eventuallyStats(t, tnet, 20*time.Second, "backoff growth", func(s Stats) bool {
		return s.DialFailures >= 9
	})

	// Flap phase 2: the link heals — node 3's listener comes up — while
	// the writer is at most a poll interval into a >=3s sleep.
	c, err := tnet.Endpoint(3)
	if err != nil {
		t.Fatalf("endpoint 3: %v", err)
	}
	start := time.Now()
	if err := a.Send(3, []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	for {
		env := recvOne(t, c, 5*time.Second)
		if string(env.Payload) == "after-heal" {
			break
		}
	}
	if elapsed := time.Since(start); elapsed >= 1500*time.Millisecond {
		t.Fatalf("post-heal send took %v to arrive; the writer slept out its capped backoff instead of redialing on the send", elapsed)
	}
}
