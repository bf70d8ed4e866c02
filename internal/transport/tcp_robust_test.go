package transport

import (
	"net"
	"testing"
	"time"
)

// eventuallyStats polls the network's counters until cond accepts them.
func eventuallyStats(t testing.TB, n Network, timeout time.Duration, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond(n.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: counters never satisfied condition: %+v", what, n.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// blackholeAddr returns a loopback address where nothing answers: the
// port was bound and released, so dialing it fails.
func blackholeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// newTwoNodeTCP builds a TCP net where node 1 is the sender, node 2 is a
// live endpoint, and node 3's address is the given (possibly hostile)
// addr. A non-nil tune shortens the network's limits before any endpoint
// opens. It returns the sender and receiver endpoints.
func newTwoNodeTCP(t testing.TB, cfg TCPConfig, addr3 string, tune func(*tcpLimits)) (*TCP, Endpoint, Endpoint) {
	t.Helper()
	cfg.Addrs = map[NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: addr3}
	if len(cfg.Secret) == 0 {
		cfg.Secret = []byte("robustness-test")
	}
	tnet, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(&tnet.lim)
	}
	t.Cleanup(func() { tnet.Close() })
	b, err := tnet.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	// Resolve node 2's :0 port so node 1 can reach it.
	cfg.Addrs[2] = b.(*tcpEndpoint).listener.Addr().String()
	a, err := tnet.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	return tnet, a, b
}

// TestTCPUnreachablePeerDoesNotBlockHealthySends is the head-of-line
// regression test: with one peer configured at an address that never
// answers, sends to a healthy peer must complete well inside the
// configured dial timeout (the old design held the endpoint mutex across
// net.Dial, so one dead peer froze every concurrent Send).
func TestTCPUnreachablePeerDoesNotBlockHealthySends(t *testing.T) {
	const dialTimeout = 400 * time.Millisecond
	tnet, a, b := newTwoNodeTCP(t, TCPConfig{}, blackholeAddr(t), func(l *tcpLimits) {
		l.dialTimeout, l.writeTimeout = dialTimeout, 400*time.Millisecond
		l.redialBackoff, l.redialBackoffMax = 10*time.Millisecond, 50*time.Millisecond
		// Deep enough that the burst below never overflows: every frame
		// to the healthy peer must arrive, not be shed as queue-full.
		l.sendQueueDepth = 128
	})

	const msgs = 50
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if err := a.Send(3, []byte("into the void")); err != nil {
			t.Fatalf("send to unreachable peer errored instead of queueing/dropping: %v", err)
		}
		if err := a.Send(2, []byte("to the living")); err != nil {
			t.Fatalf("send to healthy peer: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed >= dialTimeout {
		t.Fatalf("%d interleaved sends took %v, blocked behind the dead peer (dial timeout %v)",
			2*msgs, elapsed, dialTimeout)
	}
	for i := 0; i < msgs; i++ {
		if env := recvOne(t, b, 2*time.Second); string(env.Payload) != "to the living" {
			t.Fatalf("payload = %q", env.Payload)
		}
	}
	// The dead peer's dial attempts run (and fail) in the background.
	eventuallyStats(t, tnet, 2*time.Second, "dial failures", func(s Stats) bool {
		return s.DialFailures >= 1
	})
}

// TestTCPStalledPeerTripsWriteDeadline wedges a peer that accepts
// connections but never reads: once its socket buffers fill, the old
// writeFrame blocked forever. Now sends stay non-blocking (overflow is
// dropped and counted), the write deadline trips — also on a coalesced
// write, which loses every frame it carried — and traffic to a healthy
// peer keeps flowing throughout.
func TestTCPStalledPeerTripsWriteDeadline(t *testing.T) {
	// A listener that accepts and holds connections without reading.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// Hold every connection open without reading; release them all
		// once the listener is closed at test end.
		var held []net.Conn
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()

	tnet, a, b := newTwoNodeTCP(t, TCPConfig{}, ln.Addr().String(), func(l *tcpLimits) {
		l.dialTimeout, l.writeTimeout = 500*time.Millisecond, 150*time.Millisecond
		l.redialBackoff, l.redialBackoffMax = 10*time.Millisecond, 50*time.Millisecond
		l.sendQueueDepth = 4
	})

	// Frames bigger than any kernel socket buffer: a single write can
	// never complete against a peer that doesn't read, so the writer is
	// guaranteed to block and trip its deadline.
	big := make([]byte, 8<<20)
	start := time.Now()
	if err := a.Send(3, big); err != nil {
		t.Fatalf("send to stalled peer: %v", err)
	}
	// The writer dials once it holds the first frame, which fills a write
	// on its own. While that write is wedged, three small frames and a big
	// one fill the queue — the next write carries all four — and the rest
	// are shed.
	eventuallyStats(t, tnet, 2*time.Second, "writer took the first frame", func(s Stats) bool { return s.Dials >= 1 })
	for i := 0; i < 3; i++ {
		if err := a.Send(3, []byte("small")); err != nil {
			t.Fatalf("send to stalled peer: %v", err)
		}
	}
	for i := 0; i < 7; i++ {
		if err := a.Send(3, big); err != nil {
			t.Fatalf("send to stalled peer: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("11 sends to a stalled peer took %v, the enqueue path blocked", elapsed)
	}
	// Healthy traffic keeps moving while the stalled writer is wedged.
	if err := a.Send(2, []byte("still moving")); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b, 2*time.Second); string(env.Payload) != "still moving" {
		t.Fatalf("payload = %q", env.Payload)
	}
	eventuallyStats(t, tnet, 5*time.Second, "two write deadline trips", func(s Stats) bool {
		return s.WriteDeadlineTrips >= 2 && s.DropsWriteFail >= 1+4 && s.DropsQueueFull >= 1
	})
	if s := tnet.Stats(); s.WriteDeadlineTrips != 2 || s.DropsWriteFail != 1+4 {
		t.Errorf("deadline trips %d, write-fail drops %d; want 2 writes losing 1 and 4 frames", s.WriteDeadlineTrips, s.DropsWriteFail)
	}
}

// TestTCPClosePromptWithDeadPeer proves Close does not deadlock (or wait
// out the dial timeout) while a writer is mid-dial/backoff against an
// unreachable peer.
func TestTCPClosePromptWithDeadPeer(t *testing.T) {
	tnet, a, _ := newTwoNodeTCP(t, TCPConfig{}, blackholeAddr(t), func(l *tcpLimits) {
		l.dialTimeout = 5 * time.Second // far longer than the Close bound below
		l.redialBackoff, l.redialBackoffMax = time.Second, 5*time.Second
	})
	if err := a.Send(3, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the writer enter its dial/backoff loop
	closed := make(chan struct{})
	go func() {
		tnet.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind an in-flight dial to a dead peer")
	}
}

// TestTCPStatsCounts checks the happy-path counters: frames and bytes on
// both sides and exactly one dial for a persistent connection.
func TestTCPStatsCounts(t *testing.T) {
	tnet, a, b := newTwoNodeTCP(t, TCPConfig{}, blackholeAddr(t), nil)
	const msgs = 5
	for i := 0; i < msgs; i++ {
		if err := a.Send(2, []byte("count me")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		recvOne(t, b, 2*time.Second)
	}
	// The writer counts a frame after the write returns, which can be
	// after the receiver handed it over.
	eventuallyStats(t, tnet, 2*time.Second, "sender counted its frames", func(s Stats) bool { return s.FramesSent == msgs })
	s := tnet.Stats()
	if s.FramesSent != msgs || s.FramesRecv != msgs {
		t.Errorf("frames sent/recv = %d/%d, want %d/%d", s.FramesSent, s.FramesRecv, msgs, msgs)
	}
	wantBytes := int64(msgs * (frameOverhead + len("count me")))
	if s.BytesSent != wantBytes || s.BytesRecv != wantBytes {
		t.Errorf("bytes sent/recv = %d/%d, want %d", s.BytesSent, s.BytesRecv, wantBytes)
	}
	if s.Dials != 1 || s.Redials != 0 {
		t.Errorf("dials/redials = %d/%d, want 1/0", s.Dials, s.Redials)
	}
}

// TestTCPStatsAuthAndMisroute feeds the listener a frame MACed with the
// wrong secret and a well-MACed frame addressed to the wrong node; both
// must be rejected and counted.
func TestTCPStatsAuthAndMisroute(t *testing.T) {
	tnet, _, b := newTwoNodeTCP(t, TCPConfig{Secret: []byte("right")}, blackholeAddr(t), nil)
	addr := b.(*tcpEndpoint).listener.Addr().String()

	rogue, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if err := writeFrame(rogue, []byte("wrong"), Envelope{From: 9, To: 2, Payload: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	eventuallyStats(t, tnet, 2*time.Second, "auth-fail drop", func(s Stats) bool {
		return s.DropsAuthFail == 1
	})

	stray, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if err := writeFrame(stray, []byte("right"), Envelope{From: 9, To: 99, Payload: []byte("lost")}); err != nil {
		t.Fatal(err)
	}
	eventuallyStats(t, tnet, 2*time.Second, "misroute drop", func(s Stats) bool {
		return s.DropsMisrouted == 1
	})
}
