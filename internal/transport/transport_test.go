package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvOne(t testing.TB, ep Endpoint, timeout time.Duration) Envelope {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	env, err := ep.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv on %d: %v", ep.ID(), err)
	}
	return env
}

func TestMemoryBasicDelivery(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, time.Second)
	if env.From != 1 || env.To != 2 || string(env.Payload) != "hello" {
		t.Errorf("envelope = %+v", env)
	}
}

func TestMemorySendCopiesPayload(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, _ := net.Endpoint(1)
	b, _ := net.Endpoint(2)
	buf := []byte("original")
	if err := a.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	env := recvOne(t, b, time.Second)
	if string(env.Payload) != "original" {
		t.Errorf("payload aliased sender buffer: %q", env.Payload)
	}
}

// TestMemoryObserve: an observer sees what is delivered to its node, with
// the sender, and not what an interceptor swallows; removing it ends that.
func TestMemoryObserve(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, _ := net.Endpoint(1)
	b, _ := net.Endpoint(2)
	c, _ := net.Endpoint(3)
	var seen []string
	net.Observe(2, func(from NodeID, payload []byte) { seen = append(seen, fmt.Sprintf("%d:%s", from, payload)) })
	a.Send(2, []byte("one"))
	b.Send(1, []byte("not to 2"))
	net.Intercept(3, func(NodeID, []byte) [][]byte { return nil })
	c.Send(2, []byte("lost"))
	net.Intercept(3, nil)
	c.Send(2, []byte("two"))
	net.Observe(2, nil)
	a.Send(2, []byte("unseen"))
	if got := fmt.Sprint(seen); got != "[1:one 3:two]" {
		t.Errorf("observer saw %s, want [1:one 3:two]", got)
	}
}

func TestMemoryDropRate(t *testing.T) {
	net := NewMemory(MemoryConfig{DropRate: 0.5, Seed: 42})
	defer net.Close()
	a, _ := net.Endpoint(1)
	b, _ := net.Endpoint(2)
	const sends = 400
	for i := 0; i < sends; i++ {
		a.Send(2, []byte{byte(i)})
	}
	received := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := b.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
		received++
	}
	if received < sends/4 || received > sends*3/4 {
		t.Errorf("received %d of %d with 50%% drop", received, sends)
	}
}

func TestMemoryUnknownDestination(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, _ := net.Endpoint(1)
	if err := a.Send(99, []byte("x")); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

func TestMemoryClosedEndpoint(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	a, _ := net.Endpoint(1)
	net.Endpoint(2)
	a.Close()
	if err := a.Send(2, []byte("x")); err == nil {
		t.Error("send on closed endpoint succeeded")
	}
	ctx := context.Background()
	if _, err := a.Recv(ctx); err == nil {
		t.Error("recv on closed empty endpoint succeeded")
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	defer net.Close()
	dst, _ := net.Endpoint(0)
	const senders, msgs = 8, 50
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep, _ := net.Endpoint(NodeID(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				ep.Send(0, []byte(fmt.Sprintf("%d", i)))
			}
		}(ep)
	}
	wg.Wait()
	got := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := dst.Recv(ctx)
		cancel()
		if err != nil {
			break
		}
		got++
	}
	if got != senders*msgs {
		t.Errorf("received %d of %d concurrent messages", got, senders*msgs)
	}
}

func TestTCPBasicDelivery(t *testing.T) {
	cfg := TCPConfig{
		Addrs: map[NodeID]string{
			1: "127.0.0.1:0",
			2: "127.0.0.1:0",
		},
		Secret: []byte("test-secret"),
	}
	// Port 0 needs resolution: bind node 2 first, then rewrite its addr.
	tnet, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tnet.Close()
	b, err := tnet.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addrs[2] = b.(*tcpEndpoint).listener.Addr().String()
	a, err := tnet.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 2*time.Second)
	if env.From != 1 || string(env.Payload) != "over tcp" {
		t.Errorf("envelope = %+v", env)
	}
}

func TestTCPRejectsTamperedFrames(t *testing.T) {
	var buf bytes.Buffer
	secret := []byte("k")
	if err := writeFrame(&buf, secret, Envelope{From: 1, To: 2, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] ^= 0xff // flip a header bit
	if _, err := readFrame(bytes.NewReader(raw), secret); err == nil {
		t.Error("tampered frame accepted")
	}
	// Wrong secret.
	buf.Reset()
	writeFrame(&buf, secret, Envelope{From: 1, To: 2, Payload: []byte("p")})
	if _, err := readFrame(&buf, []byte("other")); err == nil {
		t.Error("frame with wrong secret accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	secret := []byte("round-trip")
	want := Envelope{From: 7, To: 1003, Payload: bytes.Repeat([]byte{0xAB}, 1024)}
	if err := writeFrame(&buf, secret, want); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, secret)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != want.From || got.To != want.To || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameLengthLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("k"), Envelope{Payload: make([]byte, maxFrame)}); err == nil {
		t.Error("oversized frame accepted")
	}
	// Hostile length prefix.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hostile), []byte("k")); err == nil {
		t.Error("hostile length prefix accepted")
	}
}

func TestNewTCPValidation(t *testing.T) {
	if _, err := NewTCP(TCPConfig{Secret: []byte("x")}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := NewTCP(TCPConfig{Addrs: map[NodeID]string{1: ":0"}}); err == nil {
		t.Error("no secret accepted")
	}
}

func TestClientIDBase(t *testing.T) {
	if NodeID(3).IsClient() {
		t.Error("replica id classified as client")
	}
	if !ClientIDBase.IsClient() || !(ClientIDBase + 5).IsClient() {
		t.Error("client id not classified as client")
	}
}
