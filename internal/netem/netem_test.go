package netem

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lazarus/internal/transport"
)

func wrapMemory(t testing.TB, profile string, seed int64) *Network {
	t.Helper()
	p, err := ByName(profile)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	inner := transport.NewMemory(transport.MemoryConfig{})
	n := Wrap(inner, Config{Profile: p, Seed: seed})
	t.Cleanup(func() { n.Close() })
	return n
}

func recvOne(t testing.TB, ep transport.Endpoint, timeout time.Duration) (transport.Envelope, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	env, err := ep.Recv(ctx)
	if err != nil {
		return transport.Envelope{}, false
	}
	return env, true
}

// TestDeterministicDecisions drives the same send sequence through two
// identically-seeded layers and requires identical drop / duplicate /
// reorder decisions — the invariant the chaos replay tests build on.
func TestDeterministicDecisions(t *testing.T) {
	run := func() Stats {
		n := wrapMemory(t, "flaky", 42)
		a, err := n.Endpoint(1)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		if _, err := n.Endpoint(2); err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		payload := []byte("frame")
		for i := 0; i < 2000; i++ {
			if err := a.Send(2, payload); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		return n.NetemStats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", s1, s2)
	}
	if s1.DropsLink == 0 || s1.Duplicates == 0 || s1.Reordered == 0 {
		t.Fatalf("flaky profile exercised no loss machinery: %+v", s1)
	}
	if s1.Frames != 2000 {
		t.Fatalf("frames = %d, want 2000", s1.Frames)
	}
}

// TestStreamsPerLink checks that traffic on one link does not perturb
// the decisions on another: the per-directed-link RNG streams are
// independent.
func TestStreamsPerLink(t *testing.T) {
	run := func(noise bool) Stats {
		n := wrapMemory(t, "flaky", 7)
		a, _ := n.Endpoint(1)
		b, _ := n.Endpoint(2)
		n.Endpoint(3)
		if noise {
			for i := 0; i < 500; i++ {
				b.Send(3, []byte("noise"))
			}
		}
		before := n.NetemStats()
		for i := 0; i < 1000; i++ {
			a.Send(2, []byte("frame"))
		}
		after := n.NetemStats()
		return Stats{
			DropsLink:  after.DropsLink - before.DropsLink,
			Duplicates: after.Duplicates - before.Duplicates,
			Reordered:  after.Reordered - before.Reordered,
		}
	}
	quiet, noisy := run(false), run(true)
	if quiet != noisy {
		t.Fatalf("link 1→2 decisions changed with unrelated traffic: %+v vs %+v", quiet, noisy)
	}
}

// TestAsymmetricBlock opens only the 1→2 edge: 1's frames vanish while
// 2's frames still arrive — A hears B, B doesn't hear A.
func TestAsymmetricBlock(t *testing.T) {
	n := wrapMemory(t, "lan", 1)
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	edge := &Partition{Edges: [][2]transport.NodeID{{1, 2}}}
	n.Apply(edge)
	if err := a.Send(2, []byte("blocked")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := b.Send(1, []byte("heard")); err != nil {
		t.Fatalf("send: %v", err)
	}
	env, ok := recvOne(t, a, 2*time.Second)
	if !ok || string(env.Payload) != "heard" {
		t.Fatalf("reverse direction should deliver, got ok=%v payload=%q", ok, env.Payload)
	}
	if _, ok := recvOne(t, b, 100*time.Millisecond); ok {
		t.Fatal("blocked direction delivered a frame")
	}
	if s := n.NetemStats(); s.DropsPartition != 1 {
		t.Fatalf("DropsPartition = %d, want 1", s.DropsPartition)
	}
	n.Revert(edge)
	if err := a.Send(2, []byte("healed")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if env, ok := recvOne(t, b, 2*time.Second); !ok || string(env.Payload) != "healed" {
		t.Fatalf("healed direction should deliver, got ok=%v payload=%q", ok, env.Payload)
	}
}

// TestNilProfileOnlyPartitions: a layer without a profile conditions
// nothing — every frame reaches the inner network inline, in the order
// the bare memory network delivers it, and none is delayed — and drops
// exactly the frames that cross an applied partition, both ways, until it
// is reverted. Partitions compose: an edge two of them block stays blocked
// until both are reverted.
func TestNilProfileOnlyPartitions(t *testing.T) {
	ids := []transport.NodeID{0, 1, 2, 3}
	bare := transport.NewMemory(transport.MemoryConfig{})
	defer bare.Close()
	n := Wrap(transport.NewMemory(transport.MemoryConfig{}), Config{Seed: 1})
	defer n.Close()
	// Every node sends to every other, then each inbox is drained: inline
	// forwarding has queued every delivered frame before Send returns.
	exchange := func(net transport.Network, tag string) map[transport.NodeID][]string {
		eps := make(map[transport.NodeID]transport.Endpoint)
		for _, id := range ids {
			ep, err := net.Endpoint(id)
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = ep
		}
		for _, src := range ids {
			for _, dst := range ids {
				if src != dst {
					eps[src].Send(dst, []byte(fmt.Sprintf("%s %d>%d", tag, src, dst)))
				}
			}
		}
		got := make(map[transport.NodeID][]string)
		for _, id := range ids {
			got[id] = nil
			for {
				env, ok := recvOne(t, eps[id], 20*time.Millisecond)
				if !ok {
					break
				}
				got[id] = append(got[id], string(env.Payload))
			}
		}
		return got
	}
	// want is what the bare network delivers, less the frames p blocks.
	want := func(tag string, blocked ...*Partition) string {
		all := exchange(bare, tag)
		for id, frames := range all {
			kept := frames[:0]
			for _, f := range frames {
				var src, dst transport.NodeID
				fmt.Sscanf(f[len(tag)+1:], "%d>%d", &src, &dst)
				cut := false
				for _, p := range blocked {
					for _, e := range p.Edges {
						cut = cut || e == [2]transport.NodeID{src, dst}
					}
				}
				if !cut {
					kept = append(kept, f)
				}
			}
			all[id] = kept
		}
		return fmt.Sprint(all)
	}

	if got, w := fmt.Sprint(exchange(n, "open")), want("open"); got != w {
		t.Fatalf("nil profile delivered\n%s\nbare memory delivered\n%s", got, w)
	}
	iso, split := IsolateNode(ids, 3), SymmetricSplit(ids, 2)
	n.Apply(iso)
	if got, w := fmt.Sprint(exchange(n, "iso")), want("iso", iso); got != w {
		t.Fatalf("under %s delivered\n%s\nwant\n%s", iso.Desc, got, w)
	}
	n.Apply(split)
	n.Revert(iso)
	if got, w := fmt.Sprint(exchange(n, "split")), want("split", split); got != w {
		t.Fatalf("under %s delivered\n%s\nwant\n%s", split.Desc, got, w)
	}
	n.Revert(split)
	if got, w := fmt.Sprint(exchange(n, "healed")), want("healed"); got != w {
		t.Fatalf("after Revert delivered\n%s\nwant\n%s", got, w)
	}
	s := n.NetemStats()
	if s.Frames != 4*12 || s.Delayed != 0 || s.DropsPartition != 6+8 || s.DropsLink != 0 {
		t.Errorf("stats %+v, want 48 frames, none delayed, 14 partition drops", s)
	}
	if fmt.Sprint(n.Nodes()) != fmt.Sprint(ids) {
		t.Errorf("Nodes() = %v, want the endpoints opened, %v", n.Nodes(), ids)
	}
}

// TestPartitionShapes checks the three builders block exactly the edges
// they advertise.
func TestPartitionShapes(t *testing.T) {
	members := []transport.NodeID{0, 1, 2, 3}
	blocked := func(p *Partition, src, dst transport.NodeID) bool {
		for _, e := range p.Edges {
			if e[0] == src && e[1] == dst {
				return true
			}
		}
		return false
	}
	sym := SymmetricSplit(members, 2)
	if !blocked(sym, 0, 2) || !blocked(sym, 2, 0) || blocked(sym, 0, 1) || blocked(sym, 2, 3) {
		t.Fatalf("symmetric split edges wrong: %v", sym.Edges)
	}
	asym := AsymmetricMute(members, 1)
	if !blocked(asym, 1, 0) || blocked(asym, 0, 1) {
		t.Fatalf("asymmetric mute edges wrong: %v", asym.Edges)
	}
	iso := IsolateNode(members, 3)
	if !blocked(iso, 3, 0) || !blocked(iso, 0, 3) || blocked(iso, 0, 1) {
		t.Fatalf("isolation edges wrong: %v", iso.Edges)
	}
	// Apply/Revert round-trip leaves the layer clean.
	n := wrapMemory(t, "lan", 1)
	n.Apply(sym)
	n.Revert(sym)
	a, _ := n.Endpoint(0)
	b, _ := n.Endpoint(2)
	_ = b
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, ok := recvOne(t, b, 2*time.Second); !ok {
		t.Fatal("reverted partition still blocking")
	}
}

// TestLatencyApplied checks a wan-profile frame is actually held for the
// link's base delay.
func TestLatencyApplied(t *testing.T) {
	n := wrapMemory(t, "wan", 3)
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	start := time.Now()
	if err := a.Send(2, []byte("slow")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, ok := recvOne(t, b, 5*time.Second); !ok {
		t.Fatal("frame never arrived")
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("wan frame arrived after %v, want >= ~15ms base delay", el)
	}
}

// TestBandwidthQueues checks frames queue behind a saturated pipe: at
// 8MB/s, forty 64KiB frames need ~300ms of serialization.
func TestBandwidthQueues(t *testing.T) {
	n := wrapMemory(t, "wan", 5)
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	payload := make([]byte, 64<<10)
	start := time.Now()
	for i := 0; i < 40; i++ {
		if err := a.Send(2, payload); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < 30 && time.Now().Before(deadline) {
		if _, ok := recvOne(t, b, time.Second); ok {
			got++
		}
	}
	if got < 30 {
		t.Fatalf("only %d/40 frames arrived (wan drop rate cannot explain 10+ losses)", got)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("2.5MB crossed an 8MB/s link in %v; bandwidth cap not applied", el)
	}
}

// TestByNameRejectsUnknown pins the error path -wan flags rely on.
func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName("dialup"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Fatalf("registered profile %q rejected: %v", name, err)
		}
	}
}

// BenchmarkHopDelay sends one frame at a time over a lan-profile link and
// reports the delay a hop realizes beside the one the profile configures
// (base plus mean jitter), and, under "timer", what a bare time.NewTimer
// of the configured delay realizes in the same process. The delay is a
// timer per frame, and Go's runtime cannot wake a sleeping process for a
// timer much finer than its scheduler and netpoller allow, so on an idle
// machine the realized hop can be several times the configured one.
func BenchmarkHopDelay(b *testing.B) {
	p, err := ByName("lan")
	if err != nil {
		b.Fatal(err)
	}
	class := p.Link(1, 2)
	configured := class.BaseDelay + class.Jitter/2
	report := func(b *testing.B, elapsed time.Duration) {
		b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "realized_us/hop")
		b.ReportMetric(float64(configured.Microseconds()), "configured_us/hop")
	}
	b.Run("lan", func(b *testing.B) {
		n := wrapMemory(b, "lan", 1)
		a, _ := n.Endpoint(1)
		dst, _ := n.Endpoint(2)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := a.Send(2, []byte("hop")); err != nil {
				b.Fatal(err)
			}
			if _, ok := recvOne(b, dst, time.Second); !ok {
				b.Fatal("frame never arrived")
			}
		}
		report(b, time.Since(start))
	})
	b.Run("timer", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			<-time.NewTimer(configured).C
		}
		report(b, time.Since(start))
	})
}
