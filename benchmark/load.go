package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/metrics"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
	"lazarus/internal/workload"
)

// invokeTimeout bounds one Invoke of the load generators. It is far above
// any latency a healthy run shows; an invoke that hits it counts as failed.
const invokeTimeout = 20 * time.Second

// invocation is one Client.Invoke as the load generator saw it.
type invocation struct {
	client int    // index of the issuing client
	seq    uint64 // the client's request sequence number (its n-th Invoke)
	// due is when an open-loop request was scheduled; zero on a closed loop.
	due time.Time
	// called and returned bracket the Invoke call.
	called, returned time.Time
	read             bool
	err              error
}

// latency is what the user waited: from the due time on an open loop (so a
// stall is charged to every request it delayed), from the call otherwise.
func (in *invocation) latency() time.Duration {
	if !in.due.IsZero() {
		return in.returned.Sub(in.due)
	}
	return in.returned.Sub(in.called)
}

// opSource produces a client's next operation and checks the reply to it.
type opSource interface {
	next() (op []byte, read bool)
	check(reply []byte) error
}

// loadClient is one bft.Client with its operation source. It is used by
// one goroutine at a time, so seq counts the client's Invoke calls exactly.
type loadClient struct {
	idx int
	cl  *bft.Client
	src opSource
	seq uint64
	// onInvoke, when set, runs before every Invoke (the swap workload
	// follows the controller's membership with it).
	onInvoke func(*bft.Client)
}

// invoke issues the source's next operation.
func (lc *loadClient) invoke(ctx context.Context, due time.Time) invocation {
	op, read := lc.src.next()
	return lc.do(ctx, op, read, due)
}

// do issues one operation and records it. A reply that fails the source's
// check is recorded as an error: a wrong answer is a failure.
func (lc *loadClient) do(ctx context.Context, op []byte, read bool, due time.Time) invocation {
	if lc.onInvoke != nil {
		lc.onInvoke(lc.cl)
	}
	lc.seq++
	in := invocation{client: lc.idx, seq: lc.seq, due: due, read: read}
	ictx, cancel := context.WithTimeout(ctx, invokeTimeout)
	in.called = time.Now()
	reply, err := lc.cl.Invoke(ictx, op)
	in.returned = time.Now()
	cancel()
	if err == nil {
		err = lc.src.check(reply)
	}
	in.err = err
	return in
}

// kvSource issues 50 % Get / 50 % Put over a key range only this client
// writes, with zipfian key choice. Because nobody else writes the range,
// every Get has exactly one right answer: the client's last Put.
type kvSource struct {
	client    int
	valueSize int
	rng       *rand.Rand
	zipf      *workload.Zipfian
	last      [][]byte // last value put per owned key
	puts      uint64
	// pending describes the operation next() issued last.
	pendingKey int
	pendingVal []byte // nil for a Get
}

func newKVSource(seed int64, client, keys, valueSize int) (*kvSource, error) {
	rng := rand.New(rand.NewSource(seed ^ int64(client+1)<<20))
	zipf, err := workload.NewZipfian(uint64(keys), rng)
	if err != nil {
		return nil, err
	}
	return &kvSource{client: client, valueSize: valueSize, rng: rng, zipf: zipf, last: make([][]byte, keys)}, nil
}

func (s *kvSource) key(i int) string { return fmt.Sprintf("c%02d-%06d", s.client, i) }

// put builds a Put of a fresh value: a counter, so that no two values of
// a key are equal, followed by seeded random bytes.
func (s *kvSource) put(key int) []byte {
	val := make([]byte, s.valueSize)
	s.rng.Read(val)
	s.puts++
	binary.BigEndian.PutUint64(val, s.puts)
	s.pendingKey, s.pendingVal = key, val
	return mustEncodeOp(kvs.Op{Kind: kvs.OpPut, Key: s.key(key), Value: val})
}

func (s *kvSource) next() ([]byte, bool) {
	key := int(s.zipf.Next() % uint64(len(s.last)))
	if s.rng.Intn(2) == 0 {
		s.pendingKey, s.pendingVal = key, nil
		return mustEncodeOp(kvs.Op{Kind: kvs.OpGet, Key: s.key(key)}), true
	}
	return s.put(key), false
}

func (s *kvSource) check(reply []byte) error {
	if s.pendingVal != nil {
		if !bytes.Equal(reply, []byte("OK")) {
			return fmt.Errorf("put %s: reply %q", s.key(s.pendingKey), truncate(reply))
		}
		s.last[s.pendingKey] = s.pendingVal
		return nil
	}
	want := s.last[s.pendingKey]
	if want == nil {
		if !bytes.Equal(reply, []byte("NIL")) {
			return fmt.Errorf("get %s: want NIL, got %q", s.key(s.pendingKey), truncate(reply))
		}
		return nil
	}
	if len(reply) != 3+len(want) || !bytes.Equal(reply[:3], []byte("VAL")) || !bytes.Equal(reply[3:], want) {
		return fmt.Errorf("get %s: reply is not the last value put (%q)", s.key(s.pendingKey), truncate(reply))
	}
	return nil
}

func truncate(b []byte) []byte {
	if len(b) > 24 {
		return b[:24]
	}
	return b
}

func mustEncodeOp(op kvs.Op) []byte {
	payload, err := kvs.EncodeOp(op)
	if err != nil {
		panic(err) // gob cannot fail on this plain struct
	}
	return payload
}

// echoSource is the 0/0 microbenchmark of the paper's §7.1: an empty
// request answered by an empty reply.
type echoSource struct{}

func (echoSource) next() ([]byte, bool) { return nil, false }
func (echoSource) check(reply []byte) error {
	if len(reply) != 0 {
		return fmt.Errorf("echo: %d-byte reply to an empty request", len(reply))
	}
	return nil
}

// readyClients ends the set-up of a closed loop, all clients in parallel:
// each puts every key it owns once (the preloaded data set), then issues
// warmOpsPerClient operations, so that connections are dialled and caches
// and pools filled before anything is timed.
func readyClients(ctx context.Context, clients []*loadClient) error {
	return eachClient(clients, func(lc *loadClient) error {
		if src, ok := lc.src.(*kvSource); ok {
			for k := range src.last {
				if in := lc.do(ctx, src.put(k), false, time.Time{}); in.err != nil {
					return fmt.Errorf("preload %s: %w", src.key(k), in.err)
				}
			}
		}
		for i := 0; i < warmOpsPerClient; i++ {
			if in := lc.invoke(ctx, time.Time{}); in.err != nil {
				return fmt.Errorf("warm-up operation: %w", in.err)
			}
		}
		return nil
	})
}

// eachClient runs fn once per client, concurrently, and waits.
func eachClient(clients []*loadClient, fn func(*loadClient) error) error {
	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for _, lc := range clients {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			errs <- fn(lc)
		}(lc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// counters are the cumulative readings taken at both ends of a window.
type counters struct {
	cpu   time.Duration // process user+sys CPU
	net   transport.Stats
	netem netem.Stats
	// mem and reg are read in a traced run only.
	mem runtime.MemStats
	reg metrics.Snapshot
}

// loadSpec is one slice of load.
type loadSpec struct {
	clients []*loadClient
	// schedule makes the loop open: request i is due schedule[i] after
	// the start. Nil makes it closed: every client issues back to back.
	schedule []time.Duration
	length   time.Duration
	// probe reads the counters; it is called at both ends of the window.
	probe func() counters
	// busy, when set, keeps a closed loop issuing past the end of the
	// window for as long as it reports true (a swap still in progress
	// must finish under load). Those invocations are not in the window.
	busy func() bool
}

// window is one measured interval of load.
type window struct {
	start, end    time.Time
	open          bool // the loop was an open one
	before, after counters
	invs          []invocation // every invocation that belongs to the window
	// lags are how late the open-loop generator issued each request, and
	// backlogMax the most requests that were due but not yet issued.
	lags       []time.Duration
	backlogMax int
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// run drives the load for the spec's length and returns the window. A
// closed-loop window holds the invocations that returned inside it; an
// open-loop window holds every request of the schedule, each of them run
// to completion.
func (ls loadSpec) run(ctx context.Context) window {
	before := ls.probe()
	begin := time.Now()
	w := window{start: begin, end: begin.Add(ls.length), open: ls.schedule != nil, before: before}
	var mu sync.Mutex // guards w.invs, w.lags, w.backlogMax
	var next, issued atomic.Int64
	var wg sync.WaitGroup
	for _, lc := range ls.clients {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			if ls.schedule == nil {
				for ctx.Err() == nil && (time.Now().Before(w.end) || (ls.busy != nil && ls.busy())) {
					in := lc.invoke(ctx, time.Time{})
					if !in.returned.After(w.end) {
						mu.Lock()
						w.invs = append(w.invs, in)
						mu.Unlock()
					}
				}
				return
			}
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ls.schedule) {
					return
				}
				due := begin.Add(ls.schedule[i])
				sleepUntil(ctx, due)
				// Every request before i has been claimed, so those due by
				// now and not yet issued are the backlog.
				backlog := dueBy(ls.schedule, time.Since(begin)) - int(issued.Add(1))
				in := lc.invoke(ctx, due)
				mu.Lock()
				w.invs = append(w.invs, in)
				w.lags = append(w.lags, in.called.Sub(due))
				if backlog > w.backlogMax {
					w.backlogMax = backlog
				}
				mu.Unlock()
			}
		}(lc)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sleepUntil(ctx, w.end)
		w.after = ls.probe()
	}()
	wg.Wait()
	return w
}

// pool joins the slices of a run into one window, for the readings that
// are counts or distributions over everything the run did. The readings
// of the machine's speed between slices fall inside it; they send no
// frame and call no layer.
func pool(slices []slice) window {
	var w window
	for i := range slices {
		s := &slices[i].win
		if i == 0 {
			w.start, w.open, w.before = s.start, s.open, s.before
		}
		w.end, w.after = s.end, s.after
		w.invs = append(w.invs, s.invs...)
		w.lags = append(w.lags, s.lags...)
		if s.backlogMax > w.backlogMax {
			w.backlogMax = s.backlogMax
		}
	}
	return w
}

// poissonSchedule returns the offsets, from the start of the run, at which
// an open-loop generator of the given rate issues its requests over dur:
// exponential gaps drawn from the seed alone.
func poissonSchedule(seed int64, perSecond float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / perSecond * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// dueBy counts the schedule entries at or before the offset.
func dueBy(schedule []time.Duration, offset time.Duration) int {
	return sort.Search(len(schedule), func(i int) bool { return schedule[i] > offset })
}
