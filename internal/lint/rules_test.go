package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// The rule tests type-check small synthetic packages against the same
// stdlib source importer the loader uses, so every rule is exercised on
// a known violation and a known-clean variant. The package path is part
// of each fixture because two rules scope on it (wallclock on
// internal/bft, locked-blocking's transport-Send check on
// internal/transport).

var (
	testFset     = token.NewFileSet()
	testImporter types.Importer
	importerOnce sync.Once
	testFileSeq  int
)

func testPkg(t *testing.T, path, src string) *Package {
	t.Helper()
	importerOnce.Do(func() {
		testImporter = importer.ForCompiler(testFset, "source", nil)
	})
	testFileSeq++
	name := fmt.Sprintf("%s/t%d.go", path, testFileSeq)
	f, err := parser.ParseFile(testFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: testImporter}
	tpkg, err := conf.Check(path, testFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: path, Dir: path, Fset: testFset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func runRule(t *testing.T, r Rule, path, src string) []Finding {
	t.Helper()
	return RunRules([]*Package{testPkg(t, path, src)}, []Rule{r})
}

func wantFindings(t *testing.T, got []Finding, rule string, lines ...int) {
	t.Helper()
	if len(got) != len(lines) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(lines), renderFindings(got))
	}
	for i, f := range got {
		if f.Rule != rule {
			t.Errorf("finding %d: rule = %q, want %q", i, f.Rule, rule)
		}
		if f.Line != lines[i] {
			t.Errorf("finding %d: line = %d, want %d (%s)", i, f.Line, lines[i], f)
		}
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	if b.Len() == 0 {
		b.WriteString("  (none)\n")
	}
	return b.String()
}

func TestMapRangeDigest(t *testing.T) {
	got := runRule(t, ruleMapRangeDigest{}, "lazarus/internal/bft", `package bft

import "crypto/sha256"

type Digest [32]byte

func tally(counts map[Digest]int, q int) Digest {
	var winner Digest
	for d, n := range counts {
		if n >= q {
			winner = d
			break
		}
	}
	return winner
}

func hashEach(m map[string][]byte) [][32]byte {
	var out [][32]byte
	for _, v := range m {
		out = append(out, sha256.Sum256(v))
	}
	return out
}
`)
	wantFindings(t, got, "maprange-digest", 11, 21)
}

func TestMapRangeDigestSortedIdiomClean(t *testing.T) {
	got := runRule(t, ruleMapRangeDigest{}, "lazarus/internal/bft", `package bft

import (
	"crypto/sha256"
	"sort"
)

func stable(m map[string][]byte) [32]byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(m[k])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}
`)
	wantFindings(t, got, "maprange-digest")
}

func TestGlobalRand(t *testing.T) {
	got := runRule(t, ruleGlobalRand{}, "lazarus/internal/transport", `package transport

import "math/rand"

func jitter(d int64) int64 {
	return d + rand.Int63n(d/2+1)
}

func seeded(seed, d int64) int64 {
	r := rand.New(rand.NewSource(seed))
	return d + r.Int63n(d/2+1)
}
`)
	wantFindings(t, got, "globalrand", 6)
}

func TestGlobalRandAllowDirective(t *testing.T) {
	got := runRule(t, ruleGlobalRand{}, "lazarus/internal/transport", `package transport

import "math/rand"

func jitter(d int64) int64 {
	//lazlint:allow globalrand(demo fixture, seed irrelevant)
	return d + rand.Int63n(d/2+1)
}
`)
	wantFindings(t, got, "globalrand")
}

func TestWallClock(t *testing.T) {
	const src = `package bft

import "time"

func decide() int64 {
	return time.Now().UnixNano()
}

func timeout() time.Time {
	return time.Now().Add(time.Second) //lazlint:allow wallclock(timeout scheduling, not protocol state)
}
`
	got := runRule(t, ruleWallClock{}, "lazarus/internal/bft", src)
	wantFindings(t, got, "wallclock", 6)

	// The rule is scoped to the consensus package: elsewhere the same
	// source is clean.
	got = runRule(t, ruleWallClock{}, "lazarus/internal/controlplane", src)
	wantFindings(t, got, "wallclock")
}

func TestLockedBlocking(t *testing.T) {
	got := runRule(t, ruleLockedBlocking{}, "lazarus/internal/x", `package x

import (
	"net"
	"sync"
)

type S struct {
	mu   sync.Mutex
	ch   chan int
	conn net.Conn
}

func (s *S) badSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1
}

func (s *S) badWrite(b []byte) {
	s.mu.Lock()
	s.conn.Write(b)
	s.mu.Unlock()
}

func (s *S) goodUnlockFirst() {
	s.mu.Lock()
	v := 1
	s.mu.Unlock()
	s.ch <- v
}

func (s *S) goodNonBlocking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

func (s *S) goodGuardBranch(bad bool) {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.ch <- 2
}
`)
	wantFindings(t, got, "locked-blocking", 17, 22)
}

func TestLockedBlockingSelect(t *testing.T) {
	got := runRule(t, ruleLockedBlocking{}, "lazarus/internal/x", `package x

import "sync"

type P struct {
	mu sync.Mutex
	ch chan int
}

func (p *P) badBlockingSelect() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- 1:
	case v := <-p.ch:
		_ = v
	}
}
`)
	wantFindings(t, got, "locked-blocking", 13)
}

func TestNakedGoroutine(t *testing.T) {
	got := runRule(t, ruleNakedGoroutine{}, "lazarus/internal/x", `package x

import "sync"

type W struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func (w *W) start() {
	w.wg.Add(1)
	go w.loop()
	go func() {
		for {
			work()
		}
	}()
}

func (w *W) loop() {
	defer w.wg.Done()
	<-w.stop
}

func fetch() int {
	res := make(chan int, 1)
	go func() { res <- 42 }()
	return <-res
}

func drain(in chan int) {
	go func() {
		for v := range in {
			_ = v
		}
	}()
}

func work() {}
`)
	// Only the for-loop literal is naked: go w.loop() resolves to a body
	// with a WaitGroup tie, fetch's literal signals a parent-owned
	// channel, drain's literal ranges over a channel.
	wantFindings(t, got, "naked-goroutine", 13)
}

// TestNakedGoroutineFsyncWorker pins the FileWAL fsync-worker shape
// (controlplane/wal.go): a method spawned with `go w.syncLoop()` whose
// body defers wg.Done and ranges over a kick channel that Close closes.
// Both ties must keep recognizing it — if a rule edit starts flagging
// this idiom, the WAL needs an allow directive or the rule is wrong.
func TestNakedGoroutineFsyncWorker(t *testing.T) {
	got := runRule(t, ruleNakedGoroutine{}, "lazarus/internal/x", `package x

import "sync"

type FW struct {
	mu   sync.Mutex
	kick chan struct{}
	wg   sync.WaitGroup
}

func open() *FW {
	w := &FW{kick: make(chan struct{}, 1)}
	w.wg.Add(1)
	go w.syncLoop()
	return w
}

func (w *FW) syncLoop() {
	defer w.wg.Done()
	for range w.kick {
		w.fsync()
	}
}

func (w *FW) fsync() {
	w.mu.Lock()
	defer w.mu.Unlock()
}

func (w *FW) close() {
	close(w.kick)
	w.wg.Wait()
}
`)
	wantFindings(t, got, "naked-goroutine")
}

func TestUncheckedVerify(t *testing.T) {
	got := runRule(t, ruleUncheckedVerify{}, "lazarus/internal/x", `package x

import "crypto/ed25519"

type Req struct{}

func (Req) Verify(pub []byte) bool { return true }

func handle(pub ed25519.PublicKey, msg, sig []byte, r Req) bool {
	ed25519.Verify(pub, msg, sig)
	_ = ed25519.Verify(pub, msg, sig)
	r.Verify(nil)
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	ok := ed25519.Verify(pub, msg, sig)
	return ok
}
`)
	wantFindings(t, got, "unchecked-verify", 10, 11, 12)
}

// TestUncheckedVerifyMAC: a MAC check is a method named Verify returning
// bool too, so the rule covers the reply MAC as it is.
func TestUncheckedVerifyMAC(t *testing.T) {
	got := runRule(t, ruleUncheckedVerify{}, "lazarus/internal/x", `package x

type Message struct{ Sig []byte }

type replyKey struct{ mac [32]byte }

func (k *replyKey) Verify(m *Message) bool { return len(m.Sig) == len(k.mac) }

func collect(k *replyKey, m *Message) bool {
	k.Verify(m)
	return k.Verify(m)
}
`)
	wantFindings(t, got, "unchecked-verify", 10)
}

func TestBadDirectives(t *testing.T) {
	got := RunRules([]*Package{testPkg(t, "lazarus/internal/x", `package x

//lazlint:allow wallclock()
//lazlint:allow nosuchrule(some reason)
//lazlint:allow oops

func f() {}
`)}, nil)
	wantFindings(t, got, "bad-directive", 3, 4, 5)
}

// ---- interprocedural rules (PR 10) ----

func TestAuthBeforeUse(t *testing.T) {
	got := runRule(t, ruleAuthBeforeUse{}, "fix1/internal/bft", `package bft

type NodeID int

type Message struct {
	From NodeID
	View uint64
	Sig  []byte
}

func (m *Message) VerifySig(pub []byte) bool { return len(m.Sig) > 0 }

type Replica struct {
	seen map[NodeID]uint64
	view uint64
}

// Mutation precedes the check.
func (r *Replica) onEarly(msg *Message) {
	r.seen[msg.From] = msg.View
	if !msg.VerifySig(nil) {
		return
	}
}

// No check anywhere on the path.
func (r *Replica) onNever(msg *Message) {
	r.seen[msg.From] = msg.View
}

// Clean: verification dominates the mutation.
func (r *Replica) onGuarded(msg *Message) {
	if !msg.VerifySig(nil) {
		return
	}
	r.seen[msg.From] = msg.View
}

// The check and the mutation live in helpers: only the interprocedural
// summaries can relate them.
func (r *Replica) note(msg *Message)         { r.seen[msg.From] = msg.View }
func (r *Replica) authed(msg *Message) bool  { return msg.VerifySig(nil) }

func (r *Replica) onHelperBad(msg *Message) {
	r.note(msg)
}

// Clean interprocedural variant.
func (r *Replica) onHelperGood(msg *Message) {
	if !r.authed(msg) {
		return
	}
	r.note(msg)
}
`)
	wantFindings(t, got, "auth-before-use", 20, 28, 45)
}

func TestAuthBeforeUseSuppressed(t *testing.T) {
	got := runRule(t, ruleAuthBeforeUse{}, "fix2/internal/bft", `package bft

type NodeID int

type Message struct {
	From NodeID
	View uint64
}

type Replica struct{ seen map[NodeID]uint64 }

func (r *Replica) onUnsigned(msg *Message) {
	r.seen[msg.From] = msg.View //lazlint:allow auth-before-use(votes are envelope-authenticated in this fixture)
}
`)
	wantFindings(t, got, "auth-before-use")
}

func TestEpochGuard(t *testing.T) {
	got := runRule(t, ruleEpochGuard{}, "fix3/internal/bft", `package bft

type NodeID int

type Message struct {
	From NodeID
	View uint64
}

type Replica struct {
	seen map[NodeID]uint64
	view uint64
}

// No epoch/view comparison anywhere.
func (r *Replica) onStale(msg *Message) {
	r.seen[msg.From] = msg.View
}

// Mutation precedes the comparison.
func (r *Replica) onLate(msg *Message) {
	r.seen[msg.From] = msg.View
	if msg.View != r.view {
		return
	}
}

// Clean: inline comparison first.
func (r *Replica) onFresh(msg *Message) {
	if msg.View != r.view {
		return
	}
	r.seen[msg.From] = msg.View
}

// Clean: the comparison lives in a helper with a message argument.
func (r *Replica) fresh(msg *Message) bool { return msg.View == r.view }

func (r *Replica) onFreshHelper(msg *Message) {
	if !r.fresh(msg) {
		return
	}
	r.seen[msg.From] = msg.View
}

// Clean: reads only, nothing to guard.
func (r *Replica) onRead(msg *Message) uint64 {
	return r.seen[msg.From]
}
`)
	wantFindings(t, got, "epoch-guard", 17, 22)
}

func TestEpochGuardSuppressed(t *testing.T) {
	got := runRule(t, ruleEpochGuard{}, "fix4/internal/bft", `package bft

type NodeID int

type Message struct {
	From  NodeID
	SeqNo uint64
}

type Replica struct{ ahead map[NodeID]uint64 }

func (r *Replica) onCkpt(msg *Message) {
	r.ahead[msg.From] = msg.SeqNo //lazlint:allow epoch-guard(checkpoints tally cross-epoch by design in this fixture)
}
`)
	wantFindings(t, got, "epoch-guard")
}

func TestDigestBlindTally(t *testing.T) {
	got := runRule(t, ruleDigestBlindTally{}, "fix5/internal/bft", `package bft

type NodeID int
type Digest [32]byte

type Membership struct{ n int }

func (m *Membership) Quorum() int { return 2*m.n/3 + 1 }
func (m *Membership) F() int      { return m.n / 3 }

type Message struct {
	From NodeID
	D    Digest
}

type Replica struct {
	votes map[NodeID]bool
	mem   *Membership
	d     Digest
}

// A digest is in play (stored) but the quorum counts bare senders.
func (r *Replica) blind(msg *Message) bool {
	r.d = msg.D
	r.votes[msg.From] = true
	return len(r.votes) >= r.mem.Quorum()
}

// Clean: every insert is dominated by a digest-equality filter.
func (r *Replica) filtered(msg *Message) bool {
	if msg.D != r.d {
		return false
	}
	r.votes[msg.From] = true
	return len(r.votes) >= r.mem.Quorum()
}

// Clean: no digest in scope — a liveness count of distinct members.
func (r *Replica) liveness(from NodeID) bool {
	r.votes[from] = true
	return len(r.votes) > r.mem.F()
}
`)
	wantFindings(t, got, "digest-blind-tally", 26)
}

func TestDigestBlindTallySuppressed(t *testing.T) {
	got := runRule(t, ruleDigestBlindTally{}, "fix6/internal/bft", `package bft

type NodeID int
type Digest [32]byte

type Membership struct{ n int }

func (m *Membership) F() int { return m.n / 3 }

type Replica struct {
	ahead map[NodeID]uint64
	mem   *Membership
	d     Digest
}

func (r *Replica) claims(from NodeID, d Digest) bool {
	r.d = d
	r.ahead[from] = 1
	return len(r.ahead) > r.mem.F() //lazlint:allow digest-blind-tally(distinct claimants suffice in this fixture)
}
`)
	wantFindings(t, got, "digest-blind-tally")
}

func TestUnboundedRemoteMap(t *testing.T) {
	got := runRule(t, ruleRemoteMap{}, "fix7/internal/bft", `package bft

type NodeID int
type Digest [32]byte

type Membership struct{ ids map[NodeID]bool }

func (m *Membership) Contains(id NodeID) bool { return m.ids[id] }

type Message struct {
	From  NodeID
	SeqNo uint64
	D     Digest
}

type Replica struct {
	mem    *Membership
	byFrom map[NodeID]uint64
	log    map[uint64]bool
	seen   map[Digest]bool
	queue  []uint64
	low    uint64
}

// NodeID key with no membership guard.
func (r *Replica) onA(msg *Message) {
	r.byFrom[msg.From] = msg.SeqNo
}

// Clean: membership guard dominates.
func (r *Replica) onB(msg *Message) {
	if !r.mem.Contains(msg.From) {
		return
	}
	r.byFrom[msg.From] = msg.SeqNo
}

// Integer key with no window.
func (r *Replica) onC(msg *Message) {
	r.log[msg.SeqNo] = true
}

// Clean: two-sided window on the key.
func (r *Replica) onD(msg *Message) {
	if msg.SeqNo <= r.low || msg.SeqNo > r.low+64 {
		return
	}
	r.log[msg.SeqNo] = true
}

// The insert lives in a helper; the guard lives at the call site.
func (r *Replica) inWindow(seq uint64) bool { return seq > r.low && seq <= r.low+64 }
func (r *Replica) put(seq uint64)           { r.log[seq] = true }

func (r *Replica) onE(msg *Message) {
	if !r.inWindow(msg.SeqNo) {
		return
	}
	r.put(msg.SeqNo)
}

// One unguarded remote caller is enough to condemn the helper's insert.
func (r *Replica) onF(msg *Message) {
	r.put(msg.SeqNo)
}

// Digest key and slice append, both uncapped.
func (r *Replica) onG(msg *Message) {
	r.seen[msg.D] = true
	r.queue = append(r.queue, msg.SeqNo)
}

// Clean: a cap guard dominates both growth sites.
func (r *Replica) onH(msg *Message) {
	if len(r.seen) >= 1024 {
		return
	}
	r.seen[msg.D] = true
	r.queue = append(r.queue, msg.SeqNo)
}
`)
	wantFindings(t, got, "unbounded-remote-map", 27, 40, 53, 69, 70)
}

func TestUnboundedRemoteMapSuppressed(t *testing.T) {
	got := runRule(t, ruleRemoteMap{}, "fix8/internal/bft", `package bft

type NodeID int

type Message struct {
	From  NodeID
	SeqNo uint64
}

type Replica struct{ byFrom map[NodeID]uint64 }

func (r *Replica) onA(msg *Message) {
	r.byFrom[msg.From] = msg.SeqNo //lazlint:allow unbounded-remote-map(bounded elsewhere in this fixture)
}
`)
	wantFindings(t, got, "unbounded-remote-map")
}

func TestLockOrder(t *testing.T) {
	got := runRule(t, ruleLockOrder{}, "fix9/locks", `package locks

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

type S struct {
	a *A
	b *B
}

func (s *S) lockAB() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
}

// Opposite order through a call: B held, then a helper takes A.
func (s *S) lockBA() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.lockA()
}

func (s *S) lockA() {
	s.a.mu.Lock()
	s.a.mu.Unlock()
}
`)
	wantFindings(t, got, "lock-order", 16)
}

func TestLockOrderClean(t *testing.T) {
	got := runRule(t, ruleLockOrder{}, "fix10/locks", `package locks

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

type S struct {
	a *A
	b *B
}

// Consistent order everywhere: A before B.
func (s *S) lockAB() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
}

func (s *S) lockABviaCall() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.lockB()
}

func (s *S) lockB() {
	s.b.mu.Lock()
	s.b.mu.Unlock()
}
`)
	wantFindings(t, got, "lock-order")
}

func TestLockOrderSuppressed(t *testing.T) {
	got := runRule(t, ruleLockOrder{}, "fix11/locks", `package locks

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

type S struct {
	a *A
	b *B
}

func (s *S) lockAB() {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	s.b.mu.Lock() //lazlint:allow lock-order(fixture: the cycle is intentional)
	defer s.b.mu.Unlock()
}

func (s *S) lockBA() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.a.mu.Lock()
}
`)
	wantFindings(t, got, "lock-order")
}

func TestStaleDirective(t *testing.T) {
	src := `package bft

import "time"

func now() time.Time {
	return time.Now() //lazlint:allow wallclock(live: suppresses the finding on this line)
}

func pure(x int) int {
	return x + 1 //lazlint:allow wallclock(stale: nothing to suppress here)
}
`
	// With the audit enabled, the dead directive is reported.
	got := RunRules([]*Package{testPkg(t, "fix12/internal/bft", src)},
		[]Rule{ruleWallClock{}, ruleStaleDirective{}})
	wantFindings(t, got, "stale-directive", 10)

	// A narrowed run that never exercises wallclock must stay quiet:
	// it cannot tell a live suppression from a dead one.
	got = RunRules([]*Package{testPkg(t, "fix13/internal/bft", src)},
		[]Rule{ruleStaleDirective{}})
	wantFindings(t, got, "stale-directive")
}
