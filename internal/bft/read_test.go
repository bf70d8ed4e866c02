package bft

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazarus/internal/lincheck"
	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// Reads off the ordering path (read.go): the replica's rules, the client's
// rule, and a linearizability check of histories that mix both paths.

// registerApp is a Querier over string registers: "w <key> <value>"
// writes, "r <key>" reads, and an absent key reads as the empty string.
type registerApp struct {
	mu   sync.RWMutex
	regs map[string]string
}

func newRegisterApp() *registerApp { return &registerApp{regs: make(map[string]string)} }

func (a *registerApp) Execute(op []byte) []byte {
	if a.ReadOnly(op) {
		return a.Query(op)
	}
	if f := strings.Fields(string(op)); len(f) == 3 && f[0] == "w" {
		a.mu.Lock()
		a.regs[f[1]] = f[2]
		a.mu.Unlock()
		return []byte("OK")
	}
	return []byte("ERR")
}

func (a *registerApp) ReadOnly(op []byte) bool { return bytes.HasPrefix(op, []byte("r ")) }

func (a *registerApp) Query(op []byte) []byte {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return []byte(a.regs[string(op[2:])])
}

// Snapshot lists the registers as "key value" lines in key order: the
// checkpoint digest hashes it, so it must not depend on map order.
func (a *registerApp) Snapshot() ([]byte, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	keys := make([]string, 0, len(a.regs))
	for k := range a.regs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, a.regs[k])
	}
	return []byte(b.String()), nil
}

func (a *registerApp) Restore(snapshot []byte) error {
	regs := make(map[string]string)
	for _, line := range strings.Split(string(snapshot), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok {
			regs[k] = v
		}
	}
	a.mu.Lock()
	a.regs = regs
	a.mu.Unlock()
	return nil
}

// frozenCopy returns a registerApp holding a's current state.
func (a *registerApp) frozenCopy() *registerApp {
	a.mu.RLock()
	defer a.mu.RUnlock()
	cp := newRegisterApp()
	for k, v := range a.regs {
		cp.regs[k] = v
	}
	return cp
}

// lateNet delivers what replicas send to some nodes late, each message on
// its own timer, so that those nodes' client traffic overtakes their
// replica traffic: they have voted to commit what they have not yet seen
// others commit.
type lateNet struct {
	transport.Network
	late  map[transport.NodeID]bool
	delay time.Duration
}

func (n *lateNet) Endpoint(id transport.NodeID) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(id)
	if err != nil || id.IsClient() {
		return ep, err
	}
	return &lateEndpoint{Endpoint: ep, net: n}, nil
}

type lateEndpoint struct {
	transport.Endpoint
	net *lateNet
}

func (e *lateEndpoint) Send(to transport.NodeID, payload []byte) error {
	if !e.net.late[to] {
		return e.Endpoint.Send(to, payload)
	}
	time.AfterFunc(e.net.delay, func() { e.Endpoint.Send(to, payload) })
	return nil
}

var (
	linSeed  = flag.Int64("linseed", 1, "first seed TestReadsLinearizable runs")
	linSeeds = flag.Int("linseeds", 1, "how many seeds TestReadsLinearizable runs, from -linseed on")
)

// TestReadsLinearizable runs four closed-loop clients on shared registers,
// writes each followed by a read of the same register and reads of any,
// and checks the recorded history with lincheck. Per seed, the four
// replicas take four roles: two lag, receiving every replica message a
// millisecond late, so they execute behind and have often voted to commit
// a write they have not executed when a read arrives; one is compromised
// and answers reads from a copy of a lagging replica's state taken every
// few milliseconds (AttackReplay with FreezeReads); one is healthy.
// Mid-run the controller adds a replica and then removes the healthy one,
// so that every commit quorum holds a lagging replica. Run more seeds with
// -args -linseed N -linseeds M.
func TestReadsLinearizable(t *testing.T) {
	for seed := *linSeed; seed < *linSeed+int64(*linSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkReadsLinearizable(t, seed) })
	}
}

func checkReadsLinearizable(t *testing.T, seed int64) {
	roles := rand.New(rand.NewSource(seed)).Perm(4)
	attacker, lagging, healthy := transport.NodeID(roles[0]), transport.NodeID(roles[1]), transport.NodeID(roles[3])
	late := map[transport.NodeID]bool{lagging: true, transport.NodeID(roles[2]): true}
	apps := make(map[transport.NodeID]*registerApp)
	reg := metrics.NewRegistry()
	c := newCluster(t, 4, 4, func(cfg *ReplicaConfig) {
		apps[cfg.ID] = newRegisterApp()
		cfg.App = apps[cfg.ID]
		cfg.Metrics = reg
		cfg.Net = &lateNet{Network: cfg.Net, late: late, delay: time.Millisecond}
	})
	atk := NewAttacker(attacker, c.keys[attacker], c.clientKeys, AttackReplay, seed)
	atk.FreezeReads(newRegisterApp())
	c.net.Intercept(attacker, atk.Intercept)
	c.net.Observe(attacker, atk.Observe)
	c.start()
	defer c.stop()

	var clients []*Client
	for i := 0; i < 4; i++ {
		cl := c.client(i)
		defer cl.Close()
		clients = append(clients, cl)
	}
	ctrl := c.controller()
	defer ctrl.Close()

	var (
		clock   atomic.Int64
		histMu  sync.Mutex
		history []lincheck.Op
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *Client, rng *rand.Rand) {
			defer wg.Done()
			do := func(op lincheck.Op, payload string) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				op.Client, op.Call = i, clock.Add(1)
				res, err := cl.Invoke(ctx, []byte(payload))
				op.Return = clock.Add(1)
				switch {
				case err != nil:
					op.Return = lincheck.Pending
				case !op.Write:
					op.Value = string(res)
				}
				histMu.Lock()
				history = append(history, op)
				histMu.Unlock()
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", rng.Intn(16))
				if rng.Intn(2) == 0 {
					value := fmt.Sprintf("c%d-%d", i, n)
					do(lincheck.Op{Key: key, Write: true, Value: value}, "w "+key+" "+value)
				}
				do(lincheck.Op{Key: key}, "r "+key)
			}
		}(i, cl, rand.New(rand.NewSource(seed*10+int64(i))))
	}
	// The attacker's frozen state trails a lagging replica's.
	trailed := apps[lagging]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				atk.FreezeReads(trailed.frozenCopy())
			}
		}
	}()

	members := append([]transport.NodeID(nil), c.membership.Replicas...)
	reconfigure := func(op ReconfigOp, next []transport.NodeID) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := ctrl.Invoke(ctx, EncodeReconfigOp(op))
		if err != nil {
			t.Fatalf("reconfiguration %+v: %v", op, err)
		}
		if rr, err := DecodeReconfigResult(res); err != nil || rr.Status != ReconfigApplied {
			t.Fatalf("reconfiguration %+v: %+v, %v", op, rr, err)
		}
		members = next
		keys := make(map[transport.NodeID]ed25519.PublicKey, len(members))
		for _, id := range members {
			keys[id] = c.pubs[id]
		}
		for _, cl := range append(clients, ctrl) {
			cl.UpdateMembership(members, keys)
		}
	}
	time.Sleep(300 * time.Millisecond)
	joiner := c.addReplica(4, true)
	joiner.Start()
	defer joiner.Stop()
	reconfigure(ReconfigOp{Add: true, Replica: 4, PubKey: c.pubs[4]}, append(members, 4))
	time.Sleep(300 * time.Millisecond)
	reconfigure(ReconfigOp{Replica: healthy}, without(members, healthy))
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := lincheck.Check(history, ""); err != nil {
		t.Fatal(err)
	}
	stale, reads := atk.Stats().StaleReads, reg.Counter("bft.reads").Value()
	t.Logf("attacker %d, lagging %v, removed %d; %d operations, %d reads answered unordered, %d of them from the frozen state",
		attacker, late, healthy, len(history), reads, stale)
	if reads == 0 || stale == 0 {
		t.Errorf("%d reads answered unordered, %d from the frozen state: the read path was not exercised", reads, stale)
	}
}

func without(ids []transport.NodeID, drop transport.NodeID) []transport.NodeID {
	var out []transport.NodeID
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

// readCluster is an unstarted four-replica cluster over registerApps,
// with its clients' endpoints open to collect replies.
func readCluster(t *testing.T, nClients int) *cluster {
	t.Helper()
	c := newCluster(t, 4, nClients, func(cfg *ReplicaConfig) { cfg.App = newRegisterApp() })
	for i := 0; i < nClients; i++ {
		if _, err := c.net.Endpoint(transport.ClientIDBase + transport.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// readTo is a read from client, MAC'd for replica to as Invoke sends it.
func readTo(t testing.TB, c *cluster, client transport.NodeID, seq uint64, key string, to transport.NodeID) *Message {
	return requestTo(t, c, Request{Client: client, Seq: seq, Op: []byte("r " + key)}, to)
}

// repliesTo returns what the replicas sent client so far.
func repliesTo(t *testing.T, c *cluster, client transport.NodeID) []*Message {
	t.Helper()
	return drainInbox(t, c, client)
}

// TestReadWaitsForWhatItVotedToCommit: a replica that sent a COMMIT for a
// write and has not executed it yet parks a read until it has, and then
// answers with the write; meanwhile the read is nowhere in the ordering
// state. A replica with nothing owed answers at once.
func TestReadWaitsForWhatItVotedToCommit(t *testing.T) {
	c := readCluster(t, 1)
	defer c.stop()
	client := transport.ClientIDBase
	r := c.replicas[1]

	r.dispatch(readTo(t, c, client, 1, "k", 1))
	if got := repliesTo(t, c, client); len(got) != 1 || got[0].Type != MsgReadReply || len(got[0].Result) != 0 {
		t.Fatalf("idle replica answered %v, want one empty READ-REPLY", got)
	}

	// The write prepares at replica 1, which then votes to commit it.
	write := signedReq(c, client, 2, "w k v1")
	batch := &Batch{Requests: []Request{write}}
	r.dispatch(signedMsg(c, &Message{Type: MsgPrePrepare, From: 0, SeqNo: 1, Batch: batch, BatchDigest: batch.Digest()}))
	for _, from := range []transport.NodeID{2, 3} {
		r.dispatch(signedMsg(c, &Message{Type: MsgPrepare, From: from, SeqNo: 1, BatchDigest: batch.Digest()}))
	}
	if r.commitMark != 1 || r.lastExec != 0 {
		t.Fatalf("commit mark %d, executed through %d; want 1 and 0", r.commitMark, r.lastExec)
	}
	r.vcArmed = false // armed by the write's proposal; the read must not arm it
	r.dispatch(readTo(t, c, client, 3, "k", 1))
	for _, m := range repliesTo(t, c, client) {
		if m.Type == MsgReadReply {
			t.Fatalf("replica answered %q before executing the write it voted to commit", m.Result)
		}
	}
	if len(r.reads) != 1 || len(r.pending) != 0 || r.clients[client] != nil || r.vcArmed {
		t.Fatalf("parked read left %d reads, %d pending, client record %v, timer armed %v; want 1, 0, none, false",
			len(r.reads), len(r.pending), r.clients[client], r.vcArmed)
	}

	for _, from := range []transport.NodeID{0, 2} {
		r.dispatch(&Message{Type: MsgCommit, From: from, SeqNo: 1, BatchDigest: batch.Digest()})
	}
	var answer *Message
	for _, m := range repliesTo(t, c, client) {
		if m.Type == MsgReadReply {
			answer = m
		}
	}
	if answer == nil || string(answer.Result) != "v1" || answer.ReplySeq != 3 || len(r.reads) != 0 {
		t.Fatalf("after executing the write: answer %+v, %d reads parked; want v1 for request 3, none parked", answer, len(r.reads))
	}
	if key, _ := r.replyKey(client, false); !key.Verify(answer) {
		t.Fatal("read reply is not sealed for its client")
	}
}

// TestReadAnsweredOnlyByMembers: a joining replica, and one outside its own
// epoch's membership, neither answers nor parks a read.
func TestReadAnsweredOnlyByMembers(t *testing.T) {
	c := readCluster(t, 1)
	defer c.stop()
	client := transport.ClientIDBase
	joiner := c.addReplica(4, true)
	member := c.replicas[2]
	member.joining = true
	outsider := joiner
	for name, r := range map[string]*Replica{"joining member": member, "joining outsider": joiner} {
		r.dispatch(readTo(t, c, client, 1, "k", r.ID()))
		if got := repliesTo(t, c, client); len(got) != 0 || len(r.reads) != 0 {
			t.Errorf("%s: answered %v, parked %d", name, got, len(r.reads))
		}
	}
	outsider.joining = false
	outsider.dispatch(readTo(t, c, client, 2, "k", 4))
	if got := repliesTo(t, c, client); len(got) != 0 || len(outsider.reads) != 0 {
		t.Errorf("replica outside its epoch: answered %v, parked %d", got, len(outsider.reads))
	}
}

// TestParkedReadsBounded: a replica holds at most one parked read per
// registered client, the newest; a read whose MAC fails, or from a client
// with no key, is dropped before it takes a slot.
func TestParkedReadsBounded(t *testing.T) {
	c := readCluster(t, 3)
	defer c.stop()
	r := c.replicas[1]
	r.commitMark = 5 // owes execution through 5: every read parks
	for seq := uint64(1); seq <= 4; seq++ {
		for i := 0; i < 3; i++ {
			r.dispatch(readTo(t, c, transport.ClientIDBase+transport.NodeID(i), seq, "k", 1))
		}
	}
	bad := readTo(t, c, transport.ClientIDBase, 9, "k", 1)
	bad.Sig[0] ^= 1
	r.dispatch(bad)
	stranger := readTo(t, c, transport.ClientIDBase, 10, "k", 1)
	stranger.Request.Client = transport.ClientIDBase + 7
	r.dispatch(stranger)
	if len(r.reads) != 3 {
		t.Fatalf("%d reads parked, want one per client (3)", len(r.reads))
	}
	for _, p := range r.reads {
		if p.req.Seq != 4 {
			t.Errorf("client %d's parked read is request %d, want its newest (4)", p.req.Client, p.req.Seq)
		}
	}
}

// TestOrderedReadIsOrdered: with the Order bit set, a read-only request
// goes through the ordering path like any other.
func TestOrderedReadIsOrdered(t *testing.T) {
	c := readCluster(t, 1)
	defer c.stop()
	req := Request{Client: transport.ClientIDBase, Seq: 1, Op: []byte("r k"), Order: true}
	req.Sign(c.clientPriv[req.Client])
	r := c.replicas[0] // the primary proposes it
	r.dispatch(requestTo(t, c, req, 0))
	proposed := false
	for _, m := range drainInbox(t, c, 1) {
		proposed = proposed || (m.Type == MsgPrePrepare && len(m.Batch.Requests) == 1 && m.Batch.Requests[0].Order)
	}
	if !proposed || len(r.reads) != 0 {
		t.Fatalf("ordered read: proposed %v, %d parked; want it proposed", proposed, len(r.reads))
	}
}

// fakeReplicas answers each request a client sends replicas 0..n-1 with
// the messages answer returns, sealed by the replica for the client whose
// public key is client, until the network closes.
func fakeReplicas(t *testing.T, net *transport.Memory, n int, privs map[transport.NodeID]ed25519.PrivateKey,
	client ed25519.PublicKey, answer func(id transport.NodeID, req *Request) []*Message) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := transport.NodeID(i)
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		key, err := newReplyKey(privs[id], client, false)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				env, err := ep.Recv(context.Background())
				if err != nil {
					return
				}
				m, err := Decode(env.Payload)
				if err != nil || m.Request == nil {
					continue
				}
				for _, reply := range answer(id, m.Request) {
					reply.From, reply.ReplySeq, reply.ReplyClient = id, m.Request.Seq, m.Request.Client
					if reply.Sig == nil {
						key.Seal(reply)
					}
					if p, err := Encode(reply); err == nil {
						ep.Send(env.From, p)
					}
				}
			}
		}()
	}
}

// readClient is a client of four fake replicas, holding privs, with short
// timeouts.
func readClient(t *testing.T, privs map[transport.NodeID]ed25519.PrivateKey,
	answer func(id transport.NodeID, req *Request) []*Message) *Client {
	t.Helper()
	net := transport.NewMemory(transport.MemoryConfig{})
	t.Cleanup(func() { net.Close() })
	pubs := make(map[transport.NodeID]ed25519.PublicKey, len(privs))
	for id, priv := range privs {
		pubs[id] = priv.Public().(ed25519.PublicKey)
	}
	cpub, priv := keypair(t)
	fakeReplicas(t, net, 4, privs, cpub, answer)
	cl, err := NewClient(ClientConfig{
		ID: transport.ClientIDBase, Key: priv, Replicas: []transport.NodeID{0, 1, 2, 3},
		ReplicaKeys: pubs, F: 1, Net: net, RequestTimeout: 100 * time.Millisecond, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func readReply(result string, epoch uint64) *Message {
	return &Message{Type: MsgReadReply, Epoch: epoch, Result: []byte(result)}
}

func orderedReply(result string, epoch uint64) *Message {
	return &Message{Type: MsgReply, Epoch: epoch, Result: []byte(result)}
}

// TestClientReadRule pins which unordered answers complete a read: a
// quorum of members agreeing on result and epoch, at the highest epoch
// f+1 members have shown the client. Anything less sends the request to
// the ordered path, whose replies here say "ordered".
func TestClientReadRule(t *testing.T) {
	invokeRead := func(t *testing.T, cl *Client) string {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := cl.Invoke(ctx, []byte("r k"))
		if err != nil {
			t.Fatal(err)
		}
		return string(res)
	}
	fast := func(votes map[transport.NodeID]*Message) func(transport.NodeID, *Request) []*Message {
		return func(id transport.NodeID, req *Request) []*Message {
			if req.Order {
				return []*Message{orderedReply("ordered", 1)}
			}
			if v, ok := votes[id]; ok {
				cp := *v
				return []*Message{&cp}
			}
			return nil
		}
	}

	t.Run("quorum completes a read", func(t *testing.T) {
		_, privs := replicaKeys(t, 4)
		cl := readClient(t, privs, fast(map[transport.NodeID]*Message{0: readReply("v", 1), 1: readReply("v", 1), 2: readReply("v", 1)}))
		if got := invokeRead(t, cl); got != "v" {
			t.Fatalf("read returned %q, want v", got)
		}
	})
	t.Run("f+1 do not", func(t *testing.T) {
		_, privs := replicaKeys(t, 4)
		cl := readClient(t, privs, fast(map[transport.NodeID]*Message{0: readReply("stale", 1), 1: readReply("stale", 1), 2: readReply("v", 1)}))
		if got := invokeRead(t, cl); got != "ordered" {
			t.Fatalf("read returned %q, want the ordered path's answer", got)
		}
	})
	t.Run("sealed for another client, or sent by a non-member", func(t *testing.T) {
		otherPub, _ := keypair(t)
		_, privs := replicaKeys(t, 4)
		cl := readClient(t, privs, func(id transport.NodeID, req *Request) []*Message {
			if req.Order {
				return []*Message{orderedReply("ordered", 1)}
			}
			switch id {
			case 0, 1:
				return []*Message{readReply("v", 1)}
			case 2:
				// A genuine answer, sealed for another client.
				m := readReply("v", 1)
				m.From, m.ReplySeq, m.ReplyClient = 2, req.Seq, req.Client
				return []*Message{sealReply(t, m, privs[2], otherPub)}
			}
			return nil
		})
		// A node outside the replica set answers too, validly sealed.
		ep, err := cl.cfg.Net.Endpoint(9)
		if err != nil {
			t.Fatal(err)
		}
		_, outsider := keypair(t)
		m := &Message{Type: MsgReadReply, From: 9, Epoch: 1, ReplySeq: 1, ReplyClient: transport.ClientIDBase, Result: []byte("v")}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		keepSending(stop, &wg, ep, mustEncode(t, sealReply(t, m, outsider, cl.cfg.Key.Public().(ed25519.PublicKey))))
		defer func() { close(stop); wg.Wait() }()
		if got := invokeRead(t, cl); got != "ordered" {
			t.Fatalf("read returned %q, want the ordered path's answer", got)
		}
	})
	t.Run("a higher epoch sends the read to the ordered path", func(t *testing.T) {
		_, privs := replicaKeys(t, 4)
		cl := readClient(t, privs, fast(map[transport.NodeID]*Message{0: readReply("v", 1), 1: readReply("v", 1), 2: readReply("v", 2), 3: readReply("v", 2)}))
		if got := invokeRead(t, cl); got != "ordered" {
			t.Fatalf("read returned %q, want the ordered path's answer", got)
		}
	})
	t.Run("one member's higher epoch does not send the read to the ordered path", func(t *testing.T) {
		_, privs := replicaKeys(t, 4)
		var writes atomic.Int32
		cl := readClient(t, privs, func(id transport.NodeID, req *Request) []*Message {
			epoch := uint64(1)
			if id == 3 {
				epoch = 1000 // a faulty member stamps an epoch that does not exist
			}
			if !req.Order && bytes.HasPrefix(req.Op, []byte("r ")) {
				return []*Message{readReply("v", epoch)}
			}
			// Members 0 and 3 answer the write's first copy, member 1
			// only its retransmission, so the client counts member 3's
			// reply before it accepts.
			if id == 0 || id == 3 || (id == 1 && writes.Add(1) > 1) {
				return []*Message{orderedReply("ordered", epoch)}
			}
			return nil
		})
		if _, err := cl.Invoke(context.Background(), []byte("w k v")); err != nil {
			t.Fatal(err)
		}
		if got := invokeRead(t, cl); got != "v" {
			t.Fatalf("read returned %q after one member stamped epoch 1000, want v from the epoch-1 quorum", got)
		}
	})
	t.Run("a write's epoch holds when one replier stamps an older one", func(t *testing.T) {
		_, privs := replicaKeys(t, 4)
		var writes atomic.Int32
		cl := readClient(t, privs, func(id transport.NodeID, req *Request) []*Message {
			if req.Order {
				return []*Message{orderedReply("ordered", 2)}
			}
			if bytes.HasPrefix(req.Op, []byte("r ")) {
				if id == 0 {
					return nil
				}
				return []*Message{readReply("stale", 1)}
			}
			// The write ran in epoch 2. Member 3 stamps epoch 1 on its
			// reply; member 1 answers only the retransmission.
			switch {
			case id == 0 || (id == 1 && writes.Add(1) > 1):
				return []*Message{orderedReply("ordered", 2)}
			case id == 3:
				return []*Message{orderedReply("ordered", 1)}
			}
			return nil
		})
		if _, err := cl.Invoke(context.Background(), []byte("w k v")); err != nil {
			t.Fatal(err)
		}
		if got := invokeRead(t, cl); got != "ordered" {
			t.Fatalf("read returned %q from an epoch-1 quorum after a write in epoch 2, want the ordered path's answer", got)
		}
	})
	t.Run("a quorum below the highest epoch seen does not count", func(t *testing.T) {
		epoch := uint64(2)
		_, privs := replicaKeys(t, 4)
		cl := readClient(t, privs, func(id transport.NodeID, req *Request) []*Message {
			if req.Order || !bytes.HasPrefix(req.Op, []byte("r ")) {
				return []*Message{orderedReply("ordered", epoch)}
			}
			return []*Message{readReply("v", 1)}
		})
		// A write answered at epoch 2 shows the client that epoch.
		if _, err := cl.Invoke(context.Background(), []byte("w k v")); err != nil {
			t.Fatal(err)
		}
		if got := invokeRead(t, cl); got != "ordered" {
			t.Fatalf("read returned %q from epoch-1 answers after epoch 2 was seen, want the ordered path's answer", got)
		}
	})
}
