package transport

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/pairkey"
)

// maxFrame bounds a single TCP frame (16 MiB), protecting receivers from
// hostile length prefixes.
const maxFrame = 16 << 20

// frameOverhead is the on-wire size of a frame beyond its payload:
// length prefix, routing header and MAC.
const frameOverhead = 4 + 16 + sha256.Size

// readBufSize is each inbound connection's read buffer: a burst of frames
// that fits costs one read of the socket.
const readBufSize = 64 << 10

// maxWriteBytes bounds one coalesced write, and so what one write deadline
// covers: a writer stops taking queued frames once it holds maxWriteBytes
// (it always takes one).
const maxWriteBytes = 256 << 10

// errAuthFail marks an inbound frame that failed HMAC authentication.
var errAuthFail = errors.New("transport: frame failed authentication")

// linkKeyTag separates link keys from any other use of the pair secret.
const linkKeyTag = "lazarus/transport link MAC v1\x00"

// tcpLimits are a TCP network's queue sizes and timeouts. No caller wants
// other values than defaultTCPLimits', so none is a TCPConfig field; the
// package's tests shorten them before opening endpoints.
type tcpLimits struct {
	// inboxDepth is each endpoint's inbox capacity.
	inboxDepth int
	// sendQueueDepth is each per-peer outbound queue's capacity. When a
	// peer's queue is full — it is slow, wedged or unreachable — further
	// frames to it are dropped and counted, never blocking the sender.
	sendQueueDepth int
	// dialTimeout bounds a single connection attempt.
	dialTimeout time.Duration
	// writeTimeout bounds a single write. A peer that stops draining its
	// socket trips the deadline and loses the write's frames instead of
	// wedging the writer.
	writeTimeout time.Duration
	// redialBackoff and redialBackoffMax shape the capped exponential
	// backoff (plus up to 50% jitter) between dial attempts to an
	// unreachable peer.
	redialBackoff, redialBackoffMax time.Duration
}

func defaultTCPLimits() tcpLimits {
	return tcpLimits{
		inboxDepth:       4096,
		sendQueueDepth:   1024,
		dialTimeout:      3 * time.Second,
		writeTimeout:     5 * time.Second,
		redialBackoff:    50 * time.Millisecond,
		redialBackoffMax: 2 * time.Second,
	}
}

// TCPConfig configures a TCP network.
type TCPConfig struct {
	// Addrs maps every node to its listen address. All nodes that will
	// ever communicate must be listed.
	Addrs map[NodeID]string
	// Keys is the ed25519 public key of every node in Addrs, and
	// Identities the private keys of the nodes whose endpoints this
	// network opens. With them each directed link has its own frame key,
	// hashed from the X25519 secret of its two ends (pairkey.Shared) and
	// their public keys in (sender, receiver) order: only the two ends of
	// a link can MAC its frames, so a frame's From names its real sender.
	Keys       map[NodeID]ed25519.PublicKey
	Identities map[NodeID]ed25519.PrivateKey
	// Secret, set instead of Keys, keys every link with one shared secret:
	// any holder can put any node's id on a frame. It suits only a process
	// that hosts every node and trusts all of them.
	Secret []byte
	// Seed keys the per-peer backoff-jitter RNGs: each (endpoint, peer)
	// writer derives its own rand.Rand from it, so two networks built
	// with the same seed replay identical jitter sequences and seeded
	// harness runs stay reproducible. Zero is a valid seed.
	Seed int64
	// Metrics optionally registers the network's counters under
	// "transport.tcp.*"; nil keeps them Stats()-only.
	Metrics *metrics.Registry
}

// TCP is a Network over real sockets with length-prefixed frames, each
// authenticated by an HMAC under its link's key. Frame layout:
//
//	uint32 length | int64 from | int64 to | payload | 32-byte HMAC
//
// where length counts what follows it. A writer sends a run of frames in
// one vectored write, each payload where it lies between two buffers of
// its own (length, from and to before it; the HMAC, with the next
// frame's length, from and to, after it); a reader takes a run of them in
// one read of the socket and copies each frame once, into the buffer its
// payload is handed over in.
//
// Each destination is served by a dedicated per-peer writer: Send is a
// non-blocking enqueue onto that writer's bounded queue, and the writer
// alone dials (with timeout), writes (under a deadline) and re-dials
// (with capped exponential backoff). A slow, stalled or dead peer can
// therefore never block traffic to healthy peers — its queue simply
// fills and overflow frames are dropped, matching the lossy-network
// contract. Ordering across re-dials is not guaranteed, matching the
// asynchronous model the BFT layer assumes.
type TCP struct {
	cfg   TCPConfig
	lim   tcpLimits
	stats counters

	mu        sync.Mutex
	endpoints map[NodeID]*tcpEndpoint
	closed    bool
}

// NewTCP validates the configuration and builds the network.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("transport: tcp network needs addresses")
	}
	if (cfg.Keys == nil) == (len(cfg.Secret) == 0) {
		return nil, fmt.Errorf("transport: tcp network needs link keys or a MAC secret, not both")
	}
	for id := range cfg.Addrs {
		if _, ok := cfg.Keys[id]; cfg.Keys != nil && !ok {
			return nil, fmt.Errorf("transport: no public key for node %d", id)
		}
	}
	for id, priv := range cfg.Identities {
		if len(priv) != ed25519.PrivateKeySize || !priv.Public().(ed25519.PublicKey).Equal(cfg.Keys[id]) {
			return nil, fmt.Errorf("transport: identity of node %d does not match its public key", id)
		}
	}
	t := &TCP{cfg: cfg, endpoints: make(map[NodeID]*tcpEndpoint), lim: defaultTCPLimits()}
	t.stats.init(cfg.Metrics, "transport.tcp")
	return t, nil
}

var _ Network = (*TCP)(nil)

// Stats implements Network.
func (t *TCP) Stats() Stats { return t.stats.snapshot() }

type tcpEndpoint struct {
	id       NodeID
	net      *TCP
	listener net.Listener
	inbox    chan Envelope
	closed   chan struct{}
	once     sync.Once

	// dialCtx is cancelled on Close so in-flight dials abort promptly.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	// out and in are the frame keys of the links to and from each peer;
	// both are nil when one Secret keys every link.
	out, in map[NodeID][]byte

	mu      sync.Mutex
	writers map[NodeID]*peerWriter
	inbound map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// Endpoint implements Network: it binds the node's listener and starts
// accepting inbound frames.
func (t *TCP) Endpoint(id NodeID) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if ep, ok := t.endpoints[id]; ok {
		return ep, nil
	}
	addr, ok := t.cfg.Addrs[id]
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %d", id)
	}
	out, in, err := t.linkKeys(id)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &tcpEndpoint{
		id:         id,
		net:        t,
		listener:   ln,
		inbox:      make(chan Envelope, t.lim.inboxDepth),
		closed:     make(chan struct{}),
		dialCtx:    ctx,
		dialCancel: cancel,
		out:        out,
		in:         in,
		writers:    make(map[NodeID]*peerWriter),
		inbound:    make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	t.endpoints[id] = ep
	return ep, nil
}

// linkKeys derives the frame keys of every link to and from node id: one
// X25519 exchange per peer, done once when the endpoint opens.
func (t *TCP) linkKeys(id NodeID) (out, in map[NodeID][]byte, err error) {
	if t.cfg.Keys == nil {
		return nil, nil, nil
	}
	priv, ok := t.cfg.Identities[id]
	if !ok {
		return nil, nil, fmt.Errorf("transport: no identity for node %d", id)
	}
	out = make(map[NodeID][]byte, len(t.cfg.Addrs))
	in = make(map[NodeID][]byte, len(t.cfg.Addrs))
	self := t.cfg.Keys[id]
	for peer := range t.cfg.Addrs {
		pub := t.cfg.Keys[peer]
		shared, err := pairkey.Shared(priv, pub)
		if err != nil {
			return nil, nil, fmt.Errorf("transport: link key with node %d: %w", peer, err)
		}
		out[peer] = linkKey(shared, self, pub)
		in[peer] = linkKey(shared, pub, self)
	}
	return out, in, nil
}

// linkKey hashes the pair secret of a link's two ends, with their public
// keys in (sender, receiver) order, into the key of that direction.
func linkKey(shared []byte, from, to ed25519.PublicKey) []byte {
	d := sha256.New()
	d.Write([]byte(linkKeyTag))
	d.Write(shared)
	d.Write(from)
	d.Write(to)
	return d.Sum(nil)
}

// keyTo and keyFrom return the frame key of the link to or from a peer,
// nil for a node with no key.
func (ep *tcpEndpoint) keyTo(peer NodeID) []byte {
	if ep.out == nil {
		return ep.net.cfg.Secret
	}
	return ep.out[peer]
}

func (ep *tcpEndpoint) keyFrom(peer NodeID) []byte {
	if ep.in == nil {
		return ep.net.cfg.Secret
	}
	return ep.in[peer]
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	eps := make([]*tcpEndpoint, 0, len(t.endpoints))
	for _, ep := range t.endpoints {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

func (ep *tcpEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.listener.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		select {
		case <-ep.closed:
			ep.mu.Unlock()
			conn.Close()
			return
		default:
		}
		ep.inbound[conn] = struct{}{}
		// The Add must happen under ep.mu: Close marks the endpoint
		// closed under the same lock before waiting, so this Add is
		// ordered before Close's Wait.
		ep.wg.Add(1)
		ep.mu.Unlock()
		go func() {
			defer ep.wg.Done()
			defer func() {
				conn.Close()
				ep.mu.Lock()
				delete(ep.inbound, conn)
				ep.mu.Unlock()
			}()
			ep.readLoop(conn)
		}()
	}
}

func (ep *tcpEndpoint) readLoop(conn net.Conn) {
	st := &ep.net.stats
	// One HMAC state per sender and connection, reset per frame: hmac.New
	// runs two SHA-256 key schedules, pure waste to repeat per frame. The
	// map holds at most one state per node with a key.
	macs := make(map[NodeID]hash.Hash, 1)
	macFrom := func(from NodeID) hash.Hash {
		if ep.in == nil {
			from = 0 // one Secret keys every link: one state serves every sender
		}
		mac, ok := macs[from]
		if !ok {
			key := ep.keyFrom(from)
			if key == nil {
				return nil
			}
			mac = hmac.New(sha256.New, key)
			macs[from] = mac
		}
		return mac
	}
	r := bufio.NewReaderSize(conn, readBufSize)
	sum := make([]byte, 0, sha256.Size)
	for {
		env, err := readFrameMAC(r, macFrom, sum)
		if err != nil {
			if errors.Is(err, errAuthFail) {
				st.dropsAuthFail.Add(1)
			}
			return
		}
		st.framesRecv.Add(1)
		st.bytesRecv.Add(int64(frameOverhead + len(env.Payload)))
		if env.To != ep.id {
			st.dropsMisrouted.Add(1)
			continue // misrouted or spoofed; drop
		}
		select {
		case ep.inbox <- env:
		default: // inbox full: drop, lossy-network semantics
			st.dropsInboxFull.Add(1)
		}
	}
}

// ID implements Endpoint.
func (ep *tcpEndpoint) ID() NodeID { return ep.id }

// Send implements Endpoint. It never touches the network itself: the
// envelope is enqueued onto the destination's writer — which MACs the
// payload and writes it where it lies — and a full queue sheds it
// (counted) rather than blocking. A broadcast's shared payload is queued
// n-1 times by reference and never copied, so the caller must not change
// it after Send.
func (ep *tcpEndpoint) Send(to NodeID, payload []byte) error {
	select {
	case <-ep.closed:
		return ErrClosed
	default:
	}
	if total := 16 + len(payload) + sha256.Size; total > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	pw, err := ep.writer(to)
	if err != nil {
		return err
	}
	select {
	case pw.queue <- Envelope{From: ep.id, To: to, Payload: payload}:
		pw.wake()
	default:
		ep.net.stats.dropsQueueFull.Add(1) // lossy-network contract: a wedged peer sheds load
	}
	return nil
}

// writer returns the destination's peer writer, starting it on first
// use. Creation is cheap — no dialing happens under the lock.
func (ep *tcpEndpoint) writer(to NodeID) (*peerWriter, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	select {
	case <-ep.closed:
		return nil, ErrClosed
	default:
	}
	if pw, ok := ep.writers[to]; ok {
		return pw, nil
	}
	addr, ok := ep.net.cfg.Addrs[to]
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %d", to)
	}
	key := ep.keyTo(to)
	if key == nil {
		return nil, fmt.Errorf("transport: no link key for node %d", to)
	}
	pw := &peerWriter{
		to:    to,
		addr:  addr,
		ep:    ep,
		queue: make(chan Envelope, ep.net.lim.sendQueueDepth),
		kick:  make(chan struct{}, 1),
		mac:   hmac.New(sha256.New, key),
		// Jitter must come from a writer-local seeded source, not the
		// global math/rand: the chaos harness replays whole runs from one
		// seed, and a global draw would interleave with every other
		// goroutine's. The (endpoint, peer) mix keeps streams distinct.
		rng: rand.New(rand.NewSource(jitterSeed(ep.net.cfg.Seed, ep.id, to))),
	}
	ep.writers[to] = pw
	ep.wg.Add(1)
	go pw.run()
	return pw, nil
}

// peerWriter owns all outbound traffic to one destination: a bounded
// queue of envelopes drained by a single goroutine (singleflight — at
// most one dial per peer at any time) that connects with a timeout,
// re-dials with capped exponential backoff plus jitter, and on each
// wake-up writes every frame queued by then — up to maxWriteBytes — in
// one vectored write under one deadline (see coalesce).
type peerWriter struct {
	to    NodeID
	addr  string
	ep    *tcpEndpoint
	queue chan Envelope
	// kick (capacity 1) lets Send cut a redial backoff short: fresh
	// traffic toward a peer we are backing off from is the signal that
	// the link may have healed (see sleep).
	kick chan struct{}
	mac  hash.Hash  // frame authenticator; used only by the run goroutine
	rng  *rand.Rand // jitter source; used only by the run goroutine
	// batch, iov and seams are one write's envelopes, buffers and the
	// headers and MACs between its payloads; run reuses them.
	batch []Envelope
	iov   net.Buffers
	seams []byte

	mu   sync.Mutex
	conn net.Conn // owned by run(); Close shuts it to unblock a write
}

func (pw *peerWriter) run() {
	ep := pw.ep
	defer ep.wg.Done()
	defer pw.closeConn()
	lim := &ep.net.lim
	st := &ep.net.stats
	backoff := lim.redialBackoff
	everConnected := false
	for {
		var env Envelope
		select {
		case <-ep.closed:
			return
		case env = <-pw.queue:
		}
		// Connect as needed. Dial failures back off and retry while the
		// frame stays pending; meanwhile the queue absorbs — then sheds —
		// new traffic, and what it absorbed goes out in the next write.
		conn := pw.current()
		for conn == nil {
			c, err := pw.dial(everConnected)
			if err != nil {
				if !pw.sleep(backoff) {
					return
				}
				backoff *= 2
				if backoff > lim.redialBackoffMax {
					backoff = lim.redialBackoffMax
				}
				continue
			}
			if !pw.setConn(c) {
				return // closed while dialing
			}
			conn = c
			everConnected = true
			backoff = lim.redialBackoff
		}
		iov, frames, size := pw.coalesce(env)
		conn.SetWriteDeadline(time.Now().Add(lim.writeTimeout))
		_, err := iov.WriteTo(conn)
		st.writes.Add(1)
		clear(pw.batch) // drop the payloads' references
		clear(pw.iov)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				st.writeDeadlineTrips.Add(1)
			}
			// The frames may be partially written; resending them on a
			// fresh connection would corrupt the stream, so they are all
			// lost — the BFT layer's retransmissions absorb this.
			st.dropsWriteFail.Add(int64(frames))
			pw.closeConn()
			continue
		}
		st.framesSent.Add(int64(frames))
		st.bytesSent.Add(int64(size))
	}
}

// coalesce takes first and whatever else is queued, up to maxWriteBytes,
// and lays them out as one vectored write of unchanged frames: each
// payload is sent where it lies, MAC'd in place, and the bytes between two
// payloads — one frame's MAC, the next one's length prefix and routing
// header — are one buffer in seams, so n frames take 2n+1 buffers.
func (pw *peerWriter) coalesce(first Envelope) (iov net.Buffers, frames, size int) {
	pw.batch = append(pw.batch[:0], first)
	size = frameOverhead + len(first.Payload)
drain:
	for size < maxWriteBytes {
		select {
		case env := <-pw.queue:
			pw.batch = append(pw.batch, env)
			size += frameOverhead + len(env.Payload)
		default:
			break drain
		}
	}
	frames = len(pw.batch)
	if len(pw.seams) < frames*frameOverhead {
		pw.seams = make([]byte, frames*frameOverhead)
	}
	seams := pw.seams
	iov = pw.iov[:0]
	seam, off := 0, 0
	for _, env := range pw.batch {
		hdr := seams[off : off+4+16]
		binary.BigEndian.PutUint32(hdr, uint32(16+len(env.Payload)+sha256.Size))
		binary.BigEndian.PutUint64(hdr[4:], uint64(env.From))
		binary.BigEndian.PutUint64(hdr[12:], uint64(env.To))
		pw.mac.Reset()
		pw.mac.Write(hdr[4:])
		pw.mac.Write(env.Payload)
		pw.mac.Sum(seams[off+len(hdr) : off+len(hdr)]) // in place: seams has the room
		iov = append(iov, seams[seam:off+len(hdr)], env.Payload)
		seam, off = off+len(hdr), off+frameOverhead
	}
	pw.iov = append(iov, seams[seam:off])
	return pw.iov, frames, size
}

func (pw *peerWriter) dial(redial bool) (net.Conn, error) {
	st := &pw.ep.net.stats
	st.dials.Add(1)
	if redial {
		st.redials.Add(1)
	}
	d := net.Dialer{Timeout: pw.ep.net.lim.dialTimeout}
	c, err := d.DialContext(pw.ep.dialCtx, "tcp", pw.addr)
	if err != nil {
		st.dialFailures.Add(1)
		return nil, err
	}
	return c, nil
}

// jitterSeed derives the per-(endpoint, peer) backoff-jitter seed: fully
// determined by the network seed, distinct per directed pair so writers
// don't march in lockstep.
func jitterSeed(seed int64, self, to NodeID) int64 {
	return seed ^ int64(self)<<32 ^ int64(to)
}

// wake nudges a writer that may be sleeping out a redial backoff.
// Non-blocking: a pending nudge is as good as two.
func (pw *peerWriter) wake() {
	select {
	case pw.kick <- struct{}{}:
	default:
	}
}

// sleep waits out the redial backoff plus up to 50% jitter, returning
// false if the endpoint closes first. A fresh Send (wake) cuts the wait
// short once a minimum of the base backoff has elapsed: on a flapping link
// the traffic that resumes after the link heals should trigger an
// immediate redial instead of sleeping out the full capped backoff,
// while the floor keeps steady traffic toward a genuinely dead peer
// from turning the backoff into a dial storm (at most one dial per
// base backoff either way).
func (pw *peerWriter) sleep(d time.Duration) bool {
	d += time.Duration(pw.rng.Int63n(int64(d)/2 + 1))
	// Drain a stale nudge: sends already queued when the dial failed are
	// not evidence the link healed since.
	select {
	case <-pw.kick:
	default:
	}
	floor := pw.ep.net.lim.redialBackoff
	if floor > d {
		floor = d
	}
	t := time.NewTimer(floor)
	select {
	case <-t.C:
	case <-pw.ep.closed:
		t.Stop()
		return false
	}
	if rest := d - floor; rest > 0 {
		t2 := time.NewTimer(rest)
		defer t2.Stop()
		select {
		case <-t2.C:
		case <-pw.kick: // fresh traffic: try the dial now
		case <-pw.ep.closed:
			return false
		}
	}
	return true
}

func (pw *peerWriter) current() net.Conn {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.conn
}

// setConn registers a freshly dialed connection; if the endpoint closed
// meanwhile, the connection is discarded and false is returned.
func (pw *peerWriter) setConn(c net.Conn) bool {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	select {
	case <-pw.ep.closed:
		c.Close()
		return false
	default:
	}
	pw.conn = c
	return true
}

func (pw *peerWriter) closeConn() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.conn != nil {
		pw.conn.Close()
		pw.conn = nil
	}
}

// Recv implements Endpoint.
func (ep *tcpEndpoint) Recv(ctx context.Context) (Envelope, error) {
	select {
	case env := <-ep.inbox:
		return env, nil
	case <-ep.closed:
		return Envelope{}, ErrClosed
	case <-ctx.Done():
		return Envelope{}, ctx.Err()
	}
}

// Close implements Endpoint. It is prompt even with dials in flight or
// writes wedged: the dial context is cancelled and every connection is
// closed, unblocking the writer and reader goroutines before Wait.
func (ep *tcpEndpoint) Close() error {
	ep.once.Do(func() {
		ep.mu.Lock()
		close(ep.closed)
		ep.dialCancel()
		ep.listener.Close()
		for _, pw := range ep.writers {
			pw.closeConn()
		}
		// Inbound connections must be closed too, or their read loops
		// would block forever and Close would deadlock on wg.Wait.
		for c := range ep.inbound {
			c.Close()
		}
		ep.mu.Unlock()
	})
	ep.wg.Wait()
	return nil
}

// readFrameMAC reads one envelope off r and authenticates it under the
// HMAC state macFrom returns for the sender it names (nil: no key, so the
// frame fails), resetting that state for reuse; sum is scratch for the MAC
// it computes. The length prefix is read where it lies in r's buffer, so a
// burst of frames costs one read of the socket, and the frame is copied
// once, into a buffer of its own: ownership of the payload passes to the
// consumer, which may keep subslices of it (bft.Decode does), so the
// buffer is never recycled.
func readFrameMAC(r *bufio.Reader, macFrom func(NodeID) hash.Hash, sum []byte) (Envelope, error) {
	lenBuf, err := r.Peek(4)
	if err != nil {
		return Envelope{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf)
	if total < 16+sha256.Size || total > maxFrame {
		return Envelope{}, fmt.Errorf("transport: bad frame length %d", total)
	}
	r.Discard(4) // cannot fail: Peek saw the four bytes
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, err
	}
	payloadLen := int(total) - 16 - sha256.Size
	hdr, payload, want := buf[:16], buf[16:16+payloadLen:16+payloadLen], buf[16+payloadLen:]

	from := NodeID(binary.BigEndian.Uint64(hdr[0:8]))
	mac := macFrom(from)
	if mac == nil {
		return Envelope{}, errAuthFail
	}
	mac.Reset()
	mac.Write(hdr)
	mac.Write(payload)
	if !hmac.Equal(mac.Sum(sum[:0]), want) {
		return Envelope{}, errAuthFail
	}
	return Envelope{
		From:    from,
		To:      NodeID(binary.BigEndian.Uint64(hdr[8:16])),
		Payload: payload,
	}, nil
}
