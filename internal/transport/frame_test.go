package transport

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// encodeFrame serializes and MACs one envelope in the frame layout,
//
//	uint32 length | int64 from | int64 to | payload | 32-byte HMAC
//
// built apart from the peer writer's vectored layout, so the tests that
// feed its frames to a reader check the writer against a second encoder.
func encodeFrame(secret []byte, env Envelope) ([]byte, error) {
	total := 16 + len(env.Payload) + sha256.Size
	if total > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", total)
	}
	buf := binary.BigEndian.AppendUint32(nil, uint32(total))
	buf = binary.BigEndian.AppendUint64(buf, uint64(env.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(env.To))
	buf = append(buf, env.Payload...)
	mac := hmac.New(sha256.New, secret)
	mac.Write(buf[4:])
	return mac.Sum(buf), nil
}

// writeFrame serializes, MACs and writes one envelope.
func writeFrame(w io.Writer, secret []byte, env Envelope) error {
	buf, err := encodeFrame(secret, env)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads and authenticates one envelope with a one-shot HMAC
// state and read buffer.
func readFrame(r io.Reader, secret []byte) (Envelope, error) {
	mac := hmac.New(sha256.New, secret)
	return readFrameMAC(bufio.NewReader(r), func(NodeID) hash.Hash { return mac }, nil)
}

// countingReader counts the reads that reach the reader it wraps.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderBurstsAndTrickles: the same stream of frames — empty,
// small, and one larger than the read buffer — decodes and authenticates
// whether the socket hands it over one byte per read or all at once, and
// a burst that fits the read buffer costs one read.
func TestFrameReaderBurstsAndTrickles(t *testing.T) {
	secret := []byte("burst")
	sizes := []int{0, 1, 100, 4096, readBufSize + 1000, 7}
	var stream bytes.Buffer
	for i, n := range sizes {
		if err := writeFrame(&stream, secret, Envelope{From: NodeID(i), To: 2, Payload: bytes.Repeat([]byte{byte(i)}, n)}); err != nil {
			t.Fatal(err)
		}
	}
	mac := hmac.New(sha256.New, secret)
	macFrom := func(NodeID) hash.Hash { return mac }
	for _, feed := range []struct {
		name string
		r    io.Reader
	}{
		{"one byte per read", iotest.OneByteReader(bytes.NewReader(stream.Bytes()))},
		{"all in one read", bytes.NewReader(stream.Bytes())},
	} {
		r := bufio.NewReaderSize(feed.r, readBufSize)
		for i, n := range sizes {
			env, err := readFrameMAC(r, macFrom, nil)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", feed.name, i, err)
			}
			if env.From != NodeID(i) || env.To != 2 || !bytes.Equal(env.Payload, bytes.Repeat([]byte{byte(i)}, n)) {
				t.Fatalf("%s: frame %d arrived as from %d to %d, %d bytes", feed.name, i, env.From, env.To, len(env.Payload))
			}
			if cap(env.Payload) != len(env.Payload) {
				t.Fatalf("%s: frame %d's payload has room to append over its MAC", feed.name, i)
			}
		}
		if _, err := readFrameMAC(r, macFrom, nil); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want EOF", feed.name, err)
		}
	}

	var burst bytes.Buffer
	for i := 0; i < 10; i++ {
		writeFrame(&burst, secret, Envelope{From: 1, To: 2, Payload: make([]byte, 4096)})
	}
	src := &countingReader{r: bytes.NewReader(burst.Bytes())}
	r := bufio.NewReaderSize(src, readBufSize)
	for i := 0; i < 10; i++ {
		if _, err := readFrameMAC(r, macFrom, nil); err != nil {
			t.Fatalf("burst frame %d: %v", i, err)
		}
	}
	if src.reads != 1 {
		t.Errorf("a %d-byte burst of 10 frames took %d reads, want 1", burst.Len(), src.reads)
	}
}

// TestTCPForgedFrameMidBurstDropsConnection: a burst whose middle frame
// fails its MAC delivers the frame before it, counts one authentication
// failure and drops the connection, so the frame after it never arrives.
func TestTCPForgedFrameMidBurstDropsConnection(t *testing.T) {
	tnet, _, b := newTwoNodeTCP(t, TCPConfig{Secret: []byte("right")}, blackholeAddr(t), nil)
	var burst bytes.Buffer
	writeFrame(&burst, []byte("right"), Envelope{From: 1, To: 2, Payload: []byte("before")})
	writeFrame(&burst, []byte("wrong"), Envelope{From: 1, To: 2, Payload: []byte("forged")})
	writeFrame(&burst, []byte("right"), Envelope{From: 1, To: 2, Payload: []byte("after")})
	conn, err := net.Dial("tcp", b.(*tcpEndpoint).listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, b, 2*time.Second); string(env.Payload) != "before" {
		t.Fatalf("delivered %q, want the frame before the forgery", env.Payload)
	}
	// The endpoint closes its side: the read ends instead of timing out.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after the forgery: %v, want EOF from a dropped connection", err)
	}
	s := tnet.Stats()
	if s.DropsAuthFail != 1 || s.FramesRecv != 1 {
		t.Errorf("auth drops %d, frames received %d; want 1 and 1", s.DropsAuthFail, s.FramesRecv)
	}
	select {
	case env := <-b.(*tcpEndpoint).inbox:
		t.Errorf("frame %q after the forgery was delivered", env.Payload)
	default:
	}
}

// TestTCPCoalescedSendsArriveInOrder: a run of sends to one peer arrives
// whole and in order, every frame is counted once, and the writer carried
// them in fewer writes than frames.
func TestTCPCoalescedSendsArriveInOrder(t *testing.T) {
	tnet, a, b := newTwoNodeTCP(t, TCPConfig{}, blackholeAddr(t), nil)
	const msgs = 200
	var bytesSent int64
	for i := 0; i < msgs; i++ {
		p := []byte(fmt.Sprint(i))
		if err := a.Send(2, p); err != nil {
			t.Fatal(err)
		}
		bytesSent += int64(frameOverhead + len(p))
	}
	for i := 0; i < msgs; i++ {
		if env := recvOne(t, b, 2*time.Second); string(env.Payload) != fmt.Sprint(i) {
			t.Fatalf("frame %d arrived as %q", i, env.Payload)
		}
	}
	eventuallyStats(t, tnet, 2*time.Second, "sender counted its frames", func(s Stats) bool { return s.FramesSent == msgs })
	s := tnet.Stats()
	if s.Writes >= msgs || s.Writes < 1 {
		t.Errorf("%d frames took %d writes, want fewer writes than frames", msgs, s.Writes)
	}
	if s.BytesSent != bytesSent || s.BytesRecv != bytesSent {
		t.Errorf("bytes sent/recv = %d/%d, want %d", s.BytesSent, s.BytesRecv, bytesSent)
	}
}

// BenchmarkTCPFrames sends 4 KiB frames from one endpoint to another over
// loopback, in windows the send queue holds, and reports the frames per
// write the writer achieved.
func BenchmarkTCPFrames(b *testing.B) {
	tnet, src, dst := newTwoNodeTCP(b, TCPConfig{}, blackholeAddr(b), nil)
	payload := make([]byte, 4096)
	const window = 256
	b.SetBytes(int64(frameOverhead + len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		k := min(window, b.N-sent)
		for i := 0; i < k; i++ {
			if err := src.Send(2, payload); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			recvOne(b, dst, 5*time.Second)
		}
		sent += k
	}
	b.StopTimer()
	if s := tnet.Stats(); s.Writes > 0 {
		b.ReportMetric(float64(s.FramesSent)/float64(s.Writes), "frames/write")
	}
}
