package transport

import "testing"

// TestMemoryStats exercises every memory-side counter: delivered frames,
// injected-loss drops, and inbox-overflow drops.
func TestMemoryStats(t *testing.T) {
	net := NewMemory(MemoryConfig{})
	net.inboxDepth = 2
	defer net.Close()
	a, _ := net.Endpoint(1)
	b, _ := net.Endpoint(2)

	if err := a.Send(2, []byte("one")); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.FramesSent != 1 || s.FramesRecv != 1 || s.BytesSent != 3 || s.BytesRecv != 3 {
		t.Errorf("after one delivery: %+v", s)
	}

	net.cfg.DropRate = 1
	a.Send(2, []byte("lost"))
	net.cfg.DropRate = 0
	if s = net.Stats(); s.DropsLossy != 1 {
		t.Errorf("injected-loss drop not counted: %+v", s)
	}

	// Inbox capacity is 2 and one slot is taken: two more sends fit,
	// the third overflows.
	for i := 0; i < 3; i++ {
		a.Send(2, []byte("flood"))
	}
	if s = net.Stats(); s.DropsInboxFull != 2 {
		t.Errorf("inbox-overflow drops = %d, want 2: %+v", s.DropsInboxFull, s)
	}
	_ = b
}
