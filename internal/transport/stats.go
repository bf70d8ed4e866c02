package transport

import (
	"fmt"
	"strings"

	"lazarus/internal/metrics"
)

// Stats is a point-in-time snapshot of a network's transport counters.
// Both networks tally every frame they move and, crucially, every frame
// they drop and why: the transports are deliberately lossy (Send never
// blocks on a slow peer), so the drop counters are the only way to tell
// "the network is quiet" apart from "the network is shedding load".
type Stats struct {
	// FramesSent and BytesSent count frames actually put on the wire
	// (TCP) or dispatched toward an inbox (memory). Frames shed before
	// that point appear under a drop counter instead.
	FramesSent, BytesSent int64
	// Writes counts the vectored writes made, failed ones too (TCP
	// only): a writer sends every frame queued when it wakes in one, so
	// FramesSent/Writes is the frames a write carries.
	Writes int64
	// FramesRecv and BytesRecv count authenticated frames arriving at
	// an endpoint, before inbox admission.
	FramesRecv, BytesRecv int64

	// Dials counts connection attempts; DialFailures the ones that
	// failed; Redials the attempts made after a previously established
	// connection broke (TCP only).
	Dials, DialFailures, Redials int64
	// WriteDeadlineTrips counts frame writes aborted because the peer
	// stopped draining its socket within the write timeout (TCP only).
	WriteDeadlineTrips int64

	// DropsQueueFull counts frames shed because a peer's outbound
	// queue was full — the peer is slow, wedged or unreachable (TCP).
	DropsQueueFull int64
	// DropsInboxFull counts frames shed at the receiver because its
	// inbox was full.
	DropsInboxFull int64
	// DropsAuthFail counts inbound frames rejected by HMAC
	// authentication (TCP).
	DropsAuthFail int64
	// DropsMisrouted counts authenticated frames addressed to a
	// different node (TCP).
	DropsMisrouted int64
	// DropsWriteFail counts frames lost to a broken connection or a
	// tripped write deadline (TCP): every frame of the failed write.
	DropsWriteFail int64
	// DropsLossy counts frames shed by injected loss (memory).
	DropsLossy int64
}

// Drops totals every drop cause.
func (s Stats) Drops() int64 {
	return s.DropsQueueFull + s.DropsInboxFull + s.DropsAuthFail +
		s.DropsMisrouted + s.DropsWriteFail + s.DropsLossy
}

// String renders the nonzero counters on one line, for logs and the
// lazbench output.
func (s Stats) String() string {
	var b strings.Builder
	add := func(name string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	add("sent", s.FramesSent)
	add("sentB", s.BytesSent)
	add("writes", s.Writes)
	add("recv", s.FramesRecv)
	add("recvB", s.BytesRecv)
	add("dials", s.Dials)
	add("dialFail", s.DialFailures)
	add("redials", s.Redials)
	add("wdeadline", s.WriteDeadlineTrips)
	add("dropQueue", s.DropsQueueFull)
	add("dropInbox", s.DropsInboxFull)
	add("dropAuth", s.DropsAuthFail)
	add("dropMisroute", s.DropsMisrouted)
	add("dropWrite", s.DropsWriteFail)
	add("dropLossy", s.DropsLossy)
	if b.Len() == 0 {
		return "idle"
	}
	return b.String()
}

// counters is the live, atomically updated form of Stats shared by every
// endpoint of one network. Each field is a registry-backed instrument:
// wire a *metrics.Registry into the network's config and the same
// numbers that Stats() reports appear in the registry snapshot under
// "<prefix>.<name>". With no registry the instruments still work, they
// are just unregistered — Stats() is unchanged either way.
type counters struct {
	framesSent, bytesSent        *metrics.Counter
	writes                       *metrics.Counter
	framesRecv, bytesRecv        *metrics.Counter
	dials, dialFailures, redials *metrics.Counter
	writeDeadlineTrips           *metrics.Counter
	dropsQueueFull               *metrics.Counter
	dropsInboxFull               *metrics.Counter
	dropsAuthFail                *metrics.Counter
	dropsMisrouted               *metrics.Counter
	dropsWriteFail               *metrics.Counter
	dropsLossy                   *metrics.Counter
}

// init binds every counter to the registry under prefix. A nil registry
// hands out working unregistered counters, so init must still run.
func (c *counters) init(reg *metrics.Registry, prefix string) {
	c.framesSent = reg.Counter(prefix + ".frames_sent")
	c.bytesSent = reg.Counter(prefix + ".bytes_sent")
	c.writes = reg.Counter(prefix + ".writes")
	c.framesRecv = reg.Counter(prefix + ".frames_recv")
	c.bytesRecv = reg.Counter(prefix + ".bytes_recv")
	c.dials = reg.Counter(prefix + ".dials")
	c.dialFailures = reg.Counter(prefix + ".dial_failures")
	c.redials = reg.Counter(prefix + ".redials")
	c.writeDeadlineTrips = reg.Counter(prefix + ".write_deadline_trips")
	c.dropsQueueFull = reg.Counter(prefix + ".drops_queue_full")
	c.dropsInboxFull = reg.Counter(prefix + ".drops_inbox_full")
	c.dropsAuthFail = reg.Counter(prefix + ".drops_auth_fail")
	c.dropsMisrouted = reg.Counter(prefix + ".drops_misrouted")
	c.dropsWriteFail = reg.Counter(prefix + ".drops_write_fail")
	c.dropsLossy = reg.Counter(prefix + ".drops_lossy")
}

func (c *counters) snapshot() Stats {
	return Stats{
		FramesSent:         c.framesSent.Value(),
		BytesSent:          c.bytesSent.Value(),
		Writes:             c.writes.Value(),
		FramesRecv:         c.framesRecv.Value(),
		BytesRecv:          c.bytesRecv.Value(),
		Dials:              c.dials.Value(),
		DialFailures:       c.dialFailures.Value(),
		Redials:            c.redials.Value(),
		WriteDeadlineTrips: c.writeDeadlineTrips.Value(),
		DropsQueueFull:     c.dropsQueueFull.Value(),
		DropsInboxFull:     c.dropsInboxFull.Value(),
		DropsAuthFail:      c.dropsAuthFail.Value(),
		DropsMisrouted:     c.dropsMisrouted.Value(),
		DropsWriteFail:     c.dropsWriteFail.Value(),
		DropsLossy:         c.dropsLossy.Value(),
	}
}
