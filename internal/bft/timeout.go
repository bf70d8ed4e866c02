package bft

import "time"

// timeoutBackoffCap bounds the exponential backoff shift: 2^6 over the
// adaptive base already exceeds the 8×base clamp, and an unbounded
// shift would overflow time.Duration.
const timeoutBackoffCap = 6

// retransmitInstanceCap and retransmitRequestCap bound what one progress
// timeout re-sends: the oldest stuck instances' votes and the oldest
// pending requests (forwarded to the primary). Oldest-first, because
// in-order execution means only the head of the line blocks progress.
const (
	retransmitInstanceCap = 8
	retransmitRequestCap  = 16
)

// timeoutCtl adapts the progress/view-change timer to the network the
// replica actually observes. Static timeouts lose both ways on a WAN:
// tuned for the LAN they fire spuriously on every latency spike (each
// spurious view change costs a full round of quorum assembly), tuned for
// the WAN they stretch fault detection on fast networks. The controller
// keeps Jacobson/Karn-style smoothed RTT estimates fed from commit
// latency (propose→execute is the consensus round trip — exactly what
// the progress timer waits on), sets the timeout to srtt + 4·rttvar
// (scaled; see timeout), doubles it on each consecutive unproductive
// timeout, and decays the backoff as execution makes progress again.
//
// Disabled (the default), every method is inert and timeout() returns
// the static base.
type timeoutCtl struct {
	enabled        bool
	base, min, max time.Duration
	srtt, rttvar   time.Duration
	backoff        uint
}

// newTimeoutCtl clamps the adaptive timer to [base/4, 8×base].
func newTimeoutCtl(enabled bool, base time.Duration) timeoutCtl {
	return timeoutCtl{enabled: enabled, base: base, min: base / 4, max: 8 * base}
}

// observe feeds one measured consensus round trip (RFC 6298 smoothing:
// srtt ← 7/8·srtt + 1/8·rtt, rttvar ← 3/4·rttvar + 1/4·|srtt−rtt|).
func (tc *timeoutCtl) observe(rtt time.Duration) {
	if !tc.enabled || rtt <= 0 {
		return
	}
	if tc.srtt == 0 {
		tc.srtt = rtt
		tc.rttvar = rtt / 2
		return
	}
	diff := tc.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	tc.rttvar = (3*tc.rttvar + diff) / 4
	tc.srtt = (7*tc.srtt + rtt) / 8
}

// progress decays one backoff level: execution advanced, so the last
// timeout's suspicion is (partially) withdrawn. Stepwise rather than a
// full reset — one lucky commit mid-partition must not collapse the
// timeout back to a value the network cannot meet.
func (tc *timeoutCtl) progress() {
	if tc.enabled && tc.backoff > 0 {
		tc.backoff--
	}
}

// onTimeout doubles the next timeout: either the network is slower than
// the estimate or a view change is in progress, and both want patience.
// Returns true when the backoff level actually rose (for counters).
func (tc *timeoutCtl) onTimeout() bool {
	if !tc.enabled || tc.backoff >= timeoutBackoffCap {
		return false
	}
	tc.backoff++
	return true
}

// timeout returns the current progress-timer duration. The adaptive base
// is 8·(srtt + 4·rttvar): srtt measures one whole consensus instance
// (propose→execute), and under pipelined load a request legitimately
// waits several instances deep before its batch even proposes, so the
// RTO-style srtt+4·rttvar alone would declare the primary faulty under
// every burst. The multiplier buys burst headroom while still tracking
// the measured network, and the clamp keeps pathological estimates
// inside [min, max].
func (tc *timeoutCtl) timeout() time.Duration {
	if !tc.enabled {
		return tc.base
	}
	d := tc.base
	if tc.srtt > 0 {
		d = 8 * (tc.srtt + 4*tc.rttvar)
		if d < tc.min {
			d = tc.min
		}
	}
	d <<= tc.backoff
	if d > tc.max {
		d = tc.max
	}
	if d < tc.min {
		d = tc.min
	}
	return d
}
