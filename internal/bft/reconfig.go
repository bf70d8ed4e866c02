package bft

import (
	"bytes"
	"errors"
	"fmt"
)

// Membership-change errors, exposed as sentinels so callers (and the
// reconfiguration reply below) can classify outcomes without scraping
// error strings.
var (
	// ErrAlreadyMember: the ADD subject is already in the membership.
	ErrAlreadyMember = errors.New("bft: already a member")
	// ErrNotMember: the REMOVE subject is not in the membership.
	ErrNotMember = errors.New("bft: not a member")
	// ErrGroupTooSmall: the REMOVE would shrink the group below the
	// four-replica minimum (n = 3f+1 with f >= 1).
	ErrGroupTooSmall = errors.New("bft: group at minimum size")
)

// ReconfigStatus classifies how an ordered membership change ended.
type ReconfigStatus int

// Statuses.
const (
	// ReconfigApplied: the membership changed; Epoch carries the new epoch.
	ReconfigApplied ReconfigStatus = iota + 1
	// ReconfigAlreadyMember: an ADD of a current member (a retried ADD
	// whose earlier attempt landed).
	ReconfigAlreadyMember
	// ReconfigNotMember: a REMOVE of a non-member (a retried REMOVE whose
	// earlier attempt landed).
	ReconfigNotMember
	// ReconfigTooSmall: a REMOVE that would shrink the group below the
	// minimum of four replicas.
	ReconfigTooSmall
	// ReconfigInvalid: the operation was malformed (bad key, ...).
	ReconfigInvalid
)

// String names the status.
func (s ReconfigStatus) String() string {
	switch s {
	case ReconfigApplied:
		return "applied"
	case ReconfigAlreadyMember:
		return "already-member"
	case ReconfigNotMember:
		return "not-member"
	case ReconfigTooSmall:
		return "too-small"
	case ReconfigInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("ReconfigStatus(%d)", int(s))
	}
}

// ReconfigResult is the structured reply of an ordered reconfiguration:
// typed at the source, so the control plane classifies it without
// scraping text, and DecodeReconfigResult rejects a malformed reply
// instead of yielding epoch 0.
type ReconfigResult struct {
	// Status classifies the outcome.
	Status ReconfigStatus
	// Epoch is the membership epoch after an applied change (zero
	// otherwise).
	Epoch uint64
	// Detail carries the human-readable cause for non-applied outcomes.
	Detail string
}

// reconfigResultPrefix tags reconfiguration replies so a truncated or
// foreign reply cannot be mistaken for one.
var reconfigResultPrefix = []byte("\x00BFT-RECONFIG-RESULT\x00")

// Encode serializes the result as the reply payload: prefix status:u8
// epoch:u64 detail:blob (see codec.go) — identical on every correct
// replica, so reply vote counting matches.
func (r ReconfigResult) Encode() []byte {
	var w wire
	r.walk(&w)
	w.writeAfter(reconfigResultPrefix)
	r.walk(&w)
	return w.buf
}

// walk walks the result after its prefix.
func (r *ReconfigResult) walk(w *wire) {
	status, detail := uint8(r.Status), []byte(r.Detail)
	w.u8(&status)
	w.u64(&r.Epoch)
	w.blob(&detail)
	if w.mode == reading {
		r.Status, r.Detail = ReconfigStatus(status), string(detail)
	}
}

// String renders the result for logs.
func (r ReconfigResult) String() string {
	if r.Status == ReconfigApplied {
		return fmt.Sprintf("reconfig ok: epoch %d", r.Epoch)
	}
	return fmt.Sprintf("reconfig %s: %s", r.Status, r.Detail)
}

// DecodeReconfigResult parses a reconfiguration reply. A malformed reply
// is an error, never a zero-valued success.
func DecodeReconfigResult(reply []byte) (ReconfigResult, error) {
	if !bytes.HasPrefix(reply, reconfigResultPrefix) {
		return ReconfigResult{}, fmt.Errorf("bft: reply %.40q is not a reconfiguration result", reply)
	}
	var r ReconfigResult
	w := wire{mode: reading, buf: reply, off: len(reconfigResultPrefix)}
	r.walk(&w)
	if !w.done() {
		return ReconfigResult{}, fmt.Errorf("bft: malformed reconfiguration result %.40q", reply)
	}
	switch r.Status {
	case ReconfigApplied, ReconfigAlreadyMember, ReconfigNotMember, ReconfigTooSmall, ReconfigInvalid:
	default:
		return ReconfigResult{}, fmt.Errorf("bft: reconfiguration result has unknown status %d", r.Status)
	}
	if r.Status == ReconfigApplied && r.Epoch == 0 {
		return ReconfigResult{}, fmt.Errorf("bft: applied reconfiguration result carries no epoch")
	}
	return r, nil
}

// classifyReconfigErr maps a membership-change error to its status.
func classifyReconfigErr(err error) ReconfigStatus {
	switch {
	case errors.Is(err, ErrAlreadyMember):
		return ReconfigAlreadyMember
	case errors.Is(err, ErrNotMember):
		return ReconfigNotMember
	case errors.Is(err, ErrGroupTooSmall):
		return ReconfigTooSmall
	default:
		return ReconfigInvalid
	}
}
