// Package ltu implements the Local Trusted Unit of the Lazarus
// architecture (paper §3, §5.1): a small trusted component on each
// execution-plane node that accepts only authenticated power on/off
// commands from the controller and drives the node's replica lifecycle.
// The LTU is the root of trust for proactive recovery — a compromised
// replica cannot forge the commands that would keep itself alive.
package ltu

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Action is a command verb.
type Action int

// Actions.
const (
	// ActionPowerOn provisions and starts a replica with the given OS
	// image.
	ActionPowerOn Action = iota + 1
	// ActionPowerOff stops and wipes the node's replica.
	ActionPowerOff
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionPowerOn:
		return "power-on"
	case ActionPowerOff:
		return "power-off"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Command is one controller order to an LTU.
type Command struct {
	// Seq is a strictly increasing counter (replay protection).
	Seq uint64
	// Action is the verb.
	Action Action
	// OSID selects the OS image for ActionPowerOn.
	OSID string
	// Joining marks a power-on that must bootstrap via state transfer.
	Joining bool
}

// Errors returned by Execute.
var (
	// ErrBadMAC: the command authenticator did not verify.
	ErrBadMAC = errors.New("ltu: command failed authentication")
	// ErrReplay: the command sequence number was not fresh.
	ErrReplay = errors.New("ltu: replayed or stale command")
)

// Driver is the node-local actuator the LTU controls (the deploy
// manager's node in this codebase; a hypervisor or Razor-style bare-metal
// provisioner in a full deployment).
type Driver interface {
	// PowerOn provisions and starts a replica running the OS image.
	PowerOn(osID string, joining bool) error
	// PowerOff stops the replica and releases the node.
	PowerOff() error
}

// Seal authenticates a command with the controller secret, producing the
// wire form the LTU accepts.
func Seal(secret []byte, cmd Command) ([]byte, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("ltu: empty secret")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cmd); err != nil {
		return nil, fmt.Errorf("ltu: encoding command: %w", err)
	}
	mac := hmac.New(sha256.New, secret)
	mac.Write(buf.Bytes())
	return append(buf.Bytes(), mac.Sum(nil)...), nil
}

// open verifies and decodes a sealed command.
func open(secret, sealed []byte) (Command, error) {
	if len(sealed) <= sha256.Size {
		return Command{}, ErrBadMAC
	}
	body, sum := sealed[:len(sealed)-sha256.Size], sealed[len(sealed)-sha256.Size:]
	mac := hmac.New(sha256.New, secret)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), sum) {
		return Command{}, ErrBadMAC
	}
	var cmd Command
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&cmd); err != nil {
		return Command{}, fmt.Errorf("ltu: decoding command: %w", err)
	}
	return cmd, nil
}

// DefaultHistoryCap bounds the accepted-command history. A long-running
// controller issues an unbounded stream of power commands; the LTU keeps
// only the most recent window (a ring), enough for audit and debugging.
const DefaultHistoryCap = 64

// Injector is a fault hook consulted after a command authenticates but
// before it reaches the driver. It may stall (sleep) to simulate a slow
// control channel, and a non-nil error aborts the command — the sequence
// number is still consumed, exactly like a real LTU that acknowledged an
// order and then failed to carry it out.
type Injector func(Command) error

// LTU is one node's trusted unit.
type LTU struct {
	secret []byte
	driver Driver

	mu       sync.Mutex
	lastSeq  uint64
	history  [DefaultHistoryCap]Command // ring of the last accepted commands
	histNext int                        // next write position in history
	histLen  int                        // filled entries
	injector Injector
	accepted uint64
}

// New builds an LTU bound to its node driver.
func New(secret []byte, driver Driver) (*LTU, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("ltu: empty secret")
	}
	if driver == nil {
		return nil, fmt.Errorf("ltu: nil driver")
	}
	return &LTU{secret: secret, driver: driver}, nil
}

// SetInjector installs (or, with nil, clears) the fault hook.
func (l *LTU) SetInjector(f Injector) {
	l.mu.Lock()
	l.injector = f
	l.mu.Unlock()
}

// Execute verifies a sealed command and applies it to the node. Commands
// must arrive with strictly increasing sequence numbers.
func (l *LTU) Execute(sealed []byte) error {
	cmd, err := open(l.secret, sealed)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if cmd.Seq <= l.lastSeq {
		l.mu.Unlock()
		return fmt.Errorf("%w: seq %d <= %d", ErrReplay, cmd.Seq, l.lastSeq)
	}
	l.lastSeq = cmd.Seq
	l.recordLocked(cmd)
	inject := l.injector
	l.mu.Unlock()

	if inject != nil {
		if err := inject(cmd); err != nil {
			return fmt.Errorf("ltu: %v: %w", cmd.Action, err)
		}
	}
	switch cmd.Action {
	case ActionPowerOn:
		if err := l.driver.PowerOn(cmd.OSID, cmd.Joining); err != nil {
			return fmt.Errorf("ltu: power-on %s: %w", cmd.OSID, err)
		}
		return nil
	case ActionPowerOff:
		if err := l.driver.PowerOff(); err != nil {
			return fmt.Errorf("ltu: power-off: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("ltu: unknown action %v", cmd.Action)
	}
}

// recordLocked appends to the history ring, overwriting the oldest entry
// once the ring is full.
func (l *LTU) recordLocked(cmd Command) {
	l.accepted++
	l.history[l.histNext] = cmd
	l.histNext = (l.histNext + 1) % DefaultHistoryCap
	if l.histLen < DefaultHistoryCap {
		l.histLen++
	}
}

// LastSeq returns the highest command sequence number the LTU has
// accepted. A recovering controller probes this to resume its command
// counter above anything its predecessor issued (the LTU rejects
// non-increasing sequence numbers as replays).
func (l *LTU) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Accepted returns how many commands the LTU has accepted in total
// (including any that have aged out of the bounded history).
func (l *LTU) Accepted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// History returns the most recently accepted commands, oldest first. At
// most DefaultHistoryCap are retained.
func (l *LTU) History() []Command {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Command, 0, l.histLen)
	start := l.histNext - l.histLen + DefaultHistoryCap
	for i := 0; i < l.histLen; i++ {
		out = append(out, l.history[(start+i)%DefaultHistoryCap])
	}
	return out
}
