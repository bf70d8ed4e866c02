package ltu

import (
	"errors"
	"testing"
)

// fakeDriver records LTU actions.
type fakeDriver struct {
	onCalls  []string
	offCalls int
	failOn   bool
}

func (d *fakeDriver) PowerOn(osID string, joining bool) error {
	if d.failOn {
		return errors.New("boot failure")
	}
	d.onCalls = append(d.onCalls, osID)
	return nil
}

func (d *fakeDriver) PowerOff() error {
	d.offCalls++
	return nil
}

func seal(t *testing.T, secret []byte, cmd Command) []byte {
	t.Helper()
	sealed, err := Seal(secret, cmd)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

func TestExecutePowerCycle(t *testing.T) {
	secret := []byte("ctrl-secret")
	d := &fakeDriver{}
	l, err := New(secret, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Execute(seal(t, secret, Command{Seq: 1, Action: ActionPowerOn, OSID: "UB16"})); err != nil {
		t.Fatal(err)
	}
	if err := l.Execute(seal(t, secret, Command{Seq: 2, Action: ActionPowerOff})); err != nil {
		t.Fatal(err)
	}
	if len(d.onCalls) != 1 || d.onCalls[0] != "UB16" || d.offCalls != 1 {
		t.Errorf("driver calls: on=%v off=%d", d.onCalls, d.offCalls)
	}
	hist := l.History()
	if len(hist) != 2 || hist[0].Action != ActionPowerOn || hist[1].Action != ActionPowerOff {
		t.Errorf("history = %+v", hist)
	}
}

func TestRejectsWrongSecret(t *testing.T) {
	d := &fakeDriver{}
	l, _ := New([]byte("right"), d)
	sealed := seal(t, []byte("wrong"), Command{Seq: 1, Action: ActionPowerOn, OSID: "UB16"})
	if err := l.Execute(sealed); !errors.Is(err, ErrBadMAC) {
		t.Errorf("err = %v, want ErrBadMAC", err)
	}
	if len(d.onCalls) != 0 {
		t.Error("driver acted on unauthenticated command")
	}
}

func TestRejectsTamperedCommand(t *testing.T) {
	secret := []byte("s")
	d := &fakeDriver{}
	l, _ := New(secret, d)
	sealed := seal(t, secret, Command{Seq: 1, Action: ActionPowerOff})
	sealed[2] ^= 0xFF
	if err := l.Execute(sealed); !errors.Is(err, ErrBadMAC) {
		t.Errorf("err = %v, want ErrBadMAC", err)
	}
	if err := l.Execute([]byte("short")); !errors.Is(err, ErrBadMAC) {
		t.Errorf("short input err = %v", err)
	}
}

func TestRejectsReplay(t *testing.T) {
	secret := []byte("s")
	d := &fakeDriver{}
	l, _ := New(secret, d)
	sealed := seal(t, secret, Command{Seq: 5, Action: ActionPowerOn, OSID: "DE8"})
	if err := l.Execute(sealed); err != nil {
		t.Fatal(err)
	}
	// Exact replay.
	if err := l.Execute(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("replay err = %v", err)
	}
	// Stale (lower) sequence number.
	stale := seal(t, secret, Command{Seq: 3, Action: ActionPowerOff})
	if err := l.Execute(stale); !errors.Is(err, ErrReplay) {
		t.Errorf("stale err = %v", err)
	}
	if len(d.onCalls) != 1 || d.offCalls != 0 {
		t.Errorf("driver state after replays: on=%v off=%d", d.onCalls, d.offCalls)
	}
}

func TestDriverErrorsPropagate(t *testing.T) {
	secret := []byte("s")
	l, _ := New(secret, &fakeDriver{failOn: true})
	err := l.Execute(seal(t, secret, Command{Seq: 1, Action: ActionPowerOn, OSID: "UB16"}))
	if err == nil {
		t.Error("driver failure swallowed")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, &fakeDriver{}); err == nil {
		t.Error("empty secret accepted")
	}
	if _, err := New([]byte("s"), nil); err == nil {
		t.Error("nil driver accepted")
	}
	if _, err := Seal(nil, Command{}); err == nil {
		t.Error("Seal with empty secret accepted")
	}
}

func TestActionString(t *testing.T) {
	if ActionPowerOn.String() != "power-on" || ActionPowerOff.String() != "power-off" {
		t.Error("action names wrong")
	}
	if Action(9).String() != "Action(9)" {
		t.Error("unknown action name wrong")
	}
}

func TestHistoryRingBounded(t *testing.T) {
	secret := []byte("s")
	l, _ := New(secret, &fakeDriver{})
	const total = DefaultHistoryCap + 7 // wraps the ring
	for seq := uint64(1); seq <= total; seq++ {
		if err := l.Execute(seal(t, secret, Command{Seq: seq, Action: ActionPowerOn, OSID: "UB16"})); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Accepted(); got != total {
		t.Errorf("accepted = %d, want %d", got, total)
	}
	hist := l.History()
	if len(hist) != DefaultHistoryCap {
		t.Fatalf("history holds %d entries, want %d", len(hist), DefaultHistoryCap)
	}
	// Oldest-first window of the most recent commands: seqs 8..total.
	for i, cmd := range hist {
		if want := uint64(8 + i); cmd.Seq != want {
			t.Errorf("history[%d].Seq = %d, want %d", i, cmd.Seq, want)
		}
	}
}

func TestDefaultHistoryCap(t *testing.T) {
	secret := []byte("s")
	l, _ := New(secret, &fakeDriver{})
	for seq := uint64(1); seq <= DefaultHistoryCap+10; seq++ {
		if err := l.Execute(seal(t, secret, Command{Seq: seq, Action: ActionPowerOff})); err != nil {
			t.Fatal(err)
		}
	}
	if hist := l.History(); len(hist) != DefaultHistoryCap {
		t.Errorf("history holds %d entries, want %d", len(hist), DefaultHistoryCap)
	}
	if got := l.Accepted(); got != DefaultHistoryCap+10 {
		t.Errorf("accepted = %d", got)
	}
}

func TestInjectorAbortsAfterSeqConsumed(t *testing.T) {
	secret := []byte("s")
	d := &fakeDriver{}
	l, _ := New(secret, d)
	boom := errors.New("control channel down")
	l.SetInjector(func(Command) error { return boom })

	sealed := seal(t, secret, Command{Seq: 1, Action: ActionPowerOn, OSID: "UB16"})
	if err := l.Execute(sealed); !errors.Is(err, boom) {
		t.Errorf("err = %v, want injected fault", err)
	}
	if len(d.onCalls) != 0 {
		t.Error("driver acted despite injected fault")
	}
	// The sequence number was consumed — like a real LTU that acknowledged
	// the order and then failed to carry it out — so a retry of the same
	// sealed command is a replay.
	if err := l.Execute(sealed); !errors.Is(err, ErrReplay) {
		t.Errorf("retry err = %v, want ErrReplay", err)
	}
	// Clearing the injector restores service at the next sequence number.
	l.SetInjector(nil)
	if err := l.Execute(seal(t, secret, Command{Seq: 2, Action: ActionPowerOn, OSID: "UB16"})); err != nil {
		t.Fatal(err)
	}
	if len(d.onCalls) != 1 {
		t.Errorf("driver calls after recovery: %v", d.onCalls)
	}
}
