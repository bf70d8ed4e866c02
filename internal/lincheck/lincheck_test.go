package lincheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func w(client int, key, value string, call, ret int64) Op {
	return Op{Client: client, Key: key, Write: true, Value: value, Call: call, Return: ret}
}

func r(client int, key, value string, call, ret int64) Op {
	return Op{Client: client, Key: key, Value: value, Call: call, Return: ret}
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		ok   bool
	}{
		{"empty", nil, true},
		{"read of the initial value", []Op{r(0, "k", "", 1, 2)}, true},
		{"read of a value never written", []Op{r(0, "k", "x", 1, 2)}, false},
		{"sequential write then read", []Op{w(0, "k", "a", 1, 2), r(1, "k", "a", 3, 4)}, true},
		{"stale read after a write returned", []Op{w(0, "k", "a", 1, 2), r(1, "k", "", 3, 4)}, false},
		{"read concurrent with the write, either value", []Op{
			w(0, "k", "a", 1, 4), r(1, "k", "", 2, 5), r(2, "k", "a", 3, 6)}, true},
		{"new value then old value, one after the other", []Op{
			w(0, "k", "a", 1, 10), r(1, "k", "a", 2, 3), r(1, "k", "", 4, 5)}, false},
		{"two writers, readers see one order", []Op{
			w(0, "k", "a", 1, 6), w(1, "k", "b", 2, 7), r(2, "k", "b", 3, 4), r(2, "k", "a", 8, 9)}, true},
		{"two writers, readers disagree on the order", []Op{
			w(0, "k", "a", 1, 10), w(1, "k", "b", 2, 11),
			r(2, "k", "a", 3, 4), r(2, "k", "b", 5, 6),
			r(3, "k", "b", 3, 4), r(3, "k", "a", 7, 8)}, false},
		{"pending write may take effect", []Op{w(0, "k", "a", 1, Pending), r(1, "k", "a", 2, 3)}, true},
		{"pending write may never take effect", []Op{w(0, "k", "a", 1, Pending), r(1, "k", "", 2, 3)}, true},
		{"pending write cannot take effect twice", []Op{
			w(0, "k", "a", 1, Pending), w(1, "k", "b", 2, 3),
			r(1, "k", "a", 4, 5), r(1, "k", "b", 6, 7)}, false},
		{"pending read tells nothing", []Op{w(0, "k", "a", 1, 2), r(1, "k", "zz", 3, Pending)}, true},
		{"keys are independent", []Op{w(0, "k", "a", 1, 2), r(1, "j", "", 3, 4), r(1, "k", "a", 5, 6)}, true},
	} {
		err := Check(tc.ops, "")
		if (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want linearizable %v", tc.name, err, tc.ok)
		}
	}
}

func TestCheckNamesTheKey(t *testing.T) {
	err := Check([]Op{w(0, "a", "1", 1, 2), w(0, "b", "1", 3, 4), r(1, "b", "", 5, 6)}, "")
	if err == nil || !strings.Contains(err.Error(), `key "b"`) {
		t.Fatalf("Check = %v, want it to name key b", err)
	}
	if err := Check([]Op{r(0, "k", "", 5, 4)}, ""); err == nil {
		t.Fatal("an operation returning before its call was accepted")
	}
}

// TestCheckRandomHistories builds histories by executing operations on a
// register at random instants inside their intervals, which are
// linearizable by construction, and checks that Check accepts each, and
// rejects it once one read returns a value never written.
func TestCheckRandomHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var ops []Op
		value := ""
		// Each client runs operations one after another; the register
		// changes at the linearization point, which lies in the interval.
		type open struct {
			op    Op
			point int64
		}
		clients := 1 + rng.Intn(4)
		var events []open
		now := make([]int64, clients)
		for c := 0; c < clients; c++ {
			for i := 0; i < 1+rng.Intn(6); i++ {
				call := now[c] + 1 + int64(rng.Intn(5))
				ret := call + 1 + int64(rng.Intn(8))
				events = append(events, open{Op{Client: c, Key: "k", Write: rng.Intn(2) == 0,
					Call: call*100 + int64(c), Return: ret*100 + int64(c)}, 0})
				now[c] = ret
			}
		}
		// Linearization points, distinct and inside the intervals.
		for i := range events {
			e := &events[i]
			e.point = e.op.Call + 1 + rng.Int63n(e.op.Return-e.op.Call-1)
			e.point = e.point*10 + int64(i%10)
		}
		order := make([]int, len(events))
		for i := range order {
			order[i] = i
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && events[order[j]].point < events[order[j-1]].point; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for n, i := range order {
			e := &events[i]
			if e.op.Write {
				value = fmt.Sprintf("v%d-%d", round, n)
				e.op.Value = value
			} else {
				e.op.Value = value
			}
		}
		for _, e := range events {
			ops = append(ops, e.op)
		}
		if err := Check(ops, ""); err != nil {
			t.Fatalf("round %d: linearizable history rejected: %v", round, err)
		}
		for i := range ops {
			if !ops[i].Write {
				ops[i].Value = "never written"
				if Check(ops, "") == nil {
					t.Fatalf("round %d: read of a value never written accepted", round)
				}
				break
			}
		}
	}
}
