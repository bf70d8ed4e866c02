// Package lincheck decides whether a recorded history of reads and writes
// on a set of registers is linearizable: whether every operation can be
// given one instant between its call and its return such that each read
// returns the value of the latest write before it. Registers are
// independent, so the history is checked one key at a time (Herlihy and
// Wing's locality), each by the Wing–Gong search with Lowe's memoization
// of (linearized set, register value) pairs already ruled out.
//
// Times are whatever the recorder orders calls and returns by — a shared
// counter bumped at every call and every return will do — and must be
// distinct. An operation that never returned (a write whose client gave
// up, say) has Return Pending: it may have taken effect at any instant
// after its call, or never.
package lincheck

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"
)

// Pending is the Return of an operation that never returned.
const Pending = math.MaxInt64

// Op is one operation of a history.
type Op struct {
	// Client names who ran it, for the report.
	Client int
	// Key names the register.
	Key string
	// Write marks a write of Value; otherwise the operation is a read
	// that returned Value.
	Write bool
	Value string
	// Call and Return order the operation against the others.
	Call, Return int64
}

func (o Op) String() string {
	verb := "read"
	if o.Write {
		verb = "write"
	}
	ret := fmt.Sprint(o.Return)
	if o.Return == Pending {
		ret = "pending"
	}
	return fmt.Sprintf("client %d %s %q [%d, %s]", o.Client, verb, o.Value, o.Call, ret)
}

// maxListed caps the operations an error lists.
const maxListed = 8

// Check reports whether the history is linearizable, every register
// starting at initial. A read that never returned tells nothing and is
// ignored. The error names the first key, in order, whose operations
// cannot be linearized, and where the longest partial linearization found
// stopped: the operations it left that could have come next, in call
// order — among them is one no order can place there.
func Check(history []Op, initial string) error {
	byKey := make(map[string][]Op)
	for _, op := range history {
		if op.Return < op.Call {
			return fmt.Errorf("lincheck: %v returns before its call", op)
		}
		if !op.Write && op.Return == Pending {
			continue
		}
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ops := byKey[k]
		ok, placed, stuck := linearizable(ops, initial)
		if ok {
			continue
		}
		var b strings.Builder
		for i, op := range stuck {
			if i == maxListed {
				fmt.Fprintf(&b, "\n\t... and %d more", len(stuck)-i)
				break
			}
			fmt.Fprintf(&b, "\n\t%v", op)
		}
		return fmt.Errorf("lincheck: key %q: no linearization of its %d operations places more than %d; "+
			"the register held %q, and could go on with:%s", k, len(ops), placed.n, placed.value, b.String())
	}
	return nil
}

// frontier is where a partial linearization stopped: how many operations
// it placed and the register's value then.
type frontier struct {
	n     int
	value string
}

// linearizable searches for a linearization of one register's operations.
// An operation may come next only if it was called before every operation
// not yet placed returned; a read must return the register's value. The
// search is done when every returned operation is placed: pending writes
// may stay out. When there is none, it returns the deepest partial
// linearization it reached and the operations that could have come next
// there.
func linearizable(ops []Op, initial string) (bool, frontier, []Op) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })
	returned := 0
	for _, op := range ops {
		if op.Return != Pending {
			returned++
		}
	}
	placed := new(big.Int)
	ruledOut := make(map[string]bool)
	deepest, deepestSet := frontier{n: -1}, new(big.Int)
	// candidates lists the unplaced operations that may come next.
	candidates := func(visit func(i int) bool) {
		first := int64(Pending)
		for i, op := range ops {
			if placed.Bit(i) == 0 && op.Return < first {
				first = op.Return
			}
		}
		for i, op := range ops {
			if op.Call > first {
				return
			}
			if placed.Bit(i) == 0 && visit(i) {
				return
			}
		}
	}
	var search func(value string, n, left int) bool
	search = func(value string, n, left int) bool {
		if left == 0 {
			return true
		}
		if n > deepest.n {
			deepest = frontier{n: n, value: value}
			deepestSet.Set(placed)
		}
		set := placed.Bytes()
		state := strconv.Itoa(len(set)) + ":" + string(set) + value
		if ruledOut[state] {
			return false
		}
		found := false
		candidates(func(i int) bool {
			op := ops[i]
			if !op.Write && op.Value != value {
				return false
			}
			next, done := value, 0
			if op.Write {
				next = op.Value
			}
			if op.Return != Pending {
				done = 1
			}
			placed.SetBit(placed, i, 1)
			found = search(next, n+1, left-done)
			placed.SetBit(placed, i, 0)
			return found
		})
		if !found {
			ruledOut[state] = true
		}
		return found
	}
	if search(initial, 0, returned) {
		return true, frontier{}, nil
	}
	placed.Set(deepestSet)
	var stuck []Op
	candidates(func(i int) bool {
		stuck = append(stuck, ops[i])
		return false
	})
	return false, deepest, stuck
}
