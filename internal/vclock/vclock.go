// Package vclock implements vector clocks over local state indices.
//
// A vector clock V for a local state s records, for every process q, the
// largest state index j such that state (q, j) causally precedes or equals
// s. Indices are 0-based; the sentinel -1 means "no state of q precedes s".
// This convention makes the happened-before test on states an O(1)
// comparison, which the predicate-control algorithms rely on.
//
// Components are int32: state indices are bounded far below 2³¹ in
// practice, and the narrower type halves the footprint of the clock rows
// a whole computation stores (deposet.Order keeps one per state that a
// receive or control edge enters).
package vclock

import (
	"fmt"
	"strings"
)

// None is the component value meaning "no state of that process is known".
const None = -1

// VC is a vector clock with one component per process. A VC may own its
// storage (New) or alias one stored row of a computation's clocks.
type VC []int32

// New returns a vector clock of n components, all None.
func New(n int) VC {
	v := make(VC, n)
	for i := range v {
		v[i] = None
	}
	return v
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	w := make(VC, len(v))
	copy(w, v)
	return w
}

// Merge sets v to the component-wise maximum of v and o.
// The two clocks must have the same length.
func (v VC) Merge(o VC) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: merge length mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// MergeLowered merges o into v with o's component q replaced by lowered —
// the "exit-event" merge of controlled computations (reaching the target
// implies q's state lowered was passed, not o[q]) — without materializing
// a modified copy of o.
func (v VC) MergeLowered(o VC, q int, lowered int32) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("vclock: merge length mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		if i == q {
			x = lowered
		}
		if x > v[i] {
			v[i] = x
		}
	}
}

// String renders the clock as [a b c], with None shown as "-".
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		if x == None {
			b.WriteByte('-')
		} else {
			fmt.Fprintf(&b, "%d", x)
		}
	}
	b.WriteByte(']')
	return b.String()
}
