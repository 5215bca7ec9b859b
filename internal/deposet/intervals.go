package deposet

import "fmt"

// Interval is a maximal run of consecutive states of one process on which
// some local condition has one truth value (where it is false, a
// "false-interval" in the paper's terminology, written I with endpoints
// I.lo and I.hi). Lo and Hi are inclusive state indices; Lo == Hi is a
// single-state interval.
type Interval struct {
	P  int
	Lo int
	Hi int
}

func (iv Interval) String() string { return fmt.Sprintf("P%d[%d..%d]", iv.P, iv.Lo, iv.Hi) }

// LoState and HiState return the endpoint states I.lo and I.hi.
func (iv Interval) LoState() StateID { return StateID{iv.P, iv.Lo} }
func (iv Interval) HiState() StateID { return StateID{iv.P, iv.Hi} }

// Contains reports whether state index k lies in the interval.
func (iv Interval) Contains(k int) bool { return iv.Lo <= k && k <= iv.Hi }

// TruthIntervals returns the maximal runs of consecutive states of
// process p on which holds is true, in increasing order. It is the one
// interval scan: a local predicate's false-intervals are the runs of its
// negation.
func TruthIntervals(v View, p int, holds func(p, k int) bool) []Interval {
	var ivs []Interval
	m := v.Len(p)
	for k := 0; k < m; {
		if !holds(p, k) {
			k++
			continue
		}
		lo := k
		for k < m && holds(p, k) {
			k++
		}
		ivs = append(ivs, Interval{P: p, Lo: lo, Hi: k - 1})
	}
	return ivs
}
