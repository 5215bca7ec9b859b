package detect

import "predctl/internal/deposet"

// HoldsFn gives the truth of a per-process local condition at state (p, k).
type HoldsFn func(p, k int) bool

// PossiblyTruth is PossiblyConjunctive generalized over any causal view
// (plain or controlled computation) with the conjuncts given as a truth
// function. Processes are "constant true" wherever holds returns true.
func PossiblyTruth(v deposet.View, holds HoldsFn) (deposet.Cut, bool) {
	n := v.NumProcs()
	cur := make(deposet.Cut, n)
	seek := func(p int) bool {
		for cur[p] < v.Len(p) && !holds(p, cur[p]) {
			cur[p]++
		}
		return cur[p] < v.Len(p)
	}
	for p := 0; p < n; p++ {
		if !seek(p) {
			return nil, false
		}
	}
	for {
		advanced := false
		for i := 0; i < n && !advanced; i++ {
			si := deposet.StateID{P: i, K: cur[i]}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if v.HB(si, deposet.StateID{P: j, K: cur[j]}) {
					cur[i]++
					if !seek(i) {
						return nil, false
					}
					advanced = true
					break
				}
			}
		}
		if !advanced {
			return cur, true
		}
	}
}

// Overlaps evaluates, on any causal view, the paper's overlap clause for
// the ordered pair of intervals (Iᵢ, Iⱼ): "Iⱼ cannot be exited before Iᵢ
// is entered". In the state-causality convention used here (s → t means
// "t reached implies s exited"), the clause is
//
//	Iᵢ.lo = ⊥ᵢ  ∨  Iⱼ.hi = ⊤ⱼ  ∨  (i, lo_i−1) → (j, hi_j+1).
//
// Note the boundary-adjacent states: entering Iᵢ means exiting the state
// before its lo, and exiting Iⱼ means reaching the state after its hi.
// Reading the paper's "Iᵢ.lo → Iⱼ.hi" literally on the interval endpoint
// states is subtly incomplete: a message sent from the state just before
// lo_i and received just after hi_j forces the overlap but relates
// (lo_i−1) to (hi_j+1), not lo_i to hi_j. See overlap_test.go for a
// concrete computation distinguishing the two readings.
func Overlaps(v deposet.View, ii, ij deposet.Interval) bool {
	if ii.Lo == 0 || ij.Hi == v.Len(ij.P)-1 {
		return true
	}
	return v.HB(deposet.StateID{P: ii.P, K: ii.Lo - 1}, deposet.StateID{P: ij.P, K: ij.Hi + 1})
}

// DefinitelyTruth is DefinitelyConjunctive generalized over any causal
// view with the conjuncts given as a truth function.
func DefinitelyTruth(v deposet.View, holds HoldsFn) ([]deposet.Interval, bool) {
	n := v.NumProcs()
	ivs := make([][]deposet.Interval, n)
	for p := 0; p < n; p++ {
		ivs[p] = deposet.TruthIntervals(v, p, holds)
		if len(ivs[p]) == 0 {
			return nil, false
		}
	}
	cur := make([]int, n)
	for {
		advanced := false
	pairs:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || Overlaps(v, ivs[i][cur[i]], ivs[j][cur[j]]) {
					continue
				}
				cur[j]++
				if cur[j] == len(ivs[j]) {
					return nil, false
				}
				advanced = true
				break pairs
			}
		}
		if !advanced {
			witness := make([]deposet.Interval, n)
			for p := 0; p < n; p++ {
				witness[p] = ivs[p][cur[p]]
			}
			return witness, true
		}
	}
}
