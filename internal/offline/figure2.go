package offline

import (
	"fmt"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
)

// ControlFigure2 is a literal transcription of the paper's Figure 2
// pseudocode (modulo the boundary-adjacent reading of crossable; see
// detect.Overlaps). It is kept alongside the default engine for fidelity
// and for the complexity ablation, but it is NOT the default, because
// property-based testing against an exhaustive oracle exposed a gap the
// conference pseudocode (whose correctness proof lives in the companion
// technical report) does not address: the chain tuple ⟨g[k′], next(k)⟩
// emitted by AddControl can itself be unrealizable — entering k′'s true
// segment may be causally forced after k enters its next false-interval
// (e.g. when the message that releases k′ is sent from deep inside k's
// false-interval). Under randomized pair selection this produces an
// interfering — i.e. deadlocking — control relation; and filtering
// ValidPairs by the handoff condition instead makes the greedy
// incomplete (it can declare feasible instances infeasible).
//
// Control (offline.go) closes the gap by building the chain along an
// explicit linearization, which makes interference impossible by
// construction. ControlFigure2 uses deterministic first-pair selection
// by default, under which no counterexample is currently known; callers
// should still validate its output with control.Extend.
func ControlFigure2(d *deposet.Deposet, dj *predicate.Disjunction, opts Options) (*Result, error) {
	if dj.NumProcs() != d.NumProcs() {
		return nil, fmt.Errorf("offline: predicate ranges over %d processes, computation has %d",
			dj.NumProcs(), d.NumProcs())
	}
	st := newLoopState(d, dj)
	res := &Result{}

	k := -1 // previous responsible (true) process; -1 until first iteration
	addControl := func(kPrime int) {
		switch {
		case st.g[kPrime] == 0 && st.bottomTrue(kPrime):
			res.Relation = res.Relation[:0] // chain restarts at ⊥ of kPrime
		case k != kPrime:
			if k < 0 {
				panic("offline: chain edge requested before any responsibility was taken")
			}
			res.Relation = append(res.Relation, control.Edge{
				From: deposet.StateID{P: kPrime, K: st.g[kPrime]},
				To:   st.next(k),
			})
		}
	}

	for st.allHaveIntervals() {
		kPrime, l, ok := st.selectPair(opts)
		if !ok {
			res.Witness = st.frontier()
			return res, ErrInfeasible
		}
		addControl(kPrime)
		st.cross(l)
		k = kPrime
		res.Iterations++
	}
	// Some process ran out of false-intervals: close the chain at its ⊤.
	for p := 0; p < st.n; p++ {
		if st.ptr[p] == len(st.ivs[p]) {
			addControl(p)
			break
		}
	}
	return res, nil
}

// loopState is the walking frontier of Figure 2: per process, the list of
// false-intervals, a pointer to the next uncrossed interval N(i), and the
// current interest state g[i]. The crossability matrix is maintained
// incrementally: when an interval is crossed, only the 2(n−1) pairs
// involving that process are re-evaluated.
type loopState struct {
	d   *deposet.Deposet
	n   int
	ivs [][]deposet.Interval
	ptr []int // index of N(p) in ivs[p]; len(ivs[p]) when exhausted
	g   []int // current interest state index of p

	cross2   [][]bool // cross2[i][j]: crossable(N(i), N(j)), i ≠ j
	outCount []int    // number of j with cross2[i][j]
}

func newLoopState(d *deposet.Deposet, dj *predicate.Disjunction) *loopState {
	n := d.NumProcs()
	st := &loopState{
		d:        d,
		n:        n,
		ptr:      make([]int, n),
		g:        make([]int, n),
		cross2:   make([][]bool, n),
		outCount: make([]int, n),
	}
	_, st.ivs = falseIntervals(d, dj)
	for p := 0; p < n; p++ {
		st.cross2[p] = make([]bool, n)
	}
	for p := 0; p < n; p++ {
		st.refreshPairs(p)
	}
	return st
}

func (st *loopState) allHaveIntervals() bool {
	for p := 0; p < st.n; p++ {
		if st.ptr[p] == len(st.ivs[p]) {
			return false
		}
	}
	return true
}

// isFalse reports the paper's false(i): g[i] sits at the lo of N(i),
// about to cross it.
func (st *loopState) isFalse(p int) bool {
	return st.ptr[p] < len(st.ivs[p]) && st.g[p] == st.ivs[p][st.ptr[p]].Lo
}

// bottomTrue reports whether the local predicate holds at ⊥p.
func (st *loopState) bottomTrue(p int) bool {
	return len(st.ivs[p]) == 0 || st.ivs[p][0].Lo != 0
}

// next is the paper's next(i): the interest state after g[i].
func (st *loopState) next(p int) deposet.StateID {
	if st.ptr[p] == len(st.ivs[p]) {
		return st.d.Top(p)
	}
	iv := st.ivs[p][st.ptr[p]]
	if st.isFalse(p) {
		return deposet.StateID{P: p, K: iv.Hi}
	}
	return deposet.StateID{P: p, K: iv.Lo}
}

// crossable is the paper's crossable(N(i), N(j)): N(j) can be fully
// crossed before N(i) is entered iff entering N(i) is not forced by
// exiting N(j) — the negation of Lemma 2's overlap clause, in the
// boundary-adjacent causal reading detect.Overlaps documents.
func (st *loopState) crossable(i, j int) bool {
	return !detect.Overlaps(st.d, st.ivs[i][st.ptr[i]], st.ivs[j][st.ptr[j]])
}

// refreshPairs recomputes the crossability of every pair involving p
// (2(n−1) clauses), after N(p) changed. O(n).
func (st *loopState) refreshPairs(p int) {
	pDone := st.ptr[p] == len(st.ivs[p])
	for q := 0; q < st.n; q++ {
		if q == p {
			continue
		}
		qDone := st.ptr[q] == len(st.ivs[q])
		set := func(i, j int, v bool) {
			if st.cross2[i][j] != v {
				st.cross2[i][j] = v
				if v {
					st.outCount[i]++
				} else {
					st.outCount[i]--
				}
			}
		}
		if pDone || qDone {
			set(p, q, false)
			set(q, p, false)
			continue
		}
		set(p, q, st.crossable(p, q))
		set(q, p, st.crossable(q, p))
	}
}

// selectPair picks ⟨k′, l⟩ from ValidPairs = {⟨i,j⟩ : true(i) ∧
// crossable(N(i), N(j))}, or reports none exists. The incremental path
// is O(n) plus O(n) to locate the partner; Naive re-derives every
// clause, O(n²), with the same result.
func (st *loopState) selectPair(opts Options) (kPrime, l int, ok bool) {
	if opts.Naive || opts.Rand != nil {
		var pairs [][2]int
		for i := 0; i < st.n; i++ {
			if st.isFalse(i) {
				continue
			}
			for j := 0; j < st.n; j++ {
				if i == j {
					continue
				}
				c := st.cross2[i][j]
				if opts.Naive {
					c = st.crossable(i, j)
				}
				if c {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if len(pairs) == 0 {
			return 0, 0, false
		}
		choice := pairs[0]
		if opts.Rand != nil {
			choice = pairs[opts.Rand.Intn(len(pairs))]
		}
		return choice[0], choice[1], true
	}
	for i := 0; i < st.n; i++ {
		if st.isFalse(i) || st.outCount[i] == 0 {
			continue
		}
		for j := 0; j < st.n; j++ {
			if i != j && st.cross2[i][j] {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// cross executes lines L6–L9: cross N(l) — setting t := N(l).hi — and
// advance every other process through its interest states as far as the
// crossing forces: g[i] moves to next(i) while next(i) → t ("reaching t
// implies next(i) was exited"; paper line L8). Advancing past an
// interval's hi marks it crossed.
func (st *loopState) cross(l int) {
	t := deposet.StateID{P: l, K: st.ivs[l][st.ptr[l]].Hi}
	st.g[l] = t.K
	st.ptr[l]++
	st.refreshPairs(l)
	for i := 0; i < st.n; i++ {
		if i == l {
			continue
		}
		moved := false
		for st.ptr[i] < len(st.ivs[i]) {
			nx := st.next(i)
			if !st.d.HB(nx, t) {
				break
			}
			if st.isFalse(i) {
				st.ptr[i]++ // interval crossed
				moved = true
			}
			st.g[i] = nx.K
		}
		if moved {
			st.refreshPairs(i)
		}
	}
}

// frontier returns the current N(i) of every process (the infeasibility
// witness). All processes have one when called from the main loop.
func (st *loopState) frontier() []deposet.Interval {
	w := make([]deposet.Interval, st.n)
	for p := 0; p < st.n; p++ {
		w[p] = st.ivs[p][st.ptr[p]]
	}
	return w
}
