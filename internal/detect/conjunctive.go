// Package detect implements the predicate-detection algorithms the
// active-debugging cycle relies on (paper §§1–2, 4, 7). Each question
// has one entry point:
//
//   - possibly — does some consistent global state satisfy B?
//     PossiblyConjunctive for a conjunction q1 ∧ … ∧ qn (Garg–Waldecker),
//     PossiblyGeneral for any predicate. Detecting a *bug* "all servers
//     unavailable" is possibly(∧ ¬availᵢ).
//   - definitely — does every global sequence pass through a B-state?
//     DefinitelyConjunctive: the interval-overlap condition of the
//     paper's Lemma 2; with qᵢ = ¬lᵢ it decides infeasibility of
//     disjunctive control.
//   - every violating cut — AllViolations.
//   - a satisfying global sequence — SGSD (§4; NP-complete by Lemma 1).
//
// A general predicate in the regular fragment (predicate.RegularTable
// factors it) is decided in polynomial time: PossiblyGeneral on its
// per-process table, AllViolations on ¬B's computation slice. The rest
// walk the lattice, which is exponential; AllViolationsExhaustive is
// that walk, and the tests' oracle. PossiblyTruth, DefinitelyTruth and
// Overlaps (view.go) are the kernels, stated over any causal view so the
// controlled computation runs them too.
package detect

import (
	"predctl/internal/deposet"
	"predctl/internal/predicate"
	"predctl/internal/slice"
)

// PossiblyConjunctive reports whether some consistent global state of d
// satisfies the conjunction cj, returning a witness cut if so. It runs
// the Garg–Waldecker weak-conjunctive-predicate algorithm: keep one
// candidate state per process (the earliest state satisfying that
// process's conjunct) and, whenever two candidates are causally ordered,
// advance the earlier one — it can never be part of a consistent cut with
// the later one or any of its successors. Time O(n²·S) for S total
// states; no lattice enumeration.
func PossiblyConjunctive(d *deposet.Deposet, cj *predicate.Conjunction) (deposet.Cut, bool) {
	return PossiblyTruth(d, func(p, k int) bool { return cj.Holds(d, p, k) })
}

// DefinitelyConjunctive reports whether every global sequence of d passes
// through a state satisfying cj, returning a witness overlapping interval
// set if so (one qᵢ-interval per process, pairwise satisfying Overlaps in
// both directions — the paper's overlap predicate, Lemma 2).
//
// The algorithm mirrors the off-line control loop: keep a frontier
// interval per process and, when a pair (i, j) falsifies the overlap
// clause, advance j — interval Iⱼ can never overlap the current or any
// later interval of i, because interval starts only move causally later.
func DefinitelyConjunctive(d *deposet.Deposet, cj *predicate.Conjunction) ([]deposet.Interval, bool) {
	return DefinitelyTruth(d, func(p, k int) bool { return cj.Holds(d, p, k) })
}

// PossiblyGeneral reports whether some consistent global state satisfies
// an arbitrary predicate. Predicates in the regular fragment factor into
// a per-process truth table (predicate.RegularTable) and run the
// Garg–Waldecker fixpoint — polynomial, and the witness it finds is the
// satisfying set's unique least cut, the same cut the exhaustive
// breadth-first walk reports first. Everything else walks the lattice
// breadth-first (exponential in n) and reports the first satisfying cut.
func PossiblyGeneral(d *deposet.Deposet, b predicate.Expr) (deposet.Cut, bool) {
	if tab, ok := predicate.RegularTable(b, d); ok {
		return PossiblyTruth(d, tab.Holds)
	}
	return possiblyExhaustive(d, b)
}

// AllViolations returns every consistent global state where b is false —
// the debugging view "where can the bug occur?" (paper §7 finds the cuts
// G and H this way) — and how the enumeration ran. When ¬b is in the
// regular fragment the violations are exactly the cuts of ¬b's slice
// (internal/slice), enumerated without touching the rest of the lattice
// and returned in (depth, lexicographic) order; otherwise the full
// lattice is walked (exponential; see AllViolationsExhaustive) in BFS
// discovery order.
func AllViolations(d *deposet.Deposet, b predicate.Expr) ([]deposet.Cut, EnumStats) {
	if tab, ok := predicate.RegularTable(predicate.Not(b), d); ok {
		sl := slice.Compute(d, tab)
		cuts := sl.Cuts()
		return cuts, EnumStats{Sliced: true, MetaEvents: sl.Stats().MetaEvents, StatesExplored: len(cuts)}
	}
	cuts, explored := AllViolationsExhaustive(d, b)
	return cuts, EnumStats{StatesExplored: explored}
}
