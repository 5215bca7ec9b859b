package detect

import (
	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// The exhaustive lattice walks: the route for predicates outside the
// regular fragment, and AllViolationsExhaustive also the oracle the
// slice path is tested against.

// EnumStats reports how a violation enumeration ran: whether the regular
// fragment admitted slicing, and how much of the cut space was touched.
type EnumStats struct {
	// Sliced is true when the predicate (negated, for violation queries)
	// was in the regular fragment and detection ran on the slice.
	Sliced bool
	// MetaEvents is the number of join-irreducible meta-events of the
	// slice (0 on the exhaustive path).
	MetaEvents int
	// StatesExplored counts the consistent cuts the enumeration visited:
	// the slice's cuts — all of which are answers — on the sliced path,
	// the entire lattice on the exhaustive path.
	StatesExplored int
}

// AllViolationsExhaustive enumerates the full lattice regardless of the
// predicate's fragment — the cross-validation oracle for the sliced path
// (and AllViolations' route for non-regular predicates) — in BFS
// discovery order, also counting the cuts it visited: the lattice's
// size. The predicate is compiled to packed per-state truth bits up
// front so the per-cut evaluations are bit tests.
func AllViolationsExhaustive(d *deposet.Deposet, b predicate.Expr) (out []deposet.Cut, lattice int) {
	b = predicate.Compile(b, d)
	d.ForEachConsistentCut(func(g deposet.Cut) bool {
		lattice++
		if !b.Eval(d, g) {
			out = append(out, g.Clone())
		}
		return true
	})
	return out, lattice
}

// possiblyExhaustive is PossiblyGeneral's route for a predicate outside
// the regular fragment: the first satisfying cut in BFS order.
func possiblyExhaustive(d *deposet.Deposet, b predicate.Expr) (deposet.Cut, bool) {
	b = predicate.Compile(b, d)
	var witness deposet.Cut
	d.ForEachConsistentCut(func(g deposet.Cut) bool {
		if b.Eval(d, g) {
			witness = g.Clone()
			return false
		}
		return true
	})
	return witness, witness != nil
}
