package offline

import (
	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/slice"
)

// ControlGeneral solves off-line predicate control for an arbitrary
// global predicate b, the way the paper's Theorem 1 equivalence suggests:
// find a satisfying global sequence and emit a control relation that
// only allows that sequence.
//
// When b is in the regular fragment the sequence is found on b's
// computation slice instead of the raw lattice: a satisfying single-step
// sequence exists iff the slice spans ⊥ to ⊤ and every meta-event covers
// its predecessor ideal by exactly one local state, in which case any
// linear extension of the meta-events *is* the sequence — polynomial,
// no search (slice.SingleStepChain). Non-regular predicates fall back to
// the exhaustive SGSD search, which is NP-complete (Lemma 1) and
// exponential in the worst case — that is the point of the complexity
// separation reproduced in the benchmarks; use Control for disjunctive
// predicates.
//
// The search uses single-step (interleaving) sequences: added causality
// cannot force two processes to advance at the same instant, so
// sequences that need simultaneous steps are not enforceable by any
// control strategy.
//
// The emitted relation forces the sequence: for each step that advances
// process p to G'[p], every other process q must have reached its
// position G[q] at the preceding step, expressed as "q exited G[q]−1
// before p enters G'[p]" (omitted when G[q] = ⊥ or the edge is already
// implied). Consistent cuts of the controlled computation are then
// exactly the sequence's cuts, all of which satisfy b.
func ControlGeneral(d *deposet.Deposet, b predicate.Expr) (control.Relation, deposet.Sequence, error) {
	if tab, ok := predicate.RegularTable(b, d); ok {
		if seq, found, decided := slice.Compute(d, tab).SingleStepChain(); decided {
			if !found {
				return nil, nil, ErrInfeasible
			}
			return enforceSequence(d, seq), seq, nil
		}
	}
	seq, _, err := detect.SGSD(d, b, false)
	if err != nil {
		return nil, nil, err
	}
	if seq == nil {
		return nil, nil, ErrInfeasible
	}
	return enforceSequence(d, seq), seq, nil
}

// enforceSequence emits a control relation whose controlled computation
// admits exactly the given single-step global sequence (and stutters of
// it). The sequence must be valid for d.
func enforceSequence(d *deposet.Deposet, seq deposet.Sequence) control.Relation {
	var rel control.Relation
	// latest[q] tracks the highest G[q]−1 already used as a From for each
	// (q, p) pair, to skip implied edges.
	type pair struct{ q, p int }
	latest := map[pair]int{}
	for step := 1; step < len(seq); step++ {
		g, h := seq[step-1], seq[step]
		for p := range h {
			if h[p] == g[p] {
				continue
			}
			to := deposet.StateID{P: p, K: h[p]}
			for q := range g {
				if q == p || g[q] == 0 {
					continue
				}
				from := deposet.StateID{P: q, K: g[q] - 1}
				// A later To with the same or smaller From is implied by
				// process order; only emit when From advanced.
				if prev, ok := latest[pair{q, p}]; ok && prev >= from.K {
					continue
				}
				latest[pair{q, p}] = from.K
				rel = append(rel, control.Edge{From: from, To: to})
			}
		}
	}
	return rel
}
