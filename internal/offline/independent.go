package offline

import (
	"errors"
	"fmt"
	"math/rand"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// ErrNotIndependent is returned by ControlCNF when the per-clause
// controllers cannot be combined: some pair of clauses forces
// contradictory orderings, i.e. the computation violates the
// mutual-separation restriction under which the class is controllable.
var ErrNotIndependent = errors.New("offline: clause controllers conflict (intervals not mutually separated)")

// ControlCNF extends off-line control beyond single disjunctions to the
// locally independent class the paper's conclusion announces as follow-up
// work: predicates B = C1 ∧ C2 ∧ … ∧ Cm where every clause Cj is
// disjunctive (l₁ ∨ … over a subset of processes). This covers, e.g.,
// several simultaneous two-process mutual exclusions — "more general
// forms of 2-process mutual exclusion" — which no single disjunction can
// express.
//
// Each clause is controlled independently with Control; since the chain
// argument is static (extra causality only removes global states), the
// union of the clause relations satisfies every clause — provided the
// union itself does not interfere with the computation. That is exactly
// the paper's "mutually separated intervals" restriction, and it is
// *checked*, not assumed: on interference the function retries the
// clauses under randomized selection a few times and then reports
// ErrNotIndependent.
//
// Soundness of the infeasibility verdict is inherited: if any single
// clause is infeasible, B is infeasible.
func ControlCNF(d *deposet.Deposet, clauses []*predicate.Disjunction, opts Options) (*Result, error) {
	if len(clauses) == 0 {
		return &Result{}, nil
	}
	combine := func(o Options) (*Result, error) {
		total := &Result{}
		seen := map[control.Edge]bool{}
		for i, c := range clauses {
			res, err := Control(d, c, o)
			if err != nil {
				return res, fmt.Errorf("clause %d (%v): %w", i, c, err)
			}
			total.Iterations += res.Iterations
			total.Fallback = total.Fallback || res.Fallback
			for _, e := range res.Relation {
				if !seen[e] {
					seen[e] = true
					total.Relation = append(total.Relation, e)
				}
			}
		}
		if err := control.Check(d, total.Relation); err != nil {
			return nil, err
		}
		return total, nil
	}
	res, err := combine(opts)
	if err == nil {
		return res, nil
	}
	if errors.Is(err, ErrInfeasible) {
		return res, err
	}
	// Interference between clause chains: retry under different
	// randomized selections before giving up.
	for attempt := int64(1); attempt <= 8; attempt++ {
		o := opts
		o.Rand = newAttemptRand(attempt)
		res, err = combine(o)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, ErrInfeasible) {
			return res, err
		}
	}
	return nil, ErrNotIndependent
}

// newAttemptRand builds the deterministic retry source for attempt i.
func newAttemptRand(i int64) *rand.Rand {
	return rand.New(rand.NewSource(0x1db7 * (i + 1)))
}
