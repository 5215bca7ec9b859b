package offline

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
)

// csDisjunction builds ¬cs_i ∨ ¬cs_j over n processes from explicit
// false-runs: a pairwise mutual exclusion clause.
func csClause(n, i, j int, truth [][]bool) *predicate.Disjunction {
	dj := predicate.NewDisjunction(n)
	ti, tj := truth[i], truth[j]
	dj.Add(i, "¬cs", func(_ *deposet.Deposet, k int) bool { return !ti[k] })
	dj.Add(j, "¬cs", func(_ *deposet.Deposet, k int) bool { return !tj[k] })
	return dj
}

func TestControlCNFTwoMutexes(t *testing.T) {
	// Three independent processes; cs occupancy in the middle of each.
	b := deposet.NewBuilder(3)
	for p := 0; p < 3; p++ {
		for e := 0; e < 4; e++ {
			b.Step(p)
		}
	}
	d := b.MustBuild()
	cs := [][]bool{
		{false, true, true, false, false},
		{false, true, true, false, false},
		{false, false, true, true, false},
	}
	clauses := []*predicate.Disjunction{
		csClause(3, 0, 1, cs),
		csClause(3, 1, 2, cs),
	}
	res, err := ControlCNF(d, clauses, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := control.Extend(d, res.Relation)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clauses {
		c := c
		if cut, bad := detect.PossiblyTruth(x, func(p, k int) bool {
			return !c.Holds(d, p, k)
		}); bad {
			t.Fatalf("clause %d violated at %v", i, cut)
		}
	}
	// Note: processes 0 and 2 are unrelated by any clause, yet their CS
	// periods may end up transitively ordered through the shared process
	// 1 (chain composition trades concurrency for safety), so no
	// concurrency assertion is made here; the relation size is the
	// quality metric.
	if len(res.Relation) > 4 {
		t.Errorf("relation unexpectedly large: %v", res.Relation)
	}
}

func TestControlCNFEmpty(t *testing.T) {
	res, err := ControlCNF(nil, nil, Options{})
	if err != nil || len(res.Relation) != 0 {
		t.Fatal("empty CNF should be a no-op")
	}
}

func TestControlCNFInfeasibleClause(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()
	clauses := []*predicate.Disjunction{predicate.NewDisjunction(2)} // constant false
	if _, err := ControlCNF(d, clauses, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

// Property: on random computations with random pairwise-mutex clauses,
// ControlCNF either produces a relation under which every clause holds
// at every consistent cut, or correctly reports infeasibility of some
// clause, or reports the independence restriction violated.
func TestControlCNFProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(2)
		d := deposet.Random(r, deposet.DefaultGen(n, 6+r.Intn(14)))
		truth := deposet.RandomTruth(r, d, 0.3) // cs occupancy, sparse
		var clauses []*predicate.Disjunction
		for c := 0; c < 2+r.Intn(2); c++ {
			i := r.Intn(n)
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			clauses = append(clauses, csClause(n, i, j, truth))
		}
		res, err := ControlCNF(d, clauses, Options{})
		switch {
		case errors.Is(err, ErrInfeasible):
			// At least one clause must be exhaustively infeasible.
			for _, c := range clauses {
				if seq, _, _ := detect.SGSD(d, c.Expr(), false); seq == nil {
					return true
				}
			}
			return false
		case errors.Is(err, ErrNotIndependent):
			return true // restriction violated; nothing further claimed
		case err != nil:
			return false
		}
		x, xerr := control.Extend(d, res.Relation)
		if xerr != nil {
			return false
		}
		for _, c := range clauses {
			c := c
			if _, bad := detect.PossiblyTruth(x, func(p, k int) bool {
				return !c.Holds(d, p, k)
			}); bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
