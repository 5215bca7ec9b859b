package detect

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// xorExpr builds a two-process XOR — the canonical non-regular predicate
// (neither it nor its negation factors per-process): its satisfying cut
// set is not closed under componentwise min/max.
func xorExpr(x, y predicate.Expr) predicate.Expr {
	return predicate.Or(
		predicate.And(x, predicate.Not(y)),
		predicate.And(predicate.Not(x), y),
	)
}

func sortCutsByKey(cuts []deposet.Cut) []string {
	keys := make([]string, len(cuts))
	for i, g := range cuts {
		keys[i] = g.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeySets(a, b []deposet.Cut) bool {
	ka, kb := sortCutsByKey(a), sortCutsByKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// Property (slicing cross-validation): for random small traces and
// regular predicates, the sliced dispatcher's answers equal the
// exhaustive lattice walk's — exact violation-set equality for
// AllViolations, with the disjunction passed as its expression or
// directly as the normal form, and identical Possibly verdict and
// witness.
func TestSlicedMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(14)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.3+0.5*r.Float64()))
		b := dj.Expr() // ¬b regular → violations of b are sliceable

		want, lattice := AllViolationsExhaustive(d, b)
		for _, form := range []struct {
			name string
			b    predicate.Expr
		}{{"Expr()", b}, {"*Disjunction", dj}} {
			got, stats := AllViolations(d, form.b)
			if !stats.Sliced {
				t.Logf("seed %d: ¬disjunction as %s did not slice", seed, form.name)
				return false
			}
			if !equalKeySets(got, want) {
				t.Logf("seed %d: as %s sliced %d violations, exhaustive %d", seed, form.name, len(got), len(want))
				return false
			}
			// The slice explores only its own cuts — never more than the
			// lattice the oracle walked.
			if stats.StatesExplored > lattice {
				t.Logf("seed %d: explored %d > lattice %d", seed, stats.StatesExplored, lattice)
				return false
			}
		}

		// Possibly on the regular side: same verdict, same (least) witness
		// — for the negated disjunction and for a conjunction passed
		// directly, which must reach the table path as its Expr() does.
		cj := conjFromTruth(deposet.RandomTruth(r, d, 0.5))
		if _, ok := predicate.RegularTable(cj, d); !ok {
			t.Logf("seed %d: *Conjunction not recognised as regular", seed)
			return false
		}
		for _, e := range []predicate.Expr{predicate.Not(b), predicate.Not(dj), cj} {
			wantCut, wantOK := possiblyExhaustive(d, e)
			gotCut, gotOK := PossiblyGeneral(d, e)
			if gotOK != wantOK || (wantOK && !gotCut.Equal(wantCut)) {
				t.Logf("seed %d: possibly(%v) %v,%v want %v,%v", seed, e, gotCut, gotOK, wantCut, wantOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Regression fixture: a non-regular predicate must refuse the slice path
// and fall back to the exhaustive walk — same answers, Sliced=false —
// while every regular shape on the same trace, the two normal forms
// passed directly included, does slice. PossiblyGeneral on it, in either
// polarity, reports the first satisfying cut of the breadth-first walk.
func TestNonRegularFallsBackExhaustive(t *testing.T) {
	d := line(t, 3, 3)
	b := xorExpr(localAfter(0, 1), localAfter(1, 1))
	for _, e := range []predicate.Expr{b, predicate.Not(b)} {
		if _, ok := predicate.RegularTable(e, d); ok {
			t.Fatalf("fixture %v must be non-regular", e)
		}
		viol, _ := AllViolationsExhaustive(d, predicate.Not(e))
		got, ok := PossiblyGeneral(d, e)
		if len(viol) == 0 || !ok || !got.Equal(viol[0]) {
			t.Fatalf("possibly(%v) = %v,%v; first cut of ¬(%v)'s violations %v", e, got, ok, e, viol)
		}
	}
	got, stats := AllViolations(d, b)
	if stats.Sliced {
		t.Fatal("non-regular predicate took the slice path")
	}
	if stats.MetaEvents != 0 {
		t.Fatal("exhaustive path reported meta-events")
	}
	want, _ := AllViolationsExhaustive(d, b)
	if len(got) != len(want) {
		t.Fatalf("fallback found %d violations, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("fallback order diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if stats.StatesExplored != d.CountConsistentCuts() {
		t.Fatalf("exhaustive path explored %d of %d lattice cuts",
			stats.StatesExplored, d.CountConsistentCuts())
	}

	after := func(_ *deposet.Deposet, k int) bool { return k >= 1 }
	dj := predicate.NewDisjunction(3).Add(0, "a", after).Add(1, "b", after)
	cj := predicate.NewConjunction(3).Add(0, "a", after).Add(1, "b", after)
	for _, tc := range []struct {
		name   string
		b      predicate.Expr
		sliced bool
	}{
		{"local", localAfter(0, 1), true},
		{"disjunction Expr()", dj.Expr(), true},
		{"*Disjunction", dj, true},
		{"¬conjunction Expr()", predicate.Not(cj.Expr()), true},
		{"¬*Conjunction", predicate.Not(cj), true},
		// A conjunction's violations are a disjunction's cut set: not
		// regular, in either spelling.
		{"conjunction Expr()", cj.Expr(), false},
		{"*Conjunction", cj, false},
	} {
		got, stats := AllViolations(d, tc.b)
		if stats.Sliced != tc.sliced {
			t.Errorf("%s: stats %+v, want Sliced=%v", tc.name, stats, tc.sliced)
		}
		if want, _ := AllViolationsExhaustive(d, tc.b); !equalKeySets(got, want) {
			t.Errorf("%s: violations differ from the oracle", tc.name)
		}
	}
}
