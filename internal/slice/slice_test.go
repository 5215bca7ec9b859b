package slice_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/slice"
)

// randRegular builds a random regular predicate on d — the negation of a
// random disjunction, ¬(∨p lp) = ∧p ¬lp — plus its factored table.
func randRegular(r *rand.Rand, d *deposet.Deposet, density float64) (predicate.Expr, *predicate.TruthTable) {
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, density))
	e := predicate.Not(dj.Expr())
	tab, ok := predicate.RegularTable(e, d)
	if !ok {
		panic("¬disjunction must be regular")
	}
	return e, tab
}

// satisfyingCuts walks the full lattice and filters by e — the oracle.
func satisfyingCuts(d *deposet.Deposet, e predicate.Expr) map[string]bool {
	sat := map[string]bool{}
	d.ForEachConsistentCut(func(g deposet.Cut) bool {
		if e.Eval(d, g) {
			sat[g.Key()] = true
		}
		return true
	})
	return sat
}

// Property: the slice's cut set equals the exhaustive lattice walk
// filtered by the predicate — exact set equality, no duplicates.
func TestSliceMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(14)))
		e, tab := randRegular(r, d, 0.3+0.5*r.Float64())
		sl := slice.Compute(d, tab)
		want := satisfyingCuts(d, e)

		cuts := sl.Cuts()
		if len(cuts) != len(want) {
			t.Logf("seed %d: slice %d cuts, lattice filter %d", seed, len(cuts), len(want))
			return false
		}
		for _, g := range cuts {
			if !want[g.Key()] {
				t.Logf("seed %d: slice emitted non-satisfying cut %v", seed, g)
				return false
			}
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i].Equal(cuts[i-1]) {
				t.Logf("seed %d: duplicate cut %v", seed, cuts[i])
				return false
			}
		}
		if sl.Empty() != (len(want) == 0) {
			return false
		}
		if !sl.Empty() {
			// Bottom/Top are the unique min/max of the satisfying set.
			for key := range want {
				g := cutFromKey(key, d.NumProcs())
				if !sl.Bottom().Leq(g) || !g.Leq(sl.Top()) {
					t.Logf("seed %d: %v outside [%v, %v]", seed, g, sl.Bottom(), sl.Top())
					return false
				}
			}
			if !want[sl.Bottom().Key()] || !want[sl.Top().Key()] {
				return false
			}
		}
		st := sl.Stats()
		if st.MetaEvents > d.NumStates() {
			t.Logf("seed %d: %d meta-events > %d states", seed, st.MetaEvents, d.NumStates())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func cutFromKey(key string, n int) deposet.Cut {
	g := make(deposet.Cut, n)
	p, v := 0, 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			g[p] = v
			p, v = p+1, 0
			continue
		}
		v = v*10 + int(key[i]-'0')
	}
	return g
}

// Property: SingleStepChain agrees with the exhaustive single-step SGSD
// search, and any sequence it returns is a valid global sequence every
// cut of which satisfies the predicate.
func TestSingleStepChainMatchesSGSD(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(12)))
		e, tab := randRegular(r, d, 0.4+0.5*r.Float64())
		sl := slice.Compute(d, tab)
		seq, found, decided := sl.SingleStepChain()
		if !decided {
			t.Logf("seed %d: SingleStepChain undecided", seed)
			return false
		}
		oracle, _, _ := detect.SGSD(d, e, false)
		want := oracle != nil
		if found != want {
			t.Logf("seed %d: slice says %v, SGSD says %v", seed, found, want)
			return false
		}
		if !found {
			return true
		}
		if err := d.ValidateSequence(seq); err != nil {
			t.Logf("seed %d: invalid sequence: %v", seed, err)
			return false
		}
		for _, g := range seq {
			if !e.Eval(d, g) {
				t.Logf("seed %d: sequence cut %v violates predicate", seed, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptySlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := deposet.Random(r, deposet.DefaultGen(3, 10))
	tab, ok := predicate.RegularTable(predicate.Const(false), d)
	if !ok {
		t.Fatal("Const(false) is regular")
	}
	sl := slice.Compute(d, tab)
	if !sl.Empty() || sl.Cuts() != nil {
		t.Fatal("slice of false must be empty")
	}
	if _, found, decided := sl.SingleStepChain(); found || !decided {
		t.Fatal("empty slice has no chain")
	}
	if sl.Bottom() != nil || sl.Top() != nil {
		t.Fatal("empty slice has no bottom/top")
	}
}

// The slice of Const(true) is the whole lattice; SingleStepChain then
// reproduces an ordinary interleaving.
func TestFullSlice(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := deposet.Random(r, deposet.DefaultGen(3, 12))
	tab, ok := predicate.RegularTable(predicate.Const(true), d)
	if !ok {
		t.Fatal("Const(true) is regular")
	}
	sl := slice.Compute(d, tab)
	if got, want := len(sl.Cuts()), d.CountConsistentCuts(); got != want {
		t.Fatalf("full slice has %d cuts, lattice %d", got, want)
	}
	seq, found, decided := sl.SingleStepChain()
	if !found || !decided {
		t.Fatal("full slice must contain an interleaving")
	}
	if err := d.ValidateSequence(seq); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCutEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := deposet.Random(r, deposet.DefaultGen(3, 12))
	_, tab := randRegular(r, d, 0.7)
	sl := slice.Compute(d, tab)
	all := map[string]bool{}
	sl.ForEachCut(func(g deposet.Cut) bool {
		all[g.Key()] = true
		return true
	})
	if len(all) != len(sl.Cuts()) {
		t.Fatalf("ForEachCut saw %d cuts, Cuts %d", len(all), len(sl.Cuts()))
	}
	n := 0
	sl.ForEachCut(func(deposet.Cut) bool { n++; return n < 3 })
	if len(all) >= 3 && n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// The (depth, lex) output order is genuinely sorted.
func TestCutsOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := deposet.Random(r, deposet.DefaultGen(4, 16))
	_, tab := randRegular(r, d, 0.8)
	cuts := slice.Compute(d, tab).Cuts()
	depth := func(g deposet.Cut) int {
		s := 0
		for _, k := range g {
			s += k
		}
		return s
	}
	sorted := sort.SliceIsSorted(cuts, func(a, b int) bool {
		da, db := depth(cuts[a]), depth(cuts[b])
		if da != db {
			return da < db
		}
		for i := range cuts[a] {
			if cuts[a][i] != cuts[b][i] {
				return cuts[a][i] < cuts[b][i]
			}
		}
		return false
	})
	if !sorted {
		t.Fatal("Cuts output not in (depth, lex) order")
	}
}
