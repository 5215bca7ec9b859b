package detect

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// conjFromTruth builds a conjunction whose conjunct at process p is
// truth[p][k].
func conjFromTruth(truth [][]bool) *predicate.Conjunction {
	cj := predicate.NewConjunction(len(truth))
	for p := range truth {
		tp := truth[p]
		cj.Add(p, "q", func(_ *deposet.Deposet, k int) bool { return tp[k] })
	}
	return cj
}

func line(t testing.TB, lens ...int) *deposet.Deposet {
	b := deposet.NewBuilder(len(lens))
	for p, l := range lens {
		for i := 1; i < l; i++ {
			b.Step(p)
		}
	}
	return b.MustBuild()
}

// localAfter is the local of process p that holds from state k0 on.
func localAfter(p, k0 int) predicate.Expr {
	return predicate.Local(p, fmt.Sprintf("after%d", k0), func(_ *deposet.Deposet, k int) bool { return k >= k0 })
}

func TestPossiblyConjunctiveBasic(t *testing.T) {
	// Two independent processes, q true at exactly one state each.
	d := line(t, 3, 3)
	cj := conjFromTruth([][]bool{
		{false, true, false},
		{false, false, true},
	})
	cut, ok := PossiblyConjunctive(d, cj)
	if !ok {
		t.Fatal("expected possible")
	}
	if !cut.Equal(deposet.Cut{1, 2}) {
		t.Fatalf("witness = %v", cut)
	}
	if !d.Consistent(cut) || !cj.Eval(d, cut) {
		t.Fatal("witness invalid")
	}
}

func TestPossiblyConjunctiveImpossibleByCausality(t *testing.T) {
	// P0's q-state causally precedes P1's only q-state... and vice versa
	// is impossible; build: q0 only at (0,2) [after receiving], q1 only
	// at (1,0); message (1,·)→(0,·) makes (1,0) → (0,2): ordered, and the
	// only candidates are ordered the wrong way for a consistent cut?
	// (1,0) → (0,2) means cut {2,0} is inconsistent.
	b := deposet.NewBuilder(2)
	_, h := b.Send(1) // (1,1)
	b.Step(0)
	b.Recv(0, h) // (0,2)
	b.Step(1)
	d := b.MustBuild()
	cj := conjFromTruth([][]bool{
		{false, false, true},
		{true, false, false},
	})
	if cut, ok := PossiblyConjunctive(d, cj); ok {
		t.Fatalf("expected impossible, got %v", cut)
	}
}

func TestPossiblyConjunctiveNoCandidate(t *testing.T) {
	d := line(t, 2, 2)
	cj := conjFromTruth([][]bool{{false, false}, {true, true}})
	if _, ok := PossiblyConjunctive(d, cj); ok {
		t.Fatal("expected impossible: q0 never holds")
	}
}

func TestPossiblyConjunctiveMissingConjunct(t *testing.T) {
	d := line(t, 2, 2)
	cj := predicate.NewConjunction(2) // constant true
	cut, ok := PossiblyConjunctive(d, cj)
	if !ok || !cut.Equal(deposet.Cut{0, 0}) {
		t.Fatalf("got %v,%v; want ⊥,true", cut, ok)
	}
}

// Property: PossiblyConjunctive agrees with exhaustive lattice search.
func TestPossiblyMatchesExhaustiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(16)))
		truth := deposet.RandomTruth(r, d, 0.4)
		cj := conjFromTruth(truth)
		cut, got := PossiblyConjunctive(d, cj)
		_, want := possiblyExhaustive(d, cj.Expr())
		if got != want {
			return false
		}
		if got && (!d.Consistent(cut) || !cj.Eval(d, cut)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDefinitelyConjunctiveBasic(t *testing.T) {
	// Both processes are q-true from the start: every sequence starts at
	// ⊥ where both hold.
	d := line(t, 3, 3)
	cj := conjFromTruth([][]bool{
		{true, true, false},
		{true, false, false},
	})
	ivs, ok := DefinitelyConjunctive(d, cj)
	if !ok {
		t.Fatal("expected definitely")
	}
	if len(ivs) != 2 || ivs[0].Lo != 0 || ivs[1].Lo != 0 {
		t.Fatalf("witness = %v", ivs)
	}
}

func TestDefinitelyConjunctiveConcurrentSingles(t *testing.T) {
	// Single q-states on independent processes: sequences can dodge.
	d := line(t, 3, 3)
	cj := conjFromTruth([][]bool{
		{false, true, false},
		{false, true, false},
	})
	if _, ok := DefinitelyConjunctive(d, cj); ok {
		t.Fatal("expected not definitely")
	}
}

func TestDefinitelyConjunctiveForcedOverlap(t *testing.T) {
	// Message exchange forcing the q-intervals to overlap in every run:
	// P0 q-true on [1..2], P1 q-true on [1..2], with (0,1) → (1,2) and
	// (1,1) → (0,2).
	b := deposet.NewBuilder(2)
	_, h0 := b.Send(0) // (0,1)
	_, h1 := b.Send(1) // (1,1)
	b.Recv(0, h1)      // (0,2)
	b.Recv(1, h0)      // (1,2)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()
	cj := conjFromTruth([][]bool{
		{false, true, true, false},
		{false, true, true, false},
	})
	ivs, ok := DefinitelyConjunctive(d, cj)
	if !ok {
		t.Fatal("expected definitely")
	}
	if ivs[0].Lo != 1 || ivs[0].Hi != 2 || ivs[1].Lo != 1 || ivs[1].Hi != 2 {
		t.Fatalf("witness = %v", ivs)
	}
}

func TestDefinitelyConjunctiveNeverHolds(t *testing.T) {
	d := line(t, 2, 2)
	cj := conjFromTruth([][]bool{{false, false}, {true, true}})
	if _, ok := DefinitelyConjunctive(d, cj); ok {
		t.Fatal("expected not definitely")
	}
}

func TestDefinitelySingleProcess(t *testing.T) {
	d := line(t, 4)
	cj := conjFromTruth([][]bool{{false, true, false, false}})
	if _, ok := DefinitelyConjunctive(d, cj); !ok {
		t.Fatal("single process with a q-state is always definitely")
	}
	cj2 := conjFromTruth([][]bool{{false, false, false, false}})
	if _, ok := DefinitelyConjunctive(d, cj2); ok {
		t.Fatal("q never holds")
	}
}

// Property: DefinitelyConjunctive(q) agrees with ¬SGSD(¬q) under
// single-step (interleaving) sequence semantics: "every interleaving
// passes through an all-q state" is the negation of "some interleaving
// satisfies ¬(∧q) everywhere". Interleaving semantics is the right one
// for control: a control strategy cannot force two processes to step at
// the same instant, so controller existence coincides with single-step
// avoidability (see TestDefinitelySimultaneityGap).
func TestDefinitelyMatchesSGSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(14)))
		truth := deposet.RandomTruth(r, d, 0.45)
		cj := conjFromTruth(truth)
		ivs, def := DefinitelyConjunctive(d, cj)
		_, avoidable := sgsd(d, predicate.Not(cj.Expr()), false)
		if def == avoidable {
			return false
		}
		if def {
			// Witness must satisfy the overlap predicate.
			n := d.NumProcs()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && !Overlaps(d, ivs[i], ivs[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// sgsd runs SGSD where the process limit cannot be hit, returning the
// sequence and whether one exists.
func sgsd(d *deposet.Deposet, b predicate.Expr, simultaneous bool) (deposet.Sequence, bool) {
	seq, _, err := SGSD(d, b, simultaneous)
	if err != nil {
		panic(err)
	}
	return seq, seq != nil
}

func TestSGSDSimultaneousVsSingleStep(t *testing.T) {
	// XOR: P0 has x: 0→1, P1 has y: 1→0. B = x XOR y holds at ⊥ (0,1)
	// and ⊤ (1,0) but at neither single-step intermediate.
	b := deposet.NewBuilder(2)
	b.Let(0, "x", 0)
	b.Let(1, "y", 1)
	b.Step(0)
	b.Let(0, "x", 1)
	b.Step(1)
	b.Let(1, "y", 0)
	d := b.MustBuild()
	x := predicate.VarLocal{P: 0, Var: "x", Op: predicate.Eq, Value: 1}.Expr()
	y := predicate.VarLocal{P: 1, Var: "y", Op: predicate.Eq, Value: 1}.Expr()
	xor := predicate.Or(predicate.And(x, predicate.Not(y)), predicate.And(predicate.Not(x), y))

	if seq, ok := sgsd(d, xor, true); !ok {
		t.Fatal("simultaneous advance should satisfy XOR")
	} else if err := d.ValidateSequence(seq); err != nil {
		t.Fatalf("sequence invalid: %v", err)
	} else {
		for _, g := range seq {
			if !xor.Eval(d, g) {
				t.Fatalf("sequence state %v violates XOR", g)
			}
		}
	}
	if _, ok := sgsd(d, xor, false); ok {
		t.Fatal("single-step advance cannot satisfy XOR here")
	}
}

func TestSGSDBottomViolation(t *testing.T) {
	d := line(t, 2, 2)
	never := predicate.Const(false)
	seq, stats, err := SGSD(d, never, true)
	if seq != nil {
		t.Fatal("constant-false satisfiable?")
	}
	if err != nil || stats.NodesExplored != 0 {
		t.Fatalf("stats = %+v, err = %v", stats, err)
	}
}

func TestSGSDAlwaysTrue(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := deposet.Random(r, deposet.DefaultGen(3, 10))
	seq, ok := sgsd(d, predicate.Const(true), false)
	if !ok {
		t.Fatal("constant-true unsatisfiable?")
	}
	if err := d.ValidateSequence(seq); err != nil {
		t.Fatal(err)
	}
}

func TestSGSDProcLimit(t *testing.T) {
	b := deposet.NewBuilder(MaxSGSDProcs + 1)
	d := b.MustBuild()
	if seq, _, err := SGSD(d, predicate.Const(true), true); err == nil || seq != nil {
		t.Fatalf("SGSD over the process limit = %v, %v; want an error", seq, err)
	}
	// Single-step mode has no such limit.
	if _, ok := sgsd(d, predicate.Const(true), false); !ok {
		t.Fatal("single-step SGSD failed on wide system")
	}
}

func TestFeasible(t *testing.T) {
	d := line(t, 2, 2)
	if _, ok := sgsd(d, predicate.Const(true), false); !ok {
		t.Fatal("constant true infeasible")
	}
	if _, ok := sgsd(d, predicate.Const(false), false); ok {
		t.Fatal("constant false feasible")
	}
}

func TestAllViolations(t *testing.T) {
	d := line(t, 2, 2)
	// b false exactly where both processes are at state 1.
	b := predicate.Not(predicate.And(localAfter(0, 1), localAfter(1, 1)))
	v, _ := AllViolations(d, b)
	if len(v) != 1 || !v[0].Equal(deposet.Cut{1, 1}) {
		t.Fatalf("violations = %v", v)
	}
	if v, _ := AllViolations(d, predicate.Const(true)); len(v) != 0 {
		t.Fatal("constant-true has violations")
	}
}

// Property: a sequence returned by single-step SGSD is also valid under
// the simultaneous semantics (single steps are a special case).
func TestSGSDSingleImpliesSimultaneousProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(12)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.7))
		b := dj.Expr()
		seq1, ok1 := sgsd(d, b, false)
		_, ok2 := sgsd(d, b, true)
		if ok1 && !ok2 {
			return false
		}
		if ok1 {
			if err := d.ValidateSequence(seq1); err != nil {
				return false
			}
			for _, g := range seq1 {
				if !b.Eval(d, g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// notConj returns ¬(∧q) as an expression.
func notConj(cj *predicate.Conjunction) predicate.Expr {
	return predicate.Not(cj.Expr())
}
