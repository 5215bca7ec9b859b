package sat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/detect"
)

func TestEval(t *testing.T) {
	f := Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {2, 3}}}
	cases := []struct {
		assign []bool
		want   bool
	}{
		{[]bool{true, false, false}, false}, // second clause fails
		{[]bool{true, false, true}, true},
		{[]bool{false, true, false}, false}, // first clause fails
		{[]bool{true, true, false}, true},
	}
	for _, c := range cases {
		if got := f.Eval(c.assign); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.assign, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Formula{NumVars: 2, Clauses: []Clause{{1, -2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good formula rejected: %v", err)
	}
	for _, bad := range []Formula{
		{NumVars: 2, Clauses: []Clause{{}}},
		{NumVars: 2, Clauses: []Clause{{3}}},
		{NumVars: 2, Clauses: []Clause{{0}}},
		{NumVars: 2, Clauses: []Clause{{-3}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad formula accepted: %v", bad)
		}
	}
}

func TestString(t *testing.T) {
	f := Formula{NumVars: 2, Clauses: []Clause{{1, -2}, {2}}}
	if got, want := f.String(), "(x1 ∨ ¬x2) ∧ (x2)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (Formula{}).String(); got != "true" {
		t.Errorf("empty String = %q", got)
	}
}

func TestBruteForce(t *testing.T) {
	sat := Formula{NumVars: 2, Clauses: []Clause{{1}, {-2}}}
	assign, ok := BruteForce(sat)
	if !ok || !sat.Eval(assign) {
		t.Fatal("satisfiable formula not solved")
	}
	unsat := Formula{NumVars: 1, Clauses: []Clause{{1}, {-1}}}
	if _, ok := BruteForce(unsat); ok {
		t.Fatal("unsatisfiable formula solved")
	}
}

func TestRandomKSATShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := RandomKSAT(r, 5, 8, 3)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 8 {
		t.Fatalf("clauses = %d", len(f.Clauses))
	}
	for _, c := range f.Clauses {
		if len(c) != 3 {
			t.Fatalf("clause width = %d", len(c))
		}
		seen := map[int]bool{}
		for _, lit := range c {
			v := lit
			if v < 0 {
				v = -v
			}
			if seen[v] {
				t.Fatal("duplicate variable in clause")
			}
			seen[v] = true
		}
	}
}

func TestReduceRejectsInvalid(t *testing.T) {
	if _, err := Reduce(Formula{NumVars: 1, Clauses: []Clause{{5}}}); err == nil {
		t.Fatal("invalid formula accepted")
	}
}

func TestReductionShape(t *testing.T) {
	f := Formula{NumVars: 3, Clauses: []Clause{{1, -2}, {3}}}
	red, err := Reduce(f)
	if err != nil {
		t.Fatal(err)
	}
	if red.D.NumProcs() != 4 {
		t.Fatalf("procs = %d", red.D.NumProcs())
	}
	for v := 0; v < 3; v++ {
		if red.D.Len(v) != 2 {
			t.Fatalf("variable process %d has %d states", v, red.D.Len(v))
		}
	}
	if red.D.Len(red.ExtraProc) != 3 {
		t.Fatalf("extra process has %d states", red.D.Len(red.ExtraProc))
	}
	// B holds at ⊥ and ⊤ regardless of b (x_{m+1} is true there).
	if !red.B.Eval(red.D, red.D.BottomCut()) || !red.B.Eval(red.D, red.D.TopCut()) {
		t.Fatal("B must hold at ⊥ and ⊤")
	}
}

// The heart of Lemma 1: the formula is satisfiable iff the reduction's
// SGSD instance has a satisfying global sequence, under both sequence
// semantics (the reduction never needs simultaneous advances).
func TestReductionEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vars := 1 + r.Intn(5)
		width := 1 + r.Intn(vars)
		formula := RandomKSAT(r, vars, 1+r.Intn(8), width)
		_, satisfiable := BruteForce(formula)

		red, err := Reduce(formula)
		if err != nil {
			return false
		}
		for _, simultaneous := range []bool{false, true} {
			seq, _, err := detect.SGSD(red.D, red.B, simultaneous)
			ok := seq != nil
			if err != nil || ok != satisfiable {
				return false
			}
			if !ok {
				continue
			}
			if err := red.D.ValidateSequence(seq); err != nil {
				return false
			}
			assign, found := red.Assignment(seq)
			if !found || !formula.Eval(assign) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBruteForcePanicsOnHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BruteForce(Formula{NumVars: 31})
}

func TestRandomKSATPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RandomKSAT(rand.New(rand.NewSource(1)), 2, 1, 3)
}
