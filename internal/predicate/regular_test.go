package predicate

import (
	"testing"

	"predctl/internal/deposet"
)

// TestIsRegular drives the regular-fragment classifier (RegularTable's
// ok) over every Expr form: Local, And, Or, Not, Const, compiled bitExpr
// leaves, and the Disjunction / Conjunction recognized forms — including
// the nested
// conjunction-of-disjunction shapes that must be rejected because a
// cross-process disjunction is not min-closed.
func TestIsRegular(t *testing.T) {
	d := twoProc(t)
	l0 := varEq(0, "x", 1)
	l0b := varEq(0, "x", 2)
	l1 := varEq(1, "y", 1)
	l1b := varEq(1, "y", 2)
	compiled := Compile(Or(l0, l0b), d) // or of bitExpr leaves, one process
	after := func(_ *deposet.Deposet, k int) bool { return k >= 1 }
	dj := NewDisjunction(2).Add(0, "a", after).Add(1, "b", after)
	cj := NewConjunction(2).Add(0, "a", after).Add(1, "b", after)

	cases := []struct {
		name string
		e    Expr
		want bool
	}{
		{"local", l0, true},
		{"const-true", Const(true), true},
		{"const-false", Const(false), true},
		{"not-local", Not(l0), true},
		{"conjunction", And(l0, l1), true},
		{"empty-and", And(), true},
		{"empty-or", Or(), true},
		{"nested-and", And(And(l0, l1), l1b), true},
		{"single-proc-or", Or(l0, l0b), true},
		{"compiled-single-proc-or", compiled, true},
		{"and-of-single-proc-ors", And(Or(l0, l0b), Or(l1, l1b)), true},
		{"demorgan-not-or", Not(Or(l0, l1)), true},          // = ¬l0 ∧ ¬l1
		{"demorgan-not-and-1proc", Not(And(l0, l0b)), true}, // one process
		{"not-not", Not(Not(And(l0, l1))), true},
		{"const-only-or", Or(Const(false), Const(true)), true},
		{"and-with-const", And(l0, Const(true), l1), true},
		{"or-with-const-false", Or(l0, Const(false)), true},
		// The normal forms passed as an Expr classify as their Expr().
		{"conjunction-form", cj, true},
		{"not-disjunction-form", Not(dj), true},
		{"one-proc-disjunction-form", NewDisjunction(2).Add(1, "b", after), true},
		{"empty-disjunction-form", NewDisjunction(2), true},
		{"and-of-forms", And(cj, Not(dj), l0), true},

		{"cross-proc-or", Or(l0, l1), false},
		{"disjunction-form", dj, false},
		{"not-conjunction-form", Not(cj), false},
		{"not-conjunction", Not(And(l0, l1)), false}, // = l̄0 ∨ l̄1 across procs
		{"conj-of-cross-disj", And(Or(l0, l1), l0b), false},
		{"nested-conj-of-disj", And(l0, And(Or(l0b, l1), l1b)), false},
		{"disj-of-conj", Or(And(l0, l1), l1b), false},
		{"deep-neg-flip", Not(And(Not(l0), Not(l1))), false}, // = l0 ∨ l1
	}
	for _, c := range cases {
		if _, got := RegularTable(c.e, d); got != c.want {
			t.Errorf("RegularTable(%s) [%s] ok = %v, want %v", c.e, c.name, got, c.want)
		}
	}
}

// Or(l0, l1, Const(true)) is a multi-process disjunction, so the
// classifier rejects it even though it is semantically constant true
// (and hence regular): the fragment is syntactic. Pin that choice.
func TestIsRegularSyntacticNotSemantic(t *testing.T) {
	d := twoProc(t)
	l0 := varEq(0, "x", 1)
	l1 := varEq(1, "y", 1)
	if _, ok := RegularTable(Or(l0, l1, Const(true)), d); ok {
		t.Fatal("multi-process Or must be rejected even when semantically constant")
	}
}

// TestRegularTable checks the factored table against direct evaluation:
// for a regular e, e.Eval(d, g) must equal ∧p table.Holds(p, g[p]) over
// every cut of a small computation.
func TestRegularTable(t *testing.T) {
	d := twoProc(t)
	l0 := varEq(0, "x", 1)
	l0b := varEq(0, "x", 2)
	l1 := varEq(1, "y", 1)
	exprs := []Expr{
		And(l0, l1),
		Not(Or(l0, l1)),
		And(Or(l0, l0b), l1),
		Not(Or(Not(l0), Not(l1))), // double De Morgan = l0 ∧ l1
		Const(false),
		Const(true),
		Compile(And(Or(l0, l0b), Not(l1)), d),
	}
	for _, e := range exprs {
		tab, ok := RegularTable(e, d)
		if !ok {
			t.Fatalf("RegularTable(%s) rejected a regular predicate", e)
		}
		g := make(deposet.Cut, 2)
		for g[0] = 0; g[0] < d.Len(0); g[0]++ {
			for g[1] = 0; g[1] < d.Len(1); g[1]++ {
				want := e.Eval(d, g)
				got := tab.Holds(0, g[0]) && tab.Holds(1, g[1])
				if got != want {
					t.Errorf("%s at %v: table %v, eval %v", e, g, got, want)
				}
			}
		}
	}
}

func TestRegularTableRejectsNonRegular(t *testing.T) {
	d := twoProc(t)
	e := Or(varEq(0, "x", 1), varEq(1, "y", 1))
	if tab, ok := RegularTable(e, d); ok || tab != nil {
		t.Fatal("cross-process disjunction must be rejected")
	}
}
