package predicate

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
)

// twoProc builds a 2-process computation with 3 states each and variables
// x (on P0) and y (on P1) stepping 0,1,2.
func twoProc(t testing.TB) *deposet.Deposet {
	b := deposet.NewBuilder(2)
	b.Let(0, "x", 0)
	b.Let(1, "y", 0)
	b.Step(0)
	b.Let(0, "x", 1)
	b.Step(0)
	b.Let(0, "x", 2)
	b.Step(1)
	b.Let(1, "y", 1)
	b.Step(1)
	b.Let(1, "y", 2)
	return b.MustBuild()
}

// varEq and varTrue are the variable locals "name eq v" and "name true"
// of process p.
func varEq(p int, name string, v int) Expr { return VarLocal{P: p, Var: name, Op: Eq, Value: v}.Expr() }
func varTrue(p int, name string) Expr      { return VarLocal{P: p, Var: name, Op: True}.Expr() }

func TestEvalBasics(t *testing.T) {
	d := twoProc(t)
	x1 := varEq(0, "x", 1)
	y2 := varEq(1, "y", 2)
	g := deposet.Cut{1, 2}
	if !x1.Eval(d, g) || !y2.Eval(d, g) {
		t.Fatal("local eval wrong")
	}
	if !And(x1, y2).Eval(d, g) {
		t.Error("and wrong")
	}
	if !Or(x1, varEq(1, "y", 9)).Eval(d, g) {
		t.Error("or wrong")
	}
	if Not(x1).Eval(d, g) {
		t.Error("not wrong")
	}
	if !And().Eval(d, g) || Or().Eval(d, g) {
		t.Error("empty connectives wrong")
	}
	if !Const(true).Eval(d, g) || Const(false).Eval(d, g) {
		t.Error("const wrong")
	}
	if And(x1, Const(false)).Eval(d, g) {
		t.Error("short-circuit and wrong")
	}
}

func TestVarPredicates(t *testing.T) {
	d := twoProc(t)
	if !varTrue(0, "x").Eval(d, deposet.Cut{2, 0}) {
		t.Error("VarTrue at x=2 should hold")
	}
	if varTrue(0, "x").Eval(d, deposet.Cut{0, 0}) {
		t.Error("VarTrue at x=0 should not hold")
	}
	if varTrue(0, "missing").Eval(d, deposet.Cut{2, 0}) {
		t.Error("VarTrue on unset var should not hold")
	}
	if varEq(0, "missing", 0).Eval(d, deposet.Cut{0, 0}) {
		t.Error("VarEq on unset var should not hold")
	}
}

func TestOps(t *testing.T) {
	cases := map[Op][3]bool{ // results for (1,2), (2,2), (3,2)
		Eq: {false, true, false},
		Ne: {true, false, true},
		Lt: {true, false, false},
		Le: {true, true, false},
		Gt: {false, false, true},
		Ge: {false, true, true},
	}
	for op, want := range cases {
		for i, a := range []int{1, 2, 3} {
			if ops[op].holds(a, 2) != want[i] {
				t.Errorf("%s(%d,2) = %v", op, a, ops[op].holds(a, 2))
			}
		}
	}
	if !ops[True].holds(5, 0) || ops[True].holds(0, 0) || !ops[False].holds(0, 0) || ops[False].holds(5, 0) {
		t.Error("true/false ops wrong")
	}
	// Every op reads back from its name, and nothing else reads as one.
	for op := Eq; op <= False; op++ {
		text, _ := op.MarshalText()
		var back Op
		if err := back.UnmarshalText(text); err != nil || back != op {
			t.Errorf("%s: read back as %v, %v", op, back, err)
		}
	}
	for _, bad := range []string{"", "weird", "EQ", "Op(0)"} {
		var o Op
		if err := o.UnmarshalText([]byte(bad)); err == nil || !strings.Contains(err.Error(), "eq ne lt le gt ge true false") {
			t.Errorf("op %q: error %v, want one listing the ops", bad, err)
		}
	}
}

func TestVarDisjunctionErrors(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "ok", 1)
	b.Let(1, "x", 0)
	b.Let(1, "y", 0)
	d := b.MustBuild()
	if _, err := VarDisjunction(d, []VarLocal{{P: 5, Var: "ok", Op: Eq}}); err == nil || !strings.Contains(err.Error(), "process 5") {
		t.Errorf("bad process: error %v", err)
	}
	for _, op := range []Op{0, False + 1} {
		if _, err := VarDisjunction(d, []VarLocal{{P: 0, Var: "ok", Op: op}}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %d: error %v", op, err)
		}
	}
	// Two locals for one process: an error naming it, not Add's panic.
	twice := []VarLocal{{P: 1, Var: "x", Op: True}, {P: 1, Var: "y", Op: True}}
	if _, err := VarDisjunction(d, twice); err == nil || !strings.Contains(err.Error(), "process 1") {
		t.Errorf("two locals on process 1: error %v, want one naming the process", err)
	}
	// true and false take no value: one given would be ignored, so the
	// local would mean something other than it says.
	for _, op := range []Op{True, False} {
		l := VarLocal{P: 1, Var: "x", Op: op, Value: 3}
		want := fmt.Sprintf(`local "x %s 3" of process 1: op %s takes no value`, op, op)
		if _, err := VarDisjunction(d, []VarLocal{l}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s with a value: error %v, want one containing %q", op, err, want)
		}
	}
}

// TestVarDisjunctionUnsetVariable: a local naming a variable its process
// never sets — a misspelling — is refused with the names it does set,
// instead of reading as false at every state; so is every local on a
// computation with no variables.
func TestVarDisjunctionUnsetVariable(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "ok", 1)
	b.Let(0, "cs", 0)
	b.Let(1, "ok", 0)
	d := b.MustBuild()
	typo := []VarLocal{{P: 0, Var: "okk", Op: Eq, Value: 1}}
	_, err := VarDisjunction(d, typo)
	if want := `variable "okk" is not set on process 0 (set: cs, ok)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("misspelt variable: error %v, want one containing %q", err, want)
	}
	if _, err := VarDisjunction(d, []VarLocal{{P: 1, Var: "cs", Op: Eq}}); err == nil || !strings.Contains(err.Error(), "(set: ok)") {
		t.Errorf("a variable set only on another process: error %v", err)
	}
	bare := deposet.NewBuilder(2)
	bare.Step(0)
	_, err = VarDisjunction(bare.MustBuild(), typo)
	if want := `variable "okk" is not set on process 0 (set: none)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a computation with no variables: error %v, want one containing %q", err, want)
	}
}

// TestVarLocals: a disjunction of variable locals gives them back in
// process order, whether built by VarDisjunction or recognized by
// AsDisjunction; one with an opaque local gives none.
func TestVarLocals(t *testing.T) {
	d := twoProc(t)
	ls := []VarLocal{{P: 1, Var: "y", Op: Ge, Value: 1}, {P: 0, Var: "x", Op: False}}
	dj, err := VarDisjunction(d, ls)
	if err != nil {
		t.Fatal(err)
	}
	want := []VarLocal{ls[1], ls[0]}
	if got, ok := dj.VarLocals(); !ok || !slices.Equal(got, want) {
		t.Errorf("VarLocals = %v, %v; want %v", got, ok, want)
	}
	dj2, _ := AsDisjunction(Or(ls[0].Expr(), ls[1].Expr()), 2)
	if got, ok := dj2.VarLocals(); !ok || !slices.Equal(got, want) || dj2.String() != dj.String() {
		t.Errorf("recognized: %v, %v; %s", got, ok, dj2)
	}
	if _, ok := DisjunctionFromTruth([][]bool{{true}}).VarLocals(); ok {
		t.Error("an opaque local read as a variable local")
	}
}

// localAfter and localBefore are the locals of process p that hold from
// state k0 on ("the event has happened": after_x in the paper's property
// 3) and strictly before it ("it has not happened yet": before_y).
func localAfter(p, k0 int) Expr {
	return Local(p, fmt.Sprintf("after%d", k0), func(_ *deposet.Deposet, k int) bool { return k >= k0 })
}
func localBefore(p, k0 int) Expr {
	return Local(p, fmt.Sprintf("before%d", k0), func(_ *deposet.Deposet, k int) bool { return k < k0 })
}

func TestAfterBefore(t *testing.T) {
	d := twoProc(t)
	after := localAfter(0, 2)
	before := localBefore(1, 1)
	if after.Eval(d, deposet.Cut{1, 0}) || !after.Eval(d, deposet.Cut{2, 0}) {
		t.Error("localAfter wrong")
	}
	if !before.Eval(d, deposet.Cut{0, 0}) || before.Eval(d, deposet.Cut{0, 1}) {
		t.Error("localBefore wrong")
	}
}

func TestStrings(t *testing.T) {
	x := varEq(0, "x", 1)
	y := varTrue(1, "y")
	cases := []struct {
		e    Expr
		want string
	}{
		{x, "x eq 1@P0"},
		{y, "y true 0@P1"},
		{And(x, y), "(x eq 1@P0 ∧ y true 0@P1)"},
		{Or(x, y), "(x eq 1@P0 ∨ y true 0@P1)"},
		{Not(x), "¬x eq 1@P0"},
		{And(), "true"},
		{Or(), "false"},
		{Const(true), "true"},
		{Const(false), "false"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestDisjunction(t *testing.T) {
	d := twoProc(t)
	dj := NewDisjunction(2)
	dj.Add(0, "x=2", func(dd *deposet.Deposet, k int) bool {
		v, _ := dd.Var(deposet.StateID{P: 0, K: k}, "x")
		return v == 2
	})
	if dj.NumProcs() != 2 {
		t.Error("NumProcs wrong")
	}
	if dj.Holds(d, 1, 0) {
		t.Error("absent disjunct must be false")
	}
	if !dj.Eval(d, deposet.Cut{2, 0}) || dj.Eval(d, deposet.Cut{1, 2}) {
		t.Error("Eval wrong")
	}
	truth := dj.TruthTable(d)
	want0 := []bool{false, false, true}
	for k, w := range want0 {
		if truth.Holds(0, k) != w {
			t.Errorf("truth(0, %d) = %v, want %v", k, truth.Holds(0, k), w)
		}
	}
	for k := 0; k < d.Len(1); k++ {
		if truth.Holds(1, k) {
			t.Errorf("truth(1, %d) should be false", k)
		}
	}
	if got := dj.String(); got != "x=2@P0" {
		t.Errorf("String = %q", got)
	}
	if got := NewDisjunction(2).String(); got != "false" {
		t.Errorf("empty disjunction String = %q", got)
	}
	// Expr round-trip evaluates identically.
	e := dj.Expr()
	d.ForEachConsistentCut(func(g deposet.Cut) bool {
		if e.Eval(d, g) != dj.Eval(d, g) {
			t.Fatalf("Expr mismatch at %v", g)
		}
		return true
	})
}

func TestDisjunctionDoubleAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDisjunction(2).Add(0, "a", nilFn).Add(0, "b", nilFn)
}

func TestConjunctionDoubleAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewConjunction(2).Add(0, "a", nilFn).Add(0, "b", nilFn)
}

func nilFn(*deposet.Deposet, int) bool { return true }

func TestDisjunctionFromTruth(t *testing.T) {
	d := twoProc(t)
	truth := [][]bool{{true, false, true}, {false, true, false}}
	dj := DisjunctionFromTruth(truth)
	for p := range truth {
		for k, w := range truth[p] {
			if dj.Holds(d, p, k) != w {
				t.Errorf("Holds(%d,%d) = %v, want %v", p, k, !w, w)
			}
		}
	}
}

func TestAsDisjunction(t *testing.T) {
	a := Local(0, "a", nilFn)
	b := Local(1, "b", nilFn)
	if _, ok := AsDisjunction(Or(a, b), 2); !ok {
		t.Error("flat or rejected")
	}
	if _, ok := AsDisjunction(Or(a, Or(b)), 2); !ok {
		t.Error("nested or rejected")
	}
	if _, ok := AsDisjunction(a, 2); !ok {
		t.Error("single local rejected")
	}
	if _, ok := AsDisjunction(Or(a, Const(false)), 2); !ok {
		t.Error("or with false rejected")
	}
	if _, ok := AsDisjunction(Or(a, Const(true)), 2); ok {
		t.Error("or with true accepted")
	}
	if _, ok := AsDisjunction(And(a, b), 2); ok {
		t.Error("and accepted")
	}
	if _, ok := AsDisjunction(Not(a), 2); ok {
		t.Error("not accepted")
	}
	if _, ok := AsDisjunction(Or(a, Local(0, "a2", nilFn)), 2); ok {
		t.Error("two locals on one process accepted")
	}
	if _, ok := AsDisjunction(Local(5, "z", nilFn), 2); ok {
		t.Error("out-of-range process accepted")
	}
}

func TestConjunction(t *testing.T) {
	d := twoProc(t)
	cj := NewConjunction(2)
	cj.Add(0, "x>0", func(dd *deposet.Deposet, k int) bool {
		v, _ := dd.Var(deposet.StateID{P: 0, K: k}, "x")
		return v > 0
	})
	if cj.NumProcs() != 2 {
		t.Error("NumProcs wrong")
	}
	if !cj.Holds(d, 1, 0) {
		t.Error("absent conjunct must be true")
	}
	if !cj.Eval(d, deposet.Cut{1, 0}) || cj.Eval(d, deposet.Cut{0, 0}) {
		t.Error("Eval wrong")
	}
	if got := cj.String(); got != "x>0@P0" {
		t.Errorf("String = %q", got)
	}
	if got := NewConjunction(1).String(); got != "true" {
		t.Errorf("empty conjunction String = %q", got)
	}
}

// Property: Negate is pointwise complement — for every consistent cut,
// dj.Eval = !cj.Eval exactly when every process carries a disjunct; in
// general ∧¬lp is false ⇒ ∨lp is true on processes that have locals, and
// the conjunction treats missing locals as ¬false = true.
func TestNegateComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(12)))
		dj := DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
		cj := dj.Negate()
		ok := true
		d.ForEachConsistentCut(func(g deposet.Cut) bool {
			if dj.Eval(d, g) == cj.Eval(d, g) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The two normal forms are one form under two connectives: on random
// truth tables with some processes left without a local, negation
// commutes with tabulation, a disjunction round-trips through its
// expression into itself, and a conjunction's expression is not taken
// for a disjunction.
func TestNormalFormDuality(t *testing.T) {
	sameTable := func(d *deposet.Deposet, a, b *TruthTable) bool {
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				if a.Holds(p, k) != b.Holds(p, k) {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(16)))
		n := d.NumProcs()
		dj := NewDisjunction(n)
		for p, tp := range deposet.RandomTruth(r, d, 0.5) {
			if r.Intn(3) > 0 {
				dj.Add(p, "l", func(_ *deposet.Deposet, k int) bool { return tp[k] })
			}
		}
		cj := dj.Negate()
		if !sameTable(d, cj.TruthTable(d), dj.TruthTable(d).Invert()) {
			t.Logf("seed %d: ¬ does not commute with TruthTable", seed)
			return false
		}
		dj2, ok := AsDisjunction(dj.Expr(), n)
		if !ok || dj2.String() != dj.String() || !sameTable(d, dj2.TruthTable(d), dj.TruthTable(d)) {
			t.Logf("seed %d: %v does not round-trip (%v, %v)", seed, dj, dj2, ok)
			return false
		}
		// And into nothing else: the other connective's node is refused
		// even around a single local.
		_, cjAsDj := AsDisjunction(cj.Expr(), n)
		return !cjAsDj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}

	a, b, c := Local(0, "a", nilFn), Local(1, "b", nilFn), Local(2, "c", nilFn)
	for _, mixed := range []Expr{Or(And(a, b), c), And(Or(a, b), c)} {
		if _, ok := AsDisjunction(mixed, 3); ok {
			t.Errorf("AsDisjunction accepted %v", mixed)
		}
	}
	if got := NewDisjunction(2).String(); got != "false" {
		t.Errorf("empty disjunction prints %q", got)
	}
	if got := NewConjunction(2).String(); got != "true" {
		t.Errorf("empty conjunction prints %q", got)
	}
}

func TestNegateSkipsMissingLocals(t *testing.T) {
	d := twoProc(t)
	dj := NewDisjunction(2)
	dj.Add(0, "never", func(*deposet.Deposet, int) bool { return false })
	cj := dj.Negate()
	// P1 has no disjunct: the conjunct there must be constant true.
	if !cj.Holds(d, 1, 0) {
		t.Error("missing local should negate to true conjunct")
	}
	if !cj.Holds(d, 0, 0) {
		t.Error("¬never should hold")
	}
}
