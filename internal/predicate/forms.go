package predicate

import (
	"fmt"
	"strings"

	"predctl/internal/deposet"
)

// form is the per-process normal form behind Disjunction and
// Conjunction: at most one local predicate per process, joined by one
// connective. The connective is named by its identity element — false
// under ∨, true under ∧ — which is what a process without a local
// contributes and what the form evaluates to unless some local says
// otherwise; every other difference between the two forms follows.
type form struct {
	unit   bool
	locals []*localExpr // indexed by process; nil means the constant unit
}

func newForm(n int, unit bool) form {
	return form{unit: unit, locals: make([]*localExpr, n)}
}

// set sets x as its process's local, or reports why it cannot: the
// process out of range, or it already has one (two locals of one process
// are a single local predicate and should be expressed as one).
func (f *form) set(x *localExpr) error {
	if x.p < 0 || x.p >= len(f.locals) {
		return fmt.Errorf("predicate: process %d out of range [0,%d)", x.p, len(f.locals))
	}
	if f.locals[x.p] != nil {
		return fmt.Errorf("predicate: process %d already has a local predicate", x.p)
	}
	f.locals[x.p] = x
	return nil
}

// add is set for callers whose arguments are program text, not input.
func (f *form) add(p int, name string, fn LocalFn) {
	if err := f.set(&localExpr{p: p, name: name, fn: fn}); err != nil {
		panic(err)
	}
}

// NumProcs returns the number of processes the form ranges over.
func (f *form) NumProcs() int { return len(f.locals) }

// Holds evaluates the local predicate of process p at state (p, k);
// a process without one is constant false in a disjunction and constant
// true in a conjunction.
func (f *form) Holds(d *deposet.Deposet, p, k int) bool {
	if f.locals[p] == nil {
		return f.unit
	}
	return f.locals[p].fn(d, k)
}

// Eval evaluates the form at global state g.
func (f *form) Eval(d *deposet.Deposet, g deposet.Cut) bool {
	for p := range f.locals {
		if f.Holds(d, p, g[p]) != f.unit {
			return !f.unit
		}
	}
	return f.unit
}

// Expr returns the form as a general predicate expression.
func (f *form) Expr() Expr {
	var xs []Expr
	for _, x := range f.locals {
		if x != nil {
			xs = append(xs, x)
		}
	}
	if f.unit {
		return And(xs...)
	}
	return Or(xs...)
}

func (f *form) String() string {
	var parts []string
	for _, x := range f.locals {
		if x != nil {
			parts = append(parts, x.String())
		}
	}
	if len(parts) == 0 {
		return fmt.Sprint(f.unit)
	}
	if f.unit {
		return strings.Join(parts, " ∧ ")
	}
	return strings.Join(parts, " ∨ ")
}

// TruthTable materializes the packed truth table of the form's locals on
// d: Holds(p, k) = f.Holds(d, p, k), so a process without a local is
// all-false in a disjunction's table and all-true in a conjunction's.
func (f *form) TruthTable(d *deposet.Deposet) *TruthTable {
	lens := make([]int, len(f.locals))
	for p := range lens {
		lens[p] = d.Len(p)
	}
	t := newTruthTable(lens)
	for p, x := range f.locals {
		if x == nil && !f.unit {
			continue
		}
		for k := 0; k < lens[p]; k++ {
			if x == nil || x.fn(d, k) {
				t.Set(p, k, true)
			}
		}
	}
	return t
}

// Disjunction is a predicate in the paper's disjunctive form
// B = l1 ∨ l2 ∨ … ∨ ln, with at most one local predicate per process.
// Processes without a local predicate contribute the constant false (they
// can never discharge B). This is the class the off-line and on-line
// control algorithms accept.
type Disjunction struct{ form }

// Conjunction is a predicate of the form q1 ∧ q2 ∧ … ∧ qn with at most
// one local predicate per process; processes without a conjunct are
// constant true. This is the class accepted by the detection algorithms
// (possibly/definitely). The negation of a disjunctive predicate is a
// conjunction, which is how control and detection meet: a deposet
// satisfies B = ∨ li iff ¬possibly(∧ ¬li).
type Conjunction struct{ form }

// NewDisjunction starts an empty disjunction over n processes (constant
// false until locals are added).
func NewDisjunction(n int) *Disjunction { return &Disjunction{newForm(n, false)} }

// NewConjunction starts an empty conjunction over n processes (constant
// true until conjuncts are added).
func NewConjunction(n int) *Conjunction { return &Conjunction{newForm(n, true)} }

// Add sets the local predicate (disjunct) of process p, and panics where
// p is out of range or already has one.
func (dj *Disjunction) Add(p int, name string, fn LocalFn) *Disjunction {
	dj.add(p, name, fn)
	return dj
}

// Add sets the conjunct of process p, and panics where p is out of range
// or already has one.
func (cj *Conjunction) Add(p int, name string, fn LocalFn) *Conjunction {
	cj.add(p, name, fn)
	return cj
}

// AsDisjunction recognizes expressions of the form l1 ∨ … ∨ lk (arbitrary
// nesting of Or over Local leaves, each process at most once) over n
// processes. It returns false for anything else.
func AsDisjunction(e Expr, n int) (*Disjunction, bool) {
	dj := NewDisjunction(n)
	return dj, dj.collect(e)
}

// collect fills dj from an expression built of Local leaves (each
// process at most once) under arbitrary nesting of Or and constant
// false; anything else — And, Not, constant true, two locals on one
// process, which the caller should merge explicitly — is refused.
func (dj *Disjunction) collect(e Expr) bool {
	switch x := e.(type) {
	case *localExpr:
		return dj.set(x) == nil
	case *constExpr:
		return !x.v
	case *orExpr:
		for _, sub := range x.xs {
			if !dj.collect(sub) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// VarLocals returns dj's locals in process order; ok is false unless
// every one of them is a variable local.
func (dj *Disjunction) VarLocals() (ls []VarLocal, ok bool) {
	for _, x := range dj.locals {
		if x != nil {
			if x.v == nil {
				return nil, false
			}
			ls = append(ls, *x.v)
		}
	}
	return ls, true
}

// DisjunctionFromTruth builds a disjunction directly from a truth table
// (used by generators and benchmarks): truth[p][k] is lp at state (p,k).
func DisjunctionFromTruth(truth [][]bool) *Disjunction {
	dj := NewDisjunction(len(truth))
	for p := range truth {
		tp := truth[p]
		dj.Add(p, fmt.Sprintf("l%d", p), func(_ *deposet.Deposet, k int) bool {
			return tp[k]
		})
	}
	return dj
}

// Negate returns the conjunction ∧p ¬lp of a disjunction ∨p lp. Processes
// without a disjunct (constant false) become constant-true conjuncts...
// which is exactly "¬false". Used to hand B's complement to the detectors.
func (dj *Disjunction) Negate() *Conjunction {
	cj := NewConjunction(dj.NumProcs())
	for p, x := range dj.locals {
		if x == nil {
			continue // ¬false = true = absent conjunct
		}
		cj.Add(p, "¬"+x.name, func(d *deposet.Deposet, k int) bool {
			return !x.fn(d, k)
		})
	}
	return cj
}
