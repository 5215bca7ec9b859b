// Package predicate defines global predicates over deposet global states:
// boolean combinations (∧, ∨, ¬) of local predicates, where a local
// predicate is a boolean function of one process's state. It recognizes
// the disjunctive class B = l1 ∨ l2 ∨ … ∨ ln that the paper's efficient
// control algorithms handle, and the conjunctive class that the
// detection algorithms handle.
package predicate

import (
	"fmt"
	"strings"

	"predctl/internal/deposet"
)

// LocalFn is the truth of a local predicate at state (p, k) of d. The
// process p is fixed by the enclosing Local expression; the function
// receives only the state index.
type LocalFn func(d *deposet.Deposet, k int) bool

// Expr is a global predicate.
type Expr interface {
	// Eval evaluates the predicate at global state g of d.
	Eval(d *deposet.Deposet, g deposet.Cut) bool
	String() string
}

type localExpr struct {
	p    int
	name string
	fn   LocalFn
}

type andExpr struct{ xs []Expr }
type orExpr struct{ xs []Expr }
type notExpr struct{ x Expr }
type constExpr struct{ v bool }

// Local builds a local predicate of process p. The name is used only for
// display.
func Local(p int, name string, fn LocalFn) Expr { return &localExpr{p, name, fn} }

// And, Or and Not combine predicates. And() is true, Or() is false.
func And(xs ...Expr) Expr { return &andExpr{xs} }
func Or(xs ...Expr) Expr  { return &orExpr{xs} }
func Not(x Expr) Expr     { return &notExpr{x} }

// Const is a constant predicate.
func Const(v bool) Expr { return &constExpr{v} }

func (e *localExpr) Eval(d *deposet.Deposet, g deposet.Cut) bool { return e.fn(d, g[e.p]) }
func (e *localExpr) String() string                              { return fmt.Sprintf("%s@P%d", e.name, e.p) }

func (e *andExpr) Eval(d *deposet.Deposet, g deposet.Cut) bool {
	for _, x := range e.xs {
		if !x.Eval(d, g) {
			return false
		}
	}
	return true
}

func (e *orExpr) Eval(d *deposet.Deposet, g deposet.Cut) bool {
	for _, x := range e.xs {
		if x.Eval(d, g) {
			return true
		}
	}
	return false
}

func (e *notExpr) Eval(d *deposet.Deposet, g deposet.Cut) bool { return !e.x.Eval(d, g) }

func (e *constExpr) Eval(*deposet.Deposet, deposet.Cut) bool { return e.v }

func joinExprs(xs []Expr, op, empty string) string {
	if len(xs) == 0 {
		return empty
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}

func (e *andExpr) String() string { return joinExprs(e.xs, "∧", "true") }
func (e *orExpr) String() string  { return joinExprs(e.xs, "∨", "false") }
func (e *notExpr) String() string { return "¬" + e.x.String() }
func (e *constExpr) String() string {
	if e.v {
		return "true"
	}
	return "false"
}

// Common local predicate builders. Each bundles its process index so the
// returned Expr can read that process's variables.

// LocalVarEq returns a local predicate of process p that holds when
// variable name equals v.
func LocalVarEq(p int, name string, v int) Expr {
	return Local(p, fmt.Sprintf("%s=%d", name, v), func(d *deposet.Deposet, k int) bool {
		x, ok := d.Var(deposet.StateID{P: p, K: k}, name)
		return ok && x == v
	})
}

// localVarTrue returns a local predicate of process p that holds when
// variable name is set and non-zero.
func localVarTrue(p int, name string) Expr {
	return Local(p, name, func(d *deposet.Deposet, k int) bool {
		x, ok := d.Var(deposet.StateID{P: p, K: k}, name)
		return ok && x != 0
	})
}

// LocalAfter returns a local predicate of process p that holds from state
// index k0 onward ("the event has happened": after_x in the paper's
// property 3).
func LocalAfter(p, k0 int) Expr {
	return Local(p, fmt.Sprintf("after%d", k0), func(_ *deposet.Deposet, k int) bool {
		return k >= k0
	})
}

// localBefore returns a local predicate of process p that holds strictly
// before state index k0 ("the event has not happened yet": before_y).
func localBefore(p, k0 int) Expr {
	return Local(p, fmt.Sprintf("before%d", k0), func(_ *deposet.Deposet, k int) bool {
		return k < k0
	})
}
