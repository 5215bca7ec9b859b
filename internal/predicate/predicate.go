// Package predicate defines global predicates over deposet global states:
// boolean combinations (∧, ∨, ¬) of local predicates, where a local
// predicate is a boolean function of one process's state. It recognizes
// the disjunctive class B = l1 ∨ l2 ∨ … ∨ ln that the paper's efficient
// control algorithms handle, and the conjunctive class that the
// detection algorithms handle.
package predicate

import (
	"cmp"
	"fmt"
	"slices"
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
	v    *VarLocal // what fn reads, for a local over one variable
}

type andExpr struct{ xs []Expr }
type orExpr struct{ xs []Expr }
type notExpr struct{ x Expr }
type constExpr struct{ v bool }

// Local builds a local predicate of process p. The name is used only for
// display.
func Local(p int, name string, fn LocalFn) Expr { return &localExpr{p: p, name: name, fn: fn} }

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

// Op compares a state variable with a local's value. The zero Op is
// none, so a local whose op was never given is refused, not read as eq.
type Op uint8

// The ops. True and False compare the variable with 0 and take no value.
const (
	Eq Op = iota + 1
	Ne
	Lt
	Le
	Gt
	Ge
	True
	False
)

// ops is the one op table: each op's name in a predicate file, and its
// test of variable value a against the local's value b.
var ops = [...]struct {
	name  string
	holds func(a, b int) bool
}{
	Eq:    {"eq", func(a, b int) bool { return a == b }},
	Ne:    {"ne", func(a, b int) bool { return a != b }},
	Lt:    {"lt", func(a, b int) bool { return a < b }},
	Le:    {"le", func(a, b int) bool { return a <= b }},
	Gt:    {"gt", func(a, b int) bool { return a > b }},
	Ge:    {"ge", func(a, b int) bool { return a >= b }},
	True:  {"true", func(a, _ int) bool { return a != 0 }},
	False: {"false", func(a, _ int) bool { return a == 0 }},
}

func (o Op) String() string {
	if o < Eq || o > False {
		return fmt.Sprintf("Op(%d)", o)
	}
	return ops[o].name
}

func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText reads an op's name and refuses any other text.
func (o *Op) UnmarshalText(b []byte) error {
	var names []string
	for op := Eq; op <= False; op++ {
		if ops[op].name == string(b) {
			*o = op
			return nil
		}
		names = append(names, ops[op].name)
	}
	return fmt.Errorf("unknown op %q (ops: %s)", b, strings.Join(names, " "))
}

// VarLocal is the local predicate "Var Op Value" over a state variable
// of process P, false where Var is unset: a predicate file's leaf.
type VarLocal struct {
	P     int    `json:"p"`
	Var   string `json:"var"`
	Op    Op     `json:"op"`
	Value int    `json:"value,omitempty"`
}

func (l VarLocal) String() string { return fmt.Sprintf("%s %s %d", l.Var, l.Op, l.Value) }

// Expr returns l as a local predicate, and panics where VarDisjunction
// would refuse l: l is program text, not input.
func (l VarLocal) Expr() Expr {
	x, err := l.leaf()
	if err != nil {
		panic(err)
	}
	return x
}

// leaf builds l's local predicate, which carries l beside its function.
// An unknown op, or a value given to an op that takes none (it would be
// ignored), is an error naming the local.
func (l VarLocal) leaf() (*localExpr, error) {
	if l.Op < Eq || l.Op > False {
		return nil, fmt.Errorf("predicate: local %q of process %d: unknown op", l, l.P)
	}
	if (l.Op == True || l.Op == False) && l.Value != 0 {
		return nil, fmt.Errorf("predicate: local %q of process %d: op %s takes no value", l, l.P, l.Op)
	}
	return &localExpr{p: l.P, name: l.String(), v: &l, fn: func(d *deposet.Deposet, k int) bool {
		x, ok := d.Var(deposet.StateID{P: l.P, K: k}, l.Var)
		return ok && l.Holds(x)
	}}, nil
}

// Holds reports whether l holds at a state where Var is set to x.
func (l VarLocal) Holds(x int) bool { return ops[l.Op].holds(x, l.Value) }

// on returns e's truth at the states of its process of d. A variable
// local resolves its variable's slot in d once, not per state: the
// slot belongs to d, so it is resolved per call, never kept in e, which
// two readers of two computations may evaluate at once.
func (e *localExpr) on(d *deposet.Deposet) func(k int) bool {
	if e.v == nil {
		return func(k int) bool { return e.fn(d, k) }
	}
	slot, ok := d.VarSlot(e.v.Var)
	if !ok {
		return func(int) bool { return false }
	}
	return func(k int) bool {
		x, ok := d.VarBySlot(deposet.StateID{P: e.p, K: k}, slot)
		return ok && e.v.Holds(x)
	}
}

// VarDisjunction builds l1 ∨ … ∨ lk over d's processes. The locals are
// input: one Expr would refuse, one naming a process outside d, a second
// one for a process, or one whose variable is set on no state of its
// process (a misspelt name would read as false everywhere) is an error.
func VarDisjunction(d *deposet.Deposet, ls []VarLocal) (*Disjunction, error) {
	dj := NewDisjunction(d.NumProcs())
	for _, l := range ls {
		x, err := l.leaf()
		if err == nil {
			err = dj.set(x)
		}
		if err != nil {
			return nil, err
		}
		if names := varNames(d, l.P); !slices.Contains(names, l.Var) {
			return nil, fmt.Errorf("predicate: variable %q is not set on process %d (set: %s)",
				l.Var, l.P, cmp.Or(strings.Join(names, ", "), "none"))
		}
	}
	return dj, nil
}

// varNames lists, sorted, the variables set on some state of process p.
func varNames(d *deposet.Deposet, p int) (names []string) {
	for k := range d.Len(p) {
		vs, _, on := d.VarsAt(deposet.StateID{P: p, K: k})
		for i, ok := range on {
			if ok && !slices.Contains(names, vs[i]) {
				names = append(names, vs[i])
			}
		}
	}
	slices.Sort(names)
	return names
}
