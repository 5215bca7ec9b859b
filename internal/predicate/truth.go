package predicate

import "predctl/internal/deposet"

// TruthTable is a packed per-state truth table: one bit per local state
// of a computation, indexed (p, k). It is the precomputed form of a
// per-process family of local predicates, built once and then queried
// with a shift and a mask — no closure call, no interface dispatch, no
// allocation. Use it where the same local predicates are evaluated
// repeatedly over the computation (the off-line controller's two passes,
// lattice enumeration); single-pass scans are better off calling the
// predicate closures directly, since a table build is itself one pass.
type TruthTable struct {
	lens []int
	off  []int // off[p]: bit index of state (p, 0)
	bits []uint64
}

// newTruthTable allocates an all-false table for a computation whose
// process p has lens[p] states.
func newTruthTable(lens []int) *TruthTable {
	t := &TruthTable{lens: append([]int(nil), lens...), off: make([]int, len(lens))}
	total := 0
	for p, l := range lens {
		t.off[p] = total
		total += l
	}
	t.bits = make([]uint64, (total+63)/64)
	return t
}

// Set records the truth value at state (p, k).
func (t *TruthTable) Set(p, k int, v bool) {
	i := t.off[p] + k
	if v {
		t.bits[i>>6] |= 1 << (i & 63)
	} else {
		t.bits[i>>6] &^= 1 << (i & 63)
	}
}

// Holds reports the truth value at state (p, k).
func (t *TruthTable) Holds(p, k int) bool {
	i := t.off[p] + k
	return t.bits[i>>6]>>(i&63)&1 != 0
}

// Invert returns a new table with every state's truth value negated.
func (t *TruthTable) Invert() *TruthTable {
	u := newTruthTable(t.lens)
	for i, w := range t.bits {
		u.bits[i] = ^w
	}
	return u
}

// bitExpr is a compiled local predicate: its truth over every state of
// its process, packed. Eval is a load, a shift and a mask.
type bitExpr struct {
	p    int
	name string
	bits []uint64
}

func (e *bitExpr) Eval(_ *deposet.Deposet, g deposet.Cut) bool {
	k := g[e.p]
	return e.bits[k>>6]>>(k&63)&1 != 0
}

func (e *bitExpr) String() string { return (&localExpr{p: e.p, name: e.name}).String() }

// Compile precomputes every Local leaf of e over d, returning an
// equivalent expression whose leaves are packed bit rows. Evaluating the
// result never calls a LocalFn, so repeated evaluation — one Eval per
// consistent cut during lattice enumeration — costs O(leaves) bit tests
// per cut regardless of how expensive the original local predicates are.
// The compiled expression is only valid for the computation it was
// compiled against.
func Compile(e Expr, d *deposet.Deposet) Expr {
	switch x := e.(type) {
	case *localExpr:
		l := d.Len(x.p)
		bits := make([]uint64, (l+63)/64)
		holds := x.on(d)
		for k := 0; k < l; k++ {
			if holds(k) {
				bits[k>>6] |= 1 << (k & 63)
			}
		}
		return &bitExpr{p: x.p, name: x.name, bits: bits}
	case *andExpr:
		xs := make([]Expr, len(x.xs))
		for i, sub := range x.xs {
			xs[i] = Compile(sub, d)
		}
		return &andExpr{xs}
	case *orExpr:
		xs := make([]Expr, len(x.xs))
		for i, sub := range x.xs {
			xs[i] = Compile(sub, d)
		}
		return &orExpr{xs}
	case *notExpr:
		return &notExpr{Compile(x.x, d)}
	case normalForm:
		return Compile(x.Expr(), d)
	default:
		return e
	}
}
