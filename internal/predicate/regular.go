package predicate

import "predctl/internal/deposet"

// The regular fragment.
//
// A predicate B is regular when its satisfying consistent cuts are closed
// under componentwise min and max — they form a sublattice of the cut
// lattice, which is what computation slicing (internal/slice) exploits.
// Deciding regularity semantically is as hard as detection itself, so we
// recognize a syntactic fragment that is always regular: predicates that,
// after pushing negations to the leaves, are a conjunction of clauses
// each of which reads the state of at most one process,
//
//	B = ∧p cp(g[p])
//
// i.e. B factors into one independent local condition per process. Every
// conjunctive predicate is in the fragment; so is the negation of a
// disjunctive one (De Morgan), which is how the detectors' "violations of
// B = ∨ lp" queries become sliceable. The two normal forms (*Conjunction,
// *Disjunction) are read through their Expr(), so passing one directly is
// the same as passing its expression. A disjunction across two or more
// processes is NOT in the fragment (its cut set is generally not
// min-closed) and is rejected.

// normalForm is a predicate held in a structured form that also renders
// itself as a plain expression tree: *Disjunction and *Conjunction. The
// walks over expression trees here and in Compile read one through that
// tree.
type normalForm interface{ Expr() Expr }

// regClause is one per-process factor of a regular predicate: a subtree
// reading only process p, negated iff neg (the NNF polarity it was
// reached under).
type regClause struct {
	p   int
	e   Expr
	neg bool
}

// collectRegular walks e under polarity neg (neg=true means the subtree
// is effectively negated), appending per-process clauses to out. It
// returns false as soon as the expression leaves the fragment. A
// constant-false conjunct sets *constFalse instead of emitting a clause.
func collectRegular(e Expr, neg bool, out *[]regClause, constFalse *bool) bool {
	switch x := e.(type) {
	case *constExpr:
		if x.v == neg { // effective value false
			*constFalse = true
		}
		return true
	case *localExpr:
		*out = append(*out, regClause{x.p, e, neg})
		return true
	case *bitExpr:
		*out = append(*out, regClause{x.p, e, neg})
		return true
	case *notExpr:
		return collectRegular(x.x, !neg, out, constFalse)
	case normalForm:
		return collectRegular(x.Expr(), neg, out, constFalse)
	case *andExpr:
		if neg { // ¬(a ∧ b) = ¬a ∨ ¬b: a disjunction
			return clauseIfSingleProc(e, neg, out, constFalse)
		}
		for _, sub := range x.xs {
			if !collectRegular(sub, neg, out, constFalse) {
				return false
			}
		}
		return true
	case *orExpr:
		if !neg { // a disjunction at positive polarity
			return clauseIfSingleProc(e, neg, out, constFalse)
		}
		// ¬(a ∨ b) = ¬a ∧ ¬b: recurse as a conjunction.
		for _, sub := range x.xs {
			if !collectRegular(sub, neg, out, constFalse) {
				return false
			}
		}
		return true
	default:
		// Unknown Expr implementations read who-knows-what; reject.
		return false
	}
}

// clauseIfSingleProc accepts a disjunctive subtree only when it reads at
// most one process, in which case the whole subtree is one local clause.
func clauseIfSingleProc(e Expr, neg bool, out *[]regClause, constFalse *bool) bool {
	p, multi, any := exprSpan(e)
	if multi {
		return false
	}
	if !any { // constants only: fold
		v, ok := evalConstOnly(e)
		if !ok {
			return false
		}
		if v == neg { // effective value false
			*constFalse = true
		}
		return true
	}
	*out = append(*out, regClause{p, e, neg})
	return true
}

// exprSpan reports which processes a subtree reads: a single process p
// (any=true, multi=false), more than one (multi=true), or none at all
// (any=false — constants only). Unknown Expr implementations are treated
// as multi-process.
func exprSpan(e Expr) (p int, multi, any bool) {
	switch x := e.(type) {
	case *localExpr:
		return x.p, false, true
	case *bitExpr:
		return x.p, false, true
	case *constExpr:
		return 0, false, false
	case *notExpr:
		return exprSpan(x.x)
	case normalForm:
		return exprSpan(x.Expr())
	case *andExpr:
		return spanAll(x.xs)
	case *orExpr:
		return spanAll(x.xs)
	default:
		return 0, true, true
	}
}

func spanAll(xs []Expr) (p int, multi, any bool) {
	for _, sub := range xs {
		sp, smulti, sany := exprSpan(sub)
		if smulti {
			return 0, true, true
		}
		if !sany {
			continue
		}
		if any && sp != p {
			return 0, true, true
		}
		p, any = sp, true
	}
	return p, false, any
}

// evalConstOnly evaluates a subtree built from constants alone.
func evalConstOnly(e Expr) (v, ok bool) {
	switch x := e.(type) {
	case *constExpr:
		return x.v, true
	case *notExpr:
		v, ok = evalConstOnly(x.x)
		return !v, ok
	case normalForm:
		return evalConstOnly(x.Expr())
	case *andExpr:
		for _, sub := range x.xs {
			if v, ok = evalConstOnly(sub); !ok || !v {
				return v, ok
			}
		}
		return true, true
	case *orExpr:
		for _, sub := range x.xs {
			if v, ok = evalConstOnly(sub); !ok || v {
				return v, ok
			}
		}
		return false, true
	default:
		return false, false
	}
}

// RegularTable factors a regular predicate over d into its per-state
// truth table: Holds(p, k) is the conjunction of e's process-p clauses at
// state (p, k), and e itself holds at a cut g iff Holds(p, g[p]) for
// every p. Processes without a clause are all-true. ok=false means e is
// outside the regular fragment (the table is nil); a regular predicate
// that folds to constant false yields an all-false table.
func RegularTable(e Expr, d *deposet.Deposet) (t *TruthTable, ok bool) {
	var clauses []regClause
	var constFalse bool
	if !collectRegular(e, false, &clauses, &constFalse) {
		return nil, false
	}
	n := d.NumProcs()
	lens := make([]int, n)
	for p := range lens {
		lens[p] = d.Len(p)
	}
	t = newTruthTable(lens)
	if constFalse {
		return t, true // all-false
	}
	for p := 0; p < n; p++ {
		for k := 0; k < lens[p]; k++ {
			t.Set(p, k, true)
		}
	}
	g := make(deposet.Cut, n)
	for _, c := range clauses {
		if c.p < 0 || c.p >= n {
			return nil, false
		}
		// A bare local reads its process's state directly; any other
		// clause is evaluated at a cut that varies only at c.p.
		holds := func(k int) bool { g[c.p] = k; return c.e.Eval(d, g) }
		if x, ok := c.e.(*localExpr); ok {
			holds = x.on(d)
		}
		for k := 0; k < lens[c.p]; k++ {
			if t.Holds(c.p, k) && holds(k) == c.neg {
				t.Set(c.p, k, false)
			}
		}
		g[c.p] = 0
	}
	return t, true
}
