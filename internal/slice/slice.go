// Package slice implements computation slicing (Mittal & Garg) for
// regular predicates. The slice of a computation with respect to a
// regular predicate B is the sublattice of consistent cuts satisfying B:
// because B's cut set is closed under componentwise min and max, it is a
// distributive lattice, and by Birkhoff's theorem it is captured exactly
// by its join-irreducible elements — at most one per local state, so
// O(total states) of them — rather than by the (potentially exponential)
// lattice itself.
//
// The representation here is the "graph of meta-events": for each
// process p and index k the least B-satisfying consistent cut J(p,k)
// with g[p] ≥ k is computed by a fixpoint that interleaves truth
// advancement with consistency closure. Distinct J cuts become
// meta-events; equal ones (the same least cut reached from several
// local states, i.e. states that must be passed together) collapse into
// one meta-event, the slice's strongly-connected components. Every cut
// of the slice is the bottom W joined with the cuts of a down-closed set
// (ideal) of meta-events, and conversely — so detection enumerates
// ideals of the meta-event poset instead of walking the raw lattice, and
// the enumeration needs no visited set: adding meta-events in a fixed
// linear extension makes every ideal reachable in exactly one order.
package slice

import (
	"sort"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// meta is one meta-event: a join-irreducible cut of the slice, with the
// precomputed vectors the ideal enumeration needs.
type meta struct {
	cut   deposet.Cut
	depth int32   // Σ components, for the (depth, lex) linear extension
	pos   []int32 // position in chain p, or -1 if not on chain p
	need  []int32 // chain-p elements strictly below this cut (addability threshold)
	diffP int32   // when diff == 1: the process the cover step advances
	diff  int32   // total state-advance of the cover step over the preceding ideal
}

// Slice is the computed slice of a computation with respect to a regular
// predicate's truth table. The zero cuts case (no satisfying cut at all)
// is represented with empty == true.
type Slice struct {
	d     *deposet.Deposet
	n     int
	empty bool

	bottom deposet.Cut // least satisfying cut W (nil when empty)
	top    deposet.Cut // greatest satisfying cut Z (nil when empty)

	metas  []meta  // sorted by (depth, lex): a linear extension of the cut order
	chains [][]int // per process: meta index of each chain element, ascending
}

// Stats summarizes the size of a slice relative to the computation.
type Stats struct {
	MetaEvents  int // distinct join-irreducible cuts
	ChainStates int // chain elements before cross-chain collapse
	Empty       bool
}

// computer holds the fixpoint scratch for Compute.
type computer struct {
	d    *deposet.Deposet
	n    int
	next [][]int32 // next[p][k]: least j ≥ k with t.Holds(p,j), or Len(p)
	prev [][]int32 // prev[p][k]: greatest j ≤ k with t.Holds(p,j), or -1
}

// Compute builds the slice of d with respect to the factored truth table
// t of a regular predicate (predicate.RegularTable). Cost is
// O(states · procs²) fixpoint work plus O(meta-events · procs · log)
// for the meta-event graph — polynomial, independent of the lattice size.
func Compute(d *deposet.Deposet, t *predicate.TruthTable) *Slice {
	n := d.NumProcs()
	c := &computer{d: d, n: n, next: make([][]int32, n), prev: make([][]int32, n)}
	for p := 0; p < n; p++ {
		l := d.Len(p)
		np := make([]int32, l+1)
		np[l] = int32(l)
		for k := l - 1; k >= 0; k-- {
			if t.Holds(p, k) {
				np[k] = int32(k)
			} else {
				np[k] = np[k+1]
			}
		}
		pp := make([]int32, l)
		last := int32(-1)
		for k := 0; k < l; k++ {
			if t.Holds(p, k) {
				last = int32(k)
			}
			pp[k] = last
		}
		c.next[p] = np
		c.prev[p] = pp
	}

	s := &Slice{d: d, n: n}
	w := make(deposet.Cut, n)
	if !c.leastFix(w) {
		s.empty = true
		return s
	}
	z := d.TopCut()
	if !c.greatestFix(z) {
		// Cannot happen when a least cut exists; defensive.
		s.empty = true
		return s
	}
	s.bottom, s.top = w, z

	// Per-process chains of join-irreducible cuts: J(p,k) for
	// k ∈ (W[p], Z[p]]. Each J is the least satisfying cut whose p-th
	// component is ≥ k; successive fixpoints continue from the previous
	// one, so a chain element whose fixpoint overshot several k values
	// stands for all of them.
	chainCuts := make([][]deposet.Cut, n)
	g := make(deposet.Cut, n)
	for p := 0; p < n; p++ {
		copy(g, w)
		for g[p] < z[p] {
			g[p]++
			if !c.leastFix(g) || !g.Leq(z) {
				break // defensive: J(p,k) exists and is ≤ Z for k ≤ Z[p]
			}
			chainCuts[p] = append(chainCuts[p], g.Clone())
		}
	}
	s.buildMetas(chainCuts)
	return s
}

// leastFix raises g in place to the least satisfying consistent cut ≥ g,
// returning false if none exists. Each repair step is forced — any
// satisfying consistent cut ≥ g must make it — so the fixpoint is the
// least such cut.
func (c *computer) leastFix(g deposet.Cut) bool {
	d, n := c.d, c.n
	for {
		changed := false
		for p := 0; p < n; p++ {
			k := int(c.next[p][g[p]])
			if k >= d.Len(p) {
				return false
			}
			if k != g[p] {
				g[p] = k
				changed = true
			}
		}
		for j := 0; j < n; j++ {
			row := d.Deps(deposet.StateID{P: j, K: g[j]})
			for i := 0; i < n; i++ {
				if i != j && int(row[i]) >= g[i] {
					// Frontier state (j, g[j]) causally dominates (i, g[i]):
					// i must advance past the dependency.
					g[i] = int(row[i]) + 1
					if g[i] >= d.Len(i) {
						return false
					}
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// greatestFix lowers g in place to the greatest satisfying consistent
// cut ≤ g, returning false if none exists (the dual of leastFix).
func (c *computer) greatestFix(g deposet.Cut) bool {
	d, n := c.d, c.n
	for {
		changed := false
		for p := 0; p < n; p++ {
			k := c.prev[p][g[p]]
			if k < 0 {
				return false
			}
			if int(k) != g[p] {
				g[p] = int(k)
				changed = true
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				// Need clock(j, g[j])[i] < g[i]: lower j below the dependency.
				for g[j] >= 0 && int(d.Deps(deposet.StateID{P: j, K: g[j]})[i]) >= g[i] {
					g[j]--
					changed = true
				}
				if g[j] < 0 {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// buildMetas collapses equal chain cuts into meta-events, sorts them by
// (depth, lex) — a linear extension of the cut order, since a strictly
// smaller cut has a strictly smaller depth — and precomputes the pos,
// need and cover-diff vectors.
func (s *Slice) buildMetas(chainCuts [][]deposet.Cut) {
	n := s.n
	index := map[string]int{}
	var cuts []deposet.Cut
	for p := 0; p < n; p++ {
		for _, g := range chainCuts[p] {
			key := g.Key()
			if _, ok := index[key]; !ok {
				index[key] = len(cuts)
				cuts = append(cuts, g)
			}
		}
	}
	order := make([]int, len(cuts))
	for i := range order {
		order[i] = i
	}
	depth := func(g deposet.Cut) int32 {
		sum := int32(0)
		for _, k := range g {
			sum += int32(k)
		}
		return sum
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := cuts[order[a]], cuts[order[b]]
		da, db := depth(ga), depth(gb)
		if da != db {
			return da < db
		}
		for i := range ga {
			if ga[i] != gb[i] {
				return ga[i] < gb[i]
			}
		}
		return false
	})
	rank := make([]int, len(cuts)) // original index -> sorted index
	s.metas = make([]meta, len(cuts))
	for sorted, orig := range order {
		rank[orig] = sorted
		s.metas[sorted] = meta{
			cut:   cuts[orig],
			depth: depth(cuts[orig]),
			pos:   make([]int32, n),
			need:  make([]int32, n),
		}
		for p := 0; p < n; p++ {
			s.metas[sorted].pos[p] = -1
		}
	}
	s.chains = make([][]int, n)
	for p := 0; p < n; p++ {
		s.chains[p] = make([]int, len(chainCuts[p]))
		for i, g := range chainCuts[p] {
			qi := rank[index[g.Key()]]
			s.chains[p][i] = qi
			s.metas[qi].pos[p] = int32(i)
		}
	}
	// need[p] = number of chain-p elements strictly below the meta's cut.
	// Chain elements ≤ the cut form a prefix (the chain is totally
	// ordered), located by binary search; the meta itself, when on chain
	// p, is the last element of that prefix.
	prevJoin := make(deposet.Cut, n)
	for qi := range s.metas {
		q := &s.metas[qi]
		copy(prevJoin, s.bottom)
		for p := 0; p < n; p++ {
			chain := chainCuts[p]
			cnt := sort.Search(len(chain), func(i int) bool { return !chain[i].Leq(q.cut) })
			if q.pos[p] >= 0 {
				cnt-- // don't count q itself
			}
			q.need[p] = int32(cnt)
			if cnt > 0 {
				// Largest strict predecessor on chain p; joining these
				// over all p gives the cut of the ideal just below q.
				pred := chain[cnt-1]
				for i := 0; i < n; i++ {
					if pred[i] > prevJoin[i] {
						prevJoin[i] = pred[i]
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			step := int32(q.cut[i] - prevJoin[i])
			q.diff += step
			if step > 0 {
				q.diffP = int32(i)
			}
		}
	}
}

// Empty reports whether no consistent cut satisfies the predicate.
func (s *Slice) Empty() bool { return s.empty }

// Bottom returns the least satisfying cut (nil when the slice is empty).
func (s *Slice) Bottom() deposet.Cut { return s.bottom }

// Top returns the greatest satisfying cut (nil when the slice is empty).
func (s *Slice) Top() deposet.Cut { return s.top }

// Stats returns the size of the slice representation.
func (s *Slice) Stats() Stats {
	st := Stats{MetaEvents: len(s.metas), Empty: s.empty}
	for _, ch := range s.chains {
		st.ChainStates += len(ch)
	}
	return st
}

// enumState is the scratch of one ideal-enumeration walk.
type enumState struct {
	s    *Slice
	c    []int32 // per process: chain elements currently in the ideal
	g    deposet.Cut
	undo []int32 // (process, old component) pairs for cut rollback
}

// dfs enumerates, in increasing-maxidx order, every ideal extending the
// current one with meta-events of index > maxidx, passing each ideal's
// cut to f and stopping (returning false) as soon as f does. Because the
// meta order is a linear extension, every ideal is produced exactly once
// — no visited set.
func (e *enumState) dfs(maxidx int, f func(deposet.Cut) bool) bool {
	if !f(e.g) {
		return false
	}
	s := e.s
	for qi := maxidx + 1; qi < len(s.metas); qi++ {
		q := &s.metas[qi]
		addable := true
		for p := 0; p < s.n; p++ {
			if e.c[p] < q.need[p] {
				addable = false
				break
			}
		}
		if !addable {
			continue
		}
		mark := len(e.undo)
		for p := 0; p < s.n; p++ {
			if q.pos[p] >= 0 {
				e.c[p] = q.pos[p] + 1
			}
			if q.cut[p] > e.g[p] {
				e.undo = append(e.undo, int32(p), int32(e.g[p]))
				e.g[p] = q.cut[p]
			}
		}
		if !e.dfs(qi, f) {
			return false
		}
		for p := 0; p < s.n; p++ {
			if q.pos[p] >= 0 {
				e.c[p] = q.pos[p]
			}
		}
		for i := len(e.undo) - 2; i >= mark; i -= 2 {
			e.g[e.undo[i]] = int(e.undo[i+1])
		}
		e.undo = e.undo[:mark]
	}
	return true
}

// ForEachCut calls f for every cut of the slice in canonical forest
// order (not depth order), stopping early if f returns false. The cut
// passed to f is reused between calls; clone it to retain it.
func (s *Slice) ForEachCut(f func(deposet.Cut) bool) {
	if s.empty {
		return
	}
	e := &enumState{s: s, c: make([]int32, s.n), g: s.bottom.Clone()}
	e.dfs(-1, f)
}

// Cuts enumerates every cut of the slice, returned in (depth, lex)
// order.
func (s *Slice) Cuts() []deposet.Cut {
	var out []deposet.Cut
	s.ForEachCut(func(g deposet.Cut) bool {
		out = append(out, g.Clone())
		return true
	})
	sortCuts(out)
	return out
}

// sortCuts orders cuts by (depth, lex).
func sortCuts(cuts []deposet.Cut) {
	depths := make([]int32, len(cuts))
	for i, g := range cuts {
		sum := int32(0)
		for _, k := range g {
			sum += int32(k)
		}
		depths[i] = sum
	}
	idx := make([]int, len(cuts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if depths[ia] != depths[ib] {
			return depths[ia] < depths[ib]
		}
		ga, gb := cuts[ia], cuts[ib]
		for i := range ga {
			if ga[i] != gb[i] {
				return ga[i] < gb[i]
			}
		}
		return false
	})
	sorted := make([]deposet.Cut, len(cuts))
	for i, j := range idx {
		sorted[i] = cuts[j]
	}
	copy(cuts, sorted)
}

// SingleStepChain decides, in polynomial time, whether the slice
// contains a global sequence from ⊥ to ⊤ — the offline-control question
// for a regular predicate — and returns one if so. The criterion: the
// slice must be nonempty with W = ⊥ and Z = ⊤, and every meta-event's
// cover step over the ideal of its predecessors must advance exactly one
// process by one state (diff == 1). Then applying the meta-events in any
// linear extension — here the (depth, lex) order — steps through
// satisfying consistent cuts one local state at a time, which is exactly
// a global sequence; and conversely a global sequence inside the slice
// forces every cover of the meta-event lattice to be a single step.
// decided=false means an internal invariant failed and the caller must
// fall back to the exhaustive search (defensive; not expected).
func (s *Slice) SingleStepChain() (seq deposet.Sequence, found, decided bool) {
	if s.empty {
		return nil, false, true
	}
	if !s.bottom.Equal(s.d.BottomCut()) || !s.top.Equal(s.d.TopCut()) {
		return nil, false, true
	}
	for i := range s.metas {
		if s.metas[i].diff != 1 {
			return nil, false, true
		}
	}
	g := s.bottom.Clone()
	seq = deposet.Sequence{g.Clone()}
	for i := range s.metas {
		q := &s.metas[i]
		// The cover diff is fixed: joining q onto the ideal of all
		// previous meta-events advances exactly process diffP by one.
		h := g.Clone()
		for p := 0; p < s.n; p++ {
			if q.cut[p] > h[p] {
				h[p] = q.cut[p]
			}
		}
		g[q.diffP]++
		if !h.Equal(g) {
			return nil, false, false // invariant broken; fall back
		}
		seq = append(seq, g.Clone())
	}
	if !g.Equal(s.top) {
		return nil, false, false
	}
	return seq, true, true
}
