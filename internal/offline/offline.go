// Package offline implements the paper's primary contribution: off-line
// predicate control. Given a traced computation (deposet) and a safety
// predicate B, it synthesizes a control relation — extra causal
// dependencies realized as control messages — such that every global
// sequence of the controlled replay satisfies B, or reports that B is
// infeasible for the trace.
//
// Control (this file) solves the disjunctive case B = l1 ∨ … ∨ ln in
// O(n²p·log p) time for n processes with at most p false-intervals each,
// emitting at most one control message per chain handoff (O(np) total,
// the paper's bound). It builds the same alternating chain of true
// intervals and backward control arrows as the paper's Figure 2, but
// anchors every link to an explicitly constructed linearization, making
// interference (runtime deadlock) impossible by construction; see
// ControlFigure2 for the literal pseudocode and the gap this closes.
// ControlGeneral (general.go) handles arbitrary predicates by exhaustive
// search — exponential, as it must be: Theorem 1 shows the general
// problem is NP-hard.
package offline

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
)

// ErrInfeasible is returned when no control strategy can enforce B: some
// set of false-intervals overlaps (paper Lemma 2), so every interleaving
// of the computation passes through a B-violating global state.
var ErrInfeasible = errors.New("offline: no controller exists (predicate infeasible for this computation)")

// Result carries the synthesized control relation and diagnostics.
type Result struct {
	// Relation is the control relation ⟶C to impose during replay.
	Relation control.Relation
	// Iterations counts chain handoffs (Control) or main-loop iterations
	// (ControlFigure2); the paper bounds it, and so the relation size,
	// by np.
	Iterations int
	// Witness, set when Control fails with ErrInfeasible, holds an
	// overlapping set of false-intervals proving infeasibility.
	Witness []deposet.Interval
	// Fallback reports that the chain greedy got stuck on a feasible
	// instance and the exhaustive general controller was used instead.
	// Never observed in testing; present so benchmarks can assert the
	// polynomial path was taken.
	Fallback bool
}

// Options tune the algorithms; the zero value is deterministic.
type Options struct {
	// Rand, when non-nil, randomizes selection order (the paper's
	// select()); nil scans in process order.
	Rand *rand.Rand
	// Naive (ControlFigure2 only) recomputes the ValidPairs set from
	// scratch each iteration — the O(n³p) implementation the paper's
	// Evaluation section contrasts with the optimized O(n²p) one.
	Naive bool
	// PreferLate (Control only) orders handoff candidates latest-entry
	// first instead of earliest-first. The chain then jumps to the most
	// durable true segments: far fewer control messages, but far less
	// concurrency retained (long stretches of the computation get
	// serialized). Exposed for the ablation in EXPERIMENTS.md; the
	// paper's §5 Evaluation argues for the concurrency-preserving
	// default.
	PreferLate bool
}

// chain is the under-construction control strategy: a chain of true
// segments linked by backward control edges, as in the paper's Figure 2.
type chain struct {
	d   *deposet.Deposet
	n   int
	ivs [][]deposet.Interval  // false-intervals per process
	ft  *predicate.TruthTable // falsity table: Holds(p,k) = ¬lp(p,k)

	g        deposet.Cut // scheduled frontier (a consistent cut)
	minEntry []int       // earliest state at which p may hold again

	holder int
	hEnd   int // segment end: first false state after the holder's entry; Len(holder) if none

	rel      control.Relation
	handoffs int
}

// Control synthesizes a controller for the disjunctive predicate dj on d.
// On success the returned relation never interferes with the
// computation's causality and the controlled deposet satisfies dj in
// every consistent global state; on ErrInfeasible the Result carries a
// witness overlapping interval set.
//
// The construction maintains one *holder*: a process known to be inside
// a true segment of the schedule built so far. To let the holder h
// approach its next false-interval (entered at state hEnd), a new holder
// h′ must first enter a true segment at some state y, with the control
// edge (h′, y−1) ⟶C (h, hEnd) recording the obligation. The pair (h′, y)
// is admissible iff entering y is not itself causally forced after h
// enters its false-interval (¬ (h, hEnd−1) → (h′, y)); scheduling then
// extends the frontier by y's causal closure, so every edge points
// backward along one linearization and the relation is acyclic by
// construction. Each handoff retires one false-interval of the old
// holder, bounding handoffs — and control messages — by n(p+1).
//
// Handoff choices are explored depth-first, earliest admissible entries
// first (preserving concurrency; see Options.PreferLate for the
// ablation) with restarts as a last resort; dead states are memoized, so
// the common case is a straight greedy run and pathological instances
// degrade gracefully instead of failing. Candidates are built on demand,
// so a greedy handoff costs O(n·log p) — one first-entry lookup per
// process until one is admissible, plus the O(n) snapshot and frontier
// update — and the run O(n²p·log p) over its n(p+1) handoffs.
func Control(d *deposet.Deposet, dj *predicate.Disjunction, opts Options) (*Result, error) {
	if dj.NumProcs() != d.NumProcs() {
		return nil, fmt.Errorf("offline: predicate ranges over %d processes, computation has %d",
			dj.NumProcs(), d.NumProcs())
	}
	c := newChain(d, dj)
	res := &Result{}
	if c.holder == -1 {
		// Every process is false at ⊥: the initial state itself violates
		// B, and the first intervals overlap pairwise via their ⊥ clause.
		for _, ivs := range c.ivs {
			res.Witness = append(res.Witness, ivs[0])
		}
		return res, ErrInfeasible
	}

	if !c.search(newMemo(), opts) {
		return c.giveUp(d, dj, res)
	}
	res.Relation = c.rel
	res.Iterations = c.handoffs
	return res, nil
}

// newChain starts the chain at ⊥ with the first process true there as
// its holder; holder is -1 when none is.
func newChain(d *deposet.Deposet, dj *predicate.Disjunction) *chain {
	n := d.NumProcs()
	c := &chain{d: d, n: n, g: d.BottomCut(), minEntry: make([]int, n), holder: -1}
	c.ft, c.ivs = falseIntervals(d, dj)
	for p := 0; p < n; p++ {
		if len(c.ivs[p]) == 0 || c.ivs[p][0].Lo != 0 {
			c.holder, c.hEnd = p, c.segmentEnd(p, 0)
			break
		}
	}
	return c
}

// falseIntervals evaluates dj's locals exactly once per state into a
// packed falsity table, Holds(p,k) = ¬lp(p,k), and scans every process's
// false-intervals out of it: the input of both engines. Whatever reads
// the locals afterwards (giveUp's infeasibility check) reads the bits
// instead of re-calling the closures.
func falseIntervals(d *deposet.Deposet, dj *predicate.Disjunction) (*predicate.TruthTable, [][]deposet.Interval) {
	ft := dj.TruthTable(d).Invert()
	ivs := make([][]deposet.Interval, d.NumProcs())
	for p := range ivs {
		ivs[p] = deposet.TruthIntervals(d, p, ft.Holds)
	}
	return ft, ivs
}

// snapshot captures the mutable chain state for backtracking. Ordinary
// handoffs only append to the relation, so restoring truncates; only a
// restart (which wipes the relation) needs a full copy.
type snapshot struct {
	g        deposet.Cut
	minEntry []int
	holder   int
	hEnd     int
	relLen   int
	relCopy  control.Relation // non-nil only when the branch restarts
	handoffs int
}

func (c *chain) save(isRestart bool) snapshot {
	s := snapshot{
		g:        c.g.Clone(),
		minEntry: append([]int(nil), c.minEntry...),
		holder:   c.holder,
		hEnd:     c.hEnd,
		relLen:   len(c.rel),
		handoffs: c.handoffs,
	}
	if isRestart {
		s.relCopy = append(control.Relation(nil), c.rel...)
	}
	return s
}

func (c *chain) restore(s snapshot) {
	c.g = s.g
	c.minEntry = s.minEntry
	c.holder = s.holder
	c.hEnd = s.hEnd
	if s.relCopy != nil {
		c.rel = s.relCopy
	} else {
		c.rel = c.rel[:s.relLen]
	}
	c.handoffs = s.handoffs
}

// memo is the dead-state set of the chain search. A search state is the
// tuple (holder, hEnd, g, minEntry), encoded fixed-width (one uint32 per
// component — no truncation, so distinct states never share an encoding)
// and bucketed by a 64-bit FNV-style hash; buckets resolve hash
// collisions by exact comparison. The scratch buffer is reused across
// lookups, so a hit allocates nothing.
type memo struct {
	table map[uint64][]savedState
	buf   []uint32
}

// savedState is one encoded dead search state.
type savedState []uint32

func newMemo() *memo { return &memo{table: make(map[uint64][]savedState)} }

// encode writes c's search state into the reusable scratch buffer.
func (m *memo) encode(c *chain) []uint32 {
	buf := m.buf[:0]
	buf = append(buf, uint32(c.holder), uint32(c.hEnd))
	for i := range c.g {
		buf = append(buf, uint32(c.g[i]), uint32(c.minEntry[i]))
	}
	m.buf = buf
	return buf
}

func hashState(s []uint32) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, v := range s {
		h ^= uint64(v)
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}

func equalStates(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dead reports whether c's current search state is memoized as dead.
func (m *memo) dead(c *chain) bool {
	s := m.encode(c)
	for _, prev := range m.table[hashState(s)] {
		if equalStates(prev, s) {
			return true
		}
	}
	return false
}

// markDead memoizes c's current search state as dead.
func (m *memo) markDead(c *chain) {
	s := m.encode(c)
	h := hashState(s)
	m.table[h] = append(m.table[h], append(savedState(nil), s...))
}

// apply performs the handoff to (h2, y): emit (or restart) the chain
// edge, retire the old holder's interval, and extend the scheduled
// frontier by y's causal closure.
func (c *chain) apply(h2, y int) {
	if y == 0 {
		c.rel = c.rel[:0] // chain restarts at ⊥ of h2
	} else {
		c.rel = append(c.rel, control.Edge{
			From: deposet.StateID{P: h2, K: y - 1},
			To:   deposet.StateID{P: c.holder, K: c.hEnd},
		})
	}
	c.minEntry[c.holder] = c.intervalAt(c.holder, c.hEnd).Hi + 1
	clock := c.d.Deps(deposet.StateID{P: h2, K: y})
	for i := 0; i < c.n; i++ {
		if v := int(clock[i]) + 1; i != h2 && v > c.g[i] {
			c.g[i] = v
		}
	}
	if y > c.g[h2] {
		c.g[h2] = y
	}
	c.holder = h2
	c.hEnd = c.segmentEnd(h2, y)
	c.handoffs++
}

// search extends the chain until the holder's segment reaches ⊤,
// backtracking over handoff choices. failed memoizes dead states.
func (c *chain) search(failed *memo, opts Options) bool {
	if c.hEnd == c.d.Len(c.holder) {
		return true
	}
	if failed.dead(c) {
		return false
	}
	for cand := range c.candidates(opts) {
		s := c.save(cand.y == 0)
		c.apply(cand.p, cand.y)
		if c.search(failed, opts) {
			return true
		}
		c.restore(s)
	}
	failed.markDead(c)
	return false
}

// segmentEnd returns the first false state of p after (or at) entry —
// the Lo of the first false-interval with Lo > entry is not right: entry
// itself is true, so it is the Lo of the first interval starting after
// entry — or Len(p) when the segment runs to ⊤.
func (c *chain) segmentEnd(p, entry int) int {
	ivs := c.ivs[p]
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Lo > entry })
	if i == len(ivs) {
		return c.d.Len(p)
	}
	return ivs[i].Lo
}

// intervalAt returns the false-interval of p starting at state lo.
func (c *chain) intervalAt(p, lo int) deposet.Interval {
	ivs := c.ivs[p]
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Lo >= lo })
	if i == len(ivs) || ivs[i].Lo != lo {
		panic("offline: no interval at expected position")
	}
	return ivs[i]
}

// entryAfter returns the earliest true state y ≥ from on p, or ok=false.
func (c *chain) entryAfter(p, from int) (int, bool) {
	if from >= c.d.Len(p) {
		return 0, false
	}
	ivs := c.ivs[p]
	// Find the interval containing `from`, if any.
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi >= from })
	if i == len(ivs) || ivs[i].Lo > from {
		return from, true // from itself is true
	}
	if y := ivs[i].Hi + 1; y < c.d.Len(p) {
		return y, true
	}
	return 0, false // false through ⊤
}

// candidate is one possible handoff: process p entering a true segment
// at state y.
type candidate struct{ p, y int }

// entries is one process's admissible entries in ascending order: first,
// then the state after each false-interval in later. first < 0 marks a
// process with none; later is valid once sized.
type entries struct {
	p, first int
	later    []deposet.Interval
	sized    bool
}

// at returns the entry of rank r: ascending, or descending when late.
func (e *entries) at(r int, late bool) (int, bool) {
	n := 1 + len(e.later)
	if e.first < 0 || r >= n {
		return 0, false
	}
	if late {
		r = n - 1 - r
	}
	if r == 0 {
		return e.first, true
	}
	return e.later[r-1].Hi + 1, true
}

// candidates yields the admissible handoffs from the current state: for
// each process p ≠ holder, every true-segment entry y with
// y ≥ max(g[p], minEntry[p]) and ¬ blockState → (p, y). The block test
// is monotone in y, so each process contributes a prefix of its entries,
// located by binary search.
//
// Order encodes the search heuristic: earliest entries first,
// round-robin across processes — rank 0 of every process in turn, then
// rank 1, and so on — with restarts (y = 0, which discard the chain
// built so far) last. An early entry keeps the chain close to the
// computation — one short synchronization per interval, maximizing the
// concurrency the paper's §5 Evaluation calls for — while later entries
// (which serialize more) remain available to the backtracking search
// when the greedy path dead-ends.
//
// The sequence is produced on demand, because the greedy path takes the
// first candidate almost always: a process's first entry is looked up
// when its rank-0 turn comes, its admissible prefix only when rank 1 is
// asked for (up front under PreferLate, which yields the last entry
// first). Lazy reads see the state an eager enumeration would: search
// restores g, minEntry, holder and hEnd before it asks for the next
// candidate, and block is fixed when the enumeration starts.
func (c *chain) candidates(opts Options) iter.Seq[candidate] {
	return func(yield func(candidate) bool) {
		procs := make([]entries, 0, c.n-1)
		for p := 0; p < c.n; p++ {
			if p != c.holder {
				procs = append(procs, entries{p: p})
			}
		}
		if opts.Rand != nil {
			opts.Rand.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
		}
		block := deposet.StateID{P: c.holder, K: c.hEnd - 1}
		// Two sweeps rank by rank: the entries, then the restarts.
		for _, restarts := range [2]bool{false, true} {
			for r, more := 0, true; more; r++ {
				more = false
				for i := range procs {
					e := &procs[i]
					if r == 0 && !restarts {
						e.first = c.firstEntry(e.p, block)
					}
					if e.first >= 0 && !e.sized && (r > 0 || opts.PreferLate) {
						e.later, e.sized = c.laterEntries(e.p, e.first, block), true
					}
					y, ok := e.at(r, opts.PreferLate)
					more = more || ok
					if ok && (y == 0) == restarts && !yield(candidate{e.p, y}) {
						return
					}
				}
			}
		}
	}
}

// firstEntry returns p's earliest entry y ≥ max(g[p], minEntry[p]) if
// it is admissible (¬ block → (p, y)), else -1.
func (c *chain) firstEntry(p int, block deposet.StateID) int {
	first, found := c.entryAfter(p, max(c.g[p], c.minEntry[p]))
	if !found || c.d.HB(block, deposet.StateID{P: p, K: first}) {
		return -1
	}
	return first
}

// laterEntries returns the false-intervals after first whose successor
// states are admissible entries of p: a prefix, by monotonicity of HB.
func (c *chain) laterEntries(p, first int, block deposet.StateID) []deposet.Interval {
	ivs := c.ivs[p]
	span := ivs[sort.Search(len(ivs), func(i int) bool { return ivs[i].Hi+1 > first }):]
	adm := sort.Search(len(span), func(i int) bool {
		y := span[i].Hi + 1
		return y >= c.d.Len(p) || c.d.HB(block, deposet.StateID{P: p, K: y})
	})
	return span[:adm]
}

// giveUp resolves a stuck greedy: if the instance is genuinely
// infeasible, report it with the overlap witness; otherwise fall back to
// the exhaustive general controller (tracked in Result.Fallback).
func (c *chain) giveUp(d *deposet.Deposet, dj *predicate.Disjunction, res *Result) (*Result, error) {
	witness, definitely := detect.DefinitelyTruth(d, c.ft.Holds)
	if definitely {
		res.Witness = witness
		return res, ErrInfeasible
	}
	rel, _, err := ControlGeneral(d, dj.Expr())
	if err != nil {
		res.Witness = nil
		return res, err
	}
	res.Relation = rel
	res.Fallback = true
	return res, nil
}
