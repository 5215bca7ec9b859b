// Package control models control relations and controlled computations
// (paper §3). A control strategy is realized as extra causal dependencies:
// each tuple u ⟶C v ("u is forced before v") stands for a control message
// sent by u's controller when the underlying process *leaves* state u and
// received, with blocking, by v's controller before state v. The
// controlled deposet is the original computation plus this extra
// causality; it is valid only if the extended precedence relation remains
// an irreflexive partial order (the control relation does not "interfere"
// with →).
//
// The semantics are event-based: the entering event of v waits for the
// exit event of u (event u.K+1 of u's process). Getting this right
// matters — treating the edge as a dependency on u's *state clock* alone
// misses genuine runtime deadlocks, because the exit event of u may
// itself be a message receive with further dependencies. Extend therefore
// merges the clock of state u.K+1 (the state reached by the exit event),
// with its own-process component lowered to u.K: reaching v implies u was
// exited, i.e. state u.K was passed — not that state u.K+1 was passed.
package control

import (
	"errors"
	"fmt"
	"slices"

	"predctl/internal/deposet"
	"predctl/internal/vclock"
)

// Edge is one tuple of the control relation: From ⟶C To.
type Edge struct {
	From deposet.StateID
	To   deposet.StateID
}

func (e Edge) String() string { return fmt.Sprintf("%v ⟶C %v", e.From, e.To) }

// Relation is a control relation: a set of forced-before tuples.
type Relation []Edge

// ErrInterference is returned when a control relation creates a cycle with
// the computation's causal precedence, so no valid controlled computation
// exists (the strategy would deadlock).
var ErrInterference = errors.New("control: relation interferes with causal precedence")

// Extended is a controlled deposet: the underlying computation plus a
// non-interfering control relation, with extended causality →C computed.
type Extended struct {
	d     *deposet.Deposet
	edges Relation
	vc    *vclock.Arena // extended clocks, flat arena, same convention as deposet
}

// Extend validates rel against d and computes extended causality. It
// rejects out-of-range endpoints, sends after a final state (D2), receives
// before an initial state (D1), and interference (cycles).
func Extend(d *deposet.Deposet, rel Relation) (*Extended, error) {
	incoming, err := index(d, rel)
	if err != nil {
		return nil, err
	}
	n := d.NumProcs()
	x := &Extended{d: d, edges: append(Relation(nil), rel...)}
	lens := make([]int, n)
	for p := 0; p < n; p++ {
		lens[p] = d.Len(p)
	}
	x.vc = vclock.NewArena(lens)
	for p := 0; p < n; p++ {
		row := x.vc.Row(p, 0)
		for i := range row {
			row[i] = vclock.None
		}
		row[p] = 0
	}
	msgs := d.Messages()
	err = schedule(d, incoming, func(p, e, recv int, in []Edge) {
		v := x.vc.Row(p, e)
		copy(v, x.vc.Row(p, e-1))
		if recv >= 0 {
			m := msgs[recv]
			// Unlike in a plain deposet, the send event may carry
			// extra dependencies here (a control edge can target
			// its resulting state), so merge that state's full
			// clock with the own-process component lowered.
			v.MergeLowered(x.vc.Row(m.FromP, m.SendEvent), m.FromP, int32(m.SendEvent-1))
		}
		for _, c := range in {
			// v implies c.From exited, not c.From.K+1 passed.
			v.MergeLowered(x.vc.Row(c.From.P, c.From.K+1), c.From.P, int32(c.From.K))
		}
		v[p] = int32(e)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// Check validates rel against d exactly as Extend does — the same
// errors, in the same order, with the same texts — without computing
// the extended clocks: for callers that only need to know the relation
// is realizable.
func Check(d *deposet.Deposet, rel Relation) error {
	incoming, err := index(d, rel)
	if err != nil {
		return err
	}
	return schedule(d, incoming, nil)
}

// index checks every edge's endpoints (range, D1, D2) and returns, per
// process, the edges into it sorted by target state — stable, so edges
// into one state keep their order in rel.
func index(d *deposet.Deposet, rel Relation) ([][]Edge, error) {
	n := d.NumProcs()
	incoming := make([][]Edge, n)
	for _, e := range rel {
		if e.From.P < 0 || e.From.P >= n || e.From.K < 0 || e.From.K >= d.Len(e.From.P) {
			return nil, fmt.Errorf("control: edge %v: From out of range", e)
		}
		if e.To.P < 0 || e.To.P >= n || e.To.K < 0 || e.To.K >= d.Len(e.To.P) {
			return nil, fmt.Errorf("control: edge %v: To out of range", e)
		}
		if d.IsTop(e.From) {
			return nil, fmt.Errorf("control: edge %v: control message sent after final state (D2)", e)
		}
		if e.To.K == 0 {
			return nil, fmt.Errorf("control: edge %v: control message received before initial state (D1)", e)
		}
		incoming[e.To.P] = append(incoming[e.To.P], e)
	}
	for _, in := range incoming {
		slices.SortStableFunc(in, func(a, b Edge) int { return a.To.K - b.To.K })
	}
	return incoming, nil
}

// schedule executes the controlled computation symbolically: every event
// runs once its predecessors have — the previous event of its process,
// the send of the message it receives, and the exit event of every
// control edge into its state. visit, when non-nil, is called per event
// in that order with the message it receives (−1 if none) and the control
// edges into its state. If some event can never run, the relation
// interferes with causal precedence.
func schedule(d *deposet.Deposet, incoming [][]Edge, visit func(p, e, recv int, in []Edge)) error {
	n := d.NumProcs()
	remaining := 0
	for p := 0; p < n; p++ {
		remaining += d.Len(p) - 1
	}
	done := make([]int, n)   // last event run, per process
	cursor := make([]int, n) // first edge of incoming[p] whose target has not run
	msgs := d.Messages()
	for remaining > 0 {
		progress := false
		for p := 0; p < n; p++ {
			in := incoming[p]
		states:
			for done[p] < d.Len(p)-1 {
				e := done[p] + 1
				recv := d.RecvAt(p, e)
				if recv >= 0 {
					// Receiving implies the send event happened, i.e. the
					// sender reached state SendEvent (exited SendEvent−1).
					if msgs[recv].SendEvent > done[msgs[recv].FromP] {
						break
					}
				}
				lo := cursor[p]
				hi := lo
				for ; hi < len(in) && in[hi].To.K == e; hi++ {
					// The exit event of From is event From.K+1; it must
					// have run.
					if from := in[hi].From; from.K+1 > done[from.P] {
						break states
					}
				}
				if visit != nil {
					visit(p, e, recv, in[lo:hi])
				}
				cursor[p] = hi
				done[p] = e
				remaining--
				progress = true
			}
		}
		if !progress {
			return ErrInterference
		}
	}
	return nil
}

// Underlying returns the uncontrolled computation.
func (x *Extended) Underlying() *deposet.Deposet { return x.d }

// NumProcs and Len delegate to the underlying computation, letting an
// Extended satisfy deposet.View so the detection algorithms can verify
// controlled computations directly.
func (x *Extended) NumProcs() int { return x.d.NumProcs() }
func (x *Extended) Len(p int) int { return x.d.Len(p) }

var _ deposet.View = (*Extended)(nil)

// Edges returns the control relation. Callers must not modify it.
func (x *Extended) Edges() Relation { return x.edges }

// Clock returns the extended vector clock of state s. The returned
// slice aliases the clock arena; callers must not modify it.
func (x *Extended) Clock(s deposet.StateID) vclock.VC { return x.vc.Row(s.P, s.K) }

// HB reports s →C t under extended causality.
func (x *Extended) HB(s, t deposet.StateID) bool {
	if s.P == t.P {
		return s.K < t.K
	}
	return x.vc.Component(t.P, t.K, s.P) >= int32(s.K)
}

// Concurrent reports s ∥ t under extended causality.
func (x *Extended) Concurrent(s, t deposet.StateID) bool {
	return s != t && !x.HB(s, t) && !x.HB(t, s)
}

// Consistent reports whether g is a consistent global state of the
// controlled computation. Every such cut is also consistent in the
// underlying computation (control only removes behaviours).
func (x *Extended) Consistent(g deposet.Cut) bool {
	n := x.d.NumProcs()
	for j := 0; j < n; j++ {
		v := x.vc.Row(j, g[j])
		for i := 0; i < n; i++ {
			if i != j && int(v[i]) >= g[i] {
				return false
			}
		}
	}
	return true
}

// ForEachConsistentCut enumerates the consistent global states of the
// controlled computation in BFS lattice order; see the deposet analogue.
func (x *Extended) ForEachConsistentCut(f func(deposet.Cut) bool) {
	n := x.d.NumProcs()
	start := x.d.BottomCut()
	if !x.Consistent(start) {
		return
	}
	seen := map[string]bool{start.Key(): true}
	queue := []deposet.Cut{start}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		if !f(g) {
			return
		}
		for p := 0; p < n; p++ {
			if g[p]+1 >= x.d.Len(p) {
				continue
			}
			h := g.Clone()
			h[p]++
			if key := h.Key(); !seen[key] && x.Consistent(h) {
				seen[key] = true
				queue = append(queue, h)
			}
		}
	}
}

// SomeSequence returns one global sequence of the controlled computation
// — the paper's "simulating a run of the strategy" (§4): a satisfying
// control strategy yields a satisfying global sequence this way. A valid
// controlled deposet always has one; single-step, smallest process first.
func (x *Extended) SomeSequence() deposet.Sequence {
	g := x.d.BottomCut()
	seq := deposet.Sequence{g.Clone()}
	top := x.d.TopCut()
	for !g.Equal(top) {
		advanced := false
		for p := range g {
			if g[p] < top[p] {
				g[p]++
				if x.Consistent(g) {
					seq = append(seq, g.Clone())
					advanced = true
					break
				}
				g[p]--
			}
		}
		if !advanced {
			// Cannot happen when the relation does not interfere.
			panic("control: stuck constructing a global sequence of a controlled deposet")
		}
	}
	return seq
}

// CountConsistentCuts returns the number of consistent global states of
// the controlled computation.
func (x *Extended) CountConsistentCuts() int {
	c := 0
	x.ForEachConsistentCut(func(deposet.Cut) bool { c++; return true })
	return c
}

// Interferes reports whether rel creates a causal cycle on d.
func Interferes(d *deposet.Deposet, rel Relation) bool {
	return errors.Is(Check(d, rel), ErrInterference)
}
