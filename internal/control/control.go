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
// non-interfering control relation. It is a computation in its own right
// — the embedded order is the extended causality →C, so precedence,
// consistent cuts, the lattice walk and global sequences are the
// deposet's own, and it satisfies deposet.View for the detectors.
type Extended struct {
	deposet.Order
	d     *deposet.Deposet
	edges Relation
}

var _ deposet.View = (*Extended)(nil)

// Extend validates rel against d and computes extended causality. It
// rejects out-of-range endpoints, sends after a final state (D2), receives
// before an initial state (D1), and interference (cycles).
func Extend(d *deposet.Deposet, rel Relation) (*Extended, error) {
	incoming, err := index(d, rel)
	if err != nil {
		return nil, err
	}
	// A state →C changes beyond its own component is one a message or a
	// control edge enters: at most d's rows plus one per edge.
	x := &Extended{Order: d.Blank(len(rel)), d: d, edges: append(Relation(nil), rel...)}
	msgs := d.Messages()
	err = schedule(d, incoming, func(p, e, recv int, in []Edge) {
		v := x.Enter(p, recv >= 0 || len(in) > 0)
		if recv >= 0 {
			m := msgs[recv]
			// Unlike in a plain deposet, the send event may carry
			// extra dependencies here (a control edge can target
			// its resulting state), so merge that state's full
			// clock with the own-process component lowered.
			v.MergeLowered(x.Deps(deposet.StateID{P: m.FromP, K: m.SendEvent}), m.FromP, int32(m.SendEvent-1))
		}
		for _, c := range in {
			// v implies c.From exited, not c.From.K+1 passed.
			v.MergeLowered(x.Deps(deposet.StateID{P: c.From.P, K: c.From.K + 1}), c.From.P, int32(c.From.K))
		}
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

// Edges returns the control relation. Callers must not modify it.
func (x *Extended) Edges() Relation { return x.edges }

// interferes reports whether rel creates a causal cycle on d.
func interferes(d *deposet.Deposet, rel Relation) bool {
	return errors.Is(Check(d, rel), ErrInterference)
}
