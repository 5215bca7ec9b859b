// Package scenario reconstructs the paper's §7 running example
// (Figure 4): a replicated server system with three servers whose
// availability windows can align so that no server is available — the
// bug the active-debugging cycle localizes and then controls away. The
// reconstruction is shared by the examples, the experiment harness and
// the regression tests.
package scenario

import (
	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/replay"
)

// Figure4 is the reconstructed computation C1 plus the predicates the
// walkthrough uses.
type Figure4 struct {
	// C1 is the originally observed computation: three servers, each
	// with a maintenance window (avail = 0), plus a cascading
	// notification from server 1 to server 2.
	C1 *deposet.Deposet

	// Avail is the safety predicate B = avail0 ∨ avail1 ∨ avail2 ("at
	// least one server is available").
	Avail *predicate.Disjunction

	// E and F are the two suspect states of bug 2: e is the last
	// unavailable state of server 2 (it becomes available by leaving it)
	// and f is the first unavailable state of server 0. Bug 2 is "e and
	// f occur at the same time".
	E, F deposet.StateID

	// EBeforeF is the ordering predicate after_e ∨ before_f ("e must
	// happen before f") used to synthesize C3 and C4.
	EBeforeF *predicate.Disjunction
}

// Windows returns the per-server maintenance windows of C1.
func (fg *Figure4) Windows() []deposet.Interval {
	var w []deposet.Interval
	for p := 0; p < fg.C1.NumProcs(); p++ {
		w = append(w, deposet.TruthIntervals(fg.C1, p, func(p, k int) bool {
			return !fg.Avail.Holds(fg.C1, p, k)
		})...)
	}
	return w
}

// Derived is a computation of the walkthrough: its parent replayed under
// the off-line controller's relation for some predicate.
type Derived struct {
	Relation control.Relation // the control imposed on the parent
	D        *deposet.Deposet // the replay
	// Underlying maps D back to C1: state (p,k) of D is C1's state
	// (p, Underlying[p][k]), the argument Bug1On and Bug2On take.
	Underlying [][]int
}

// derive controls parent with dj and replays it; via, when non-nil, maps
// parent's states to C1's.
func derive(parent *deposet.Deposet, dj *predicate.Disjunction, seed int64, via [][]int) (*Derived, error) {
	res, err := offline.Control(parent, dj, offline.Options{})
	if err != nil {
		return nil, err
	}
	r, err := replay.Run(parent, res.Relation, replay.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	c := &Derived{Relation: res.Relation, D: r.Trace.D, Underlying: r.Underlying}
	if via != nil {
		c.Underlying = make([][]int, len(via))
		for p := range via {
			for _, k := range r.Underlying[p] {
				c.Underlying[p] = append(c.Underlying[p], via[p][k])
			}
		}
	}
	return c, nil
}

// Derive runs the §7 cycle on C1: C2 is C1 controlled with B = ∨ avail
// (bug 1 gone, bug 2 still possible), C3 is C2 controlled with "e before
// f", and C4 is C1 controlled with "e before f" alone — where both bugs
// are gone, which is the walkthrough's inference that bug 2 causes bug 1.
func (fg *Figure4) Derive() (c2, c3, c4 *Derived, err error) {
	if c2, err = derive(fg.C1, fg.Avail, 1, nil); err != nil {
		return nil, nil, nil, err
	}
	if c3, err = derive(c2.D, fg.EBeforeFMapped(c2.Underlying), 2, c2.Underlying); err != nil {
		return nil, nil, nil, err
	}
	if c4, err = derive(fg.C1, fg.EBeforeF, 3, nil); err != nil {
		return nil, nil, nil, err
	}
	return c2, c3, c4, nil
}

// New builds the scenario.
//
// Server timelines (states left to right; U marks avail = 0):
//
//	P0:  A  U  U  A        maintenance window [1..2]
//	P1:  A  U  A  A        maintenance window [1..1]
//	P2:  A  A  U  A        maintenance window [2..2]
//	          ↑
//	P1 announces its maintenance to P2 as it goes down (message from
//	P1's first event to P2's first event), which later also goes down —
//	the cascading behaviour that makes the bug possible.
//
// Exactly two consistent global states violate B: G = ⟨1,1,2⟩ and
// H = ⟨2,1,2⟩, matching the two violating states of the paper's figure.
func New() (*Figure4, error) {
	b := deposet.NewBuilder(3)
	for p := 0; p < 3; p++ {
		b.Let(p, "avail", 1)
	}
	// P1 goes down, telling P2; P2 acknowledges receipt and goes down
	// later; P0's window overlaps both.
	_, h := b.Send(1) // P1 event 1: going down…
	b.Let(1, "avail", 0)
	b.Step(1) // P1 event 2: back up
	b.Let(1, "avail", 1)
	b.Step(1) // P1 event 3: serving again

	b.Recv(2, h) // P2 event 1: learns of P1's maintenance
	b.Step(2)    // P2 event 2: goes down itself
	b.Let(2, "avail", 0)
	b.Step(2) // P2 event 3: back up
	b.Let(2, "avail", 1)

	b.Step(0) // P0 event 1: goes down
	b.Let(0, "avail", 0)
	b.Step(0) // P0 event 2: still down
	b.Step(0) // P0 event 3: back up
	b.Let(0, "avail", 1)

	d, err := b.Build()
	if err != nil {
		return nil, err
	}

	fg := &Figure4{C1: d}
	var avail []predicate.VarLocal
	for p := 0; p < 3; p++ {
		avail = append(avail, predicate.VarLocal{P: p, Var: "avail", Op: predicate.Eq, Value: 1})
	}
	if fg.Avail, err = predicate.VarDisjunction(d, avail); err != nil {
		return nil, err
	}

	fg.E = deposet.StateID{P: 2, K: 2} // last unavailable state of P2
	fg.F = deposet.StateID{P: 0, K: 1} // first unavailable state of P0
	fg.EBeforeF = eBeforeFOn(d.NumProcs(), fg.E, fg.F)
	return fg, nil
}

// eBeforeFOn builds the ordering predicate after_e ∨ before_f over n
// processes for arbitrary states e and f: "f is not entered until e has
// been left". Processes other than e.P and f.P contribute no disjunct.
func eBeforeFOn(n int, e, f deposet.StateID) *predicate.Disjunction {
	dj := predicate.NewDisjunction(n)
	dj.Add(e.P, "after_e", func(_ *deposet.Deposet, k int) bool { return k > e.K })
	dj.Add(f.P, "before_f", func(_ *deposet.Deposet, k int) bool { return k < f.K })
	return dj
}

// EBeforeFMapped builds the ordering predicate after_e ∨ before_f on a
// computation derived from C1 via an underlying-state mapping (e.g. the
// replayed C2), so the same bug-2 fix can be synthesized against it.
func (fg *Figure4) EBeforeFMapped(underlying [][]int) *predicate.Disjunction {
	dj := predicate.NewDisjunction(3)
	dj.Add(fg.E.P, "after_e", func(_ *deposet.Deposet, k int) bool {
		return underlying[fg.E.P][k] > fg.E.K
	})
	dj.Add(fg.F.P, "before_f", func(_ *deposet.Deposet, k int) bool {
		return underlying[fg.F.P][k] < fg.F.K
	})
	return dj
}

// Bug2On builds the co-occurrence conjunction "e and f at the same
// time" for a computation derived from C1 via an underlying-state
// mapping (pass nil for C1 itself): possible exactly when some
// consistent cut has e.P still at-or-before e and f.P at-or-after f.
func (fg *Figure4) Bug2On(underlying [][]int) *predicate.Conjunction {
	cj := predicate.NewConjunction(3)
	idx := func(p, k int) int {
		if underlying == nil {
			return k
		}
		return underlying[p][k]
	}
	cj.Add(fg.E.P, "¬after_e", func(_ *deposet.Deposet, k int) bool {
		return idx(fg.E.P, k) <= fg.E.K
	})
	cj.Add(fg.F.P, "¬before_f", func(_ *deposet.Deposet, k int) bool {
		return idx(fg.F.P, k) >= fg.F.K
	})
	return cj
}

// Bug1On builds the all-unavailable conjunction on a computation derived
// from C1 (see Bug2On for the mapping convention).
func (fg *Figure4) Bug1On(underlying [][]int) *predicate.Conjunction {
	cj := predicate.NewConjunction(3)
	for p := 0; p < 3; p++ {
		cj.Add(p, "¬avail", func(_ *deposet.Deposet, k int) bool {
			kk := k
			if underlying != nil {
				kk = underlying[p][k]
			}
			return !fg.Avail.Holds(fg.C1, p, kk)
		})
	}
	return cj
}
