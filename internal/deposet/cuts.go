package deposet

import (
	"fmt"
	"strconv"
	"strings"
)

// Cut is a global state: one local state index per process. Cut[p] = k
// selects state (p, k).
type Cut []int

// Clone returns an independent copy of g.
func (g Cut) Clone() Cut {
	h := make(Cut, len(g))
	copy(h, g)
	return h
}

// Equal reports whether g and h select the same states.
func (g Cut) Equal(h Cut) bool {
	if len(g) != len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// Leq reports g ≤ h in the lattice order (component-wise).
func (g Cut) Leq(h Cut) bool {
	for i := range g {
		if g[i] > h[i] {
			return false
		}
	}
	return true
}

// Key returns a compact map key for g.
func (g Cut) Key() string {
	var b strings.Builder
	for i, k := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
	}
	return b.String()
}

func (g Cut) String() string { return "⟨" + g.Key() + "⟩" }

// BottomCut returns the initial global state ⊥ = (⊥0, …, ⊥n-1).
func (o *Order) BottomCut() Cut { return make(Cut, o.NumProcs()) }

// TopCut returns the final global state ⊤.
func (o *Order) TopCut() Cut {
	g := make(Cut, o.NumProcs())
	for p := range g {
		g[p] = o.lens[p] - 1
	}
	return g
}

// InRange reports whether g selects a valid state on every process.
func (o *Order) InRange(g Cut) bool {
	if len(g) != o.NumProcs() {
		return false
	}
	for p, k := range g {
		if k < 0 || k >= o.lens[p] {
			return false
		}
	}
	return true
}

// Consistent reports whether the global state g is consistent: its
// frontier states are pairwise concurrent in o. Using the vector-clock
// convention, g is consistent iff for all i ≠ j, vc[j][g[j]][i] < g[i]
// (no frontier state precedes another). A cut consistent under a
// controlled computation's →C is consistent under its → too: control
// only removes behaviours.
func (o *Order) Consistent(g Cut) bool {
	n := o.NumProcs()
	for j := 0; j < n; j++ {
		v := o.clocks.Row(j, g[j])
		for i := 0; i < n; i++ {
			if i != j && int(v[i]) >= g[i] {
				return false
			}
		}
	}
	return true
}

// ForEachConsistentCut enumerates every consistent global state exactly
// once, in breadth-first lattice order starting at ⊥, calling f for each.
// Enumeration stops early if f returns false. The number of consistent
// cuts can be exponential in n; this is intended for small computations
// (exhaustive verification, debugging).
func (o *Order) ForEachConsistentCut(f func(Cut) bool) {
	n := o.NumProcs()
	start := o.BottomCut()
	if !o.Consistent(start) {
		// ⊥ is always consistent in an acyclic order; defensive.
		return
	}
	seen := map[string]bool{start.Key(): true}
	queue := []Cut{start}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		if !f(g) {
			return
		}
		for p := 0; p < n; p++ {
			if g[p]+1 >= o.lens[p] {
				continue
			}
			h := g.Clone()
			h[p]++
			if key := h.Key(); !seen[key] && o.Consistent(h) {
				seen[key] = true
				queue = append(queue, h)
			}
		}
	}
}

// CountConsistentCuts returns the size of the lattice of consistent cuts.
func (o *Order) CountConsistentCuts() int {
	c := 0
	o.ForEachConsistentCut(func(Cut) bool { c++; return true })
	return c
}

// Sequence is a global sequence: consistent global states from ⊥ to ⊤
// where each step advances every process by at most one state and at
// least one process advances (pure stutter repetitions are permitted by
// the model but never produced by this package's searches).
type Sequence []Cut

// ValidateSequence checks that seq is a global sequence of o.
func (o *Order) ValidateSequence(seq Sequence) error {
	if len(seq) == 0 {
		return fmt.Errorf("deposet: empty sequence")
	}
	if !seq[0].Equal(o.BottomCut()) {
		return fmt.Errorf("deposet: sequence starts at %v, not ⊥", seq[0])
	}
	if !seq[len(seq)-1].Equal(o.TopCut()) {
		return fmt.Errorf("deposet: sequence ends at %v, not ⊤", seq[len(seq)-1])
	}
	for i, g := range seq {
		if !o.InRange(g) {
			return fmt.Errorf("deposet: step %d out of range: %v", i, g)
		}
		if !o.Consistent(g) {
			return fmt.Errorf("deposet: step %d inconsistent: %v", i, g)
		}
		if i == 0 {
			continue
		}
		prev := seq[i-1]
		for p := range g {
			if g[p] != prev[p] && g[p] != prev[p]+1 {
				return fmt.Errorf("deposet: step %d advances process %d from %d to %d",
					i, p, prev[p], g[p])
			}
		}
	}
	return nil
}

// SomeSequence returns one global sequence of o (advancing a single
// process per step, chosen smallest-first); an acyclic order always has
// one. On a plain computation it is a linearization; on a controlled one
// it is the paper's "simulating a run of the strategy" (§4) — a
// satisfying control strategy yields a satisfying global sequence.
func (o *Order) SomeSequence() Sequence {
	g := o.BottomCut()
	seq := Sequence{g.Clone()}
	top := o.TopCut()
	for !g.Equal(top) {
		advanced := false
		for p := range g {
			if g[p] < top[p] {
				g[p]++
				if o.Consistent(g) {
					seq = append(seq, g.Clone())
					advanced = true
					break
				}
				g[p]--
			}
		}
		if !advanced {
			// Cannot happen in an acyclic order; avoid an infinite loop.
			panic("deposet: stuck constructing a global sequence")
		}
	}
	return seq
}
