package deposet

import "predctl/internal/vclock"

// Order is a causal order over the local states of n sequential
// processes: how many states each process has, and one vector clock per
// state. Everything that is a function of the order alone — the
// precedence tests, consistency of a global state, the lattice of
// consistent cuts and its global sequences (cuts.go) — is defined on it,
// once. A Deposet embeds the order → its messages induce; a controlled
// computation (control.Extended) embeds the order →C that its control
// relation extends → to.
type Order struct {
	lens []int // number of states per process

	// clocks is the flat clock arena: the vector clock of state (p,k) is
	// the contiguous row clocks.Row(p, k), with clocks.Component(p, k, q)
	// the largest j with (q,j) →= (p,k), or vclock.None.
	clocks *vclock.Arena
}

// newOrder allocates the clock arena of an order over lens (shared, not
// copied) and seeds every ⊥p. The code constructing the order writes
// every other row (predecessor copy + merge) before any read, so only
// the ⊥ rows need the None fill.
func newOrder(lens []int) Order {
	o := Order{lens: lens, clocks: vclock.NewArena(lens)}
	for p := range lens {
		row := o.clocks.Row(p, 0)
		for i := range row {
			row[i] = vclock.None
		}
		row[p] = 0
	}
	return o
}

// Blank returns an order over the same states as o in which only the ⊥
// rows are written: the caller constructs it by writing the row Clock
// returns for every other state, each after the rows it depends on.
func (o *Order) Blank() Order { return newOrder(o.lens) }

// NumProcs returns the number of processes n.
func (o *Order) NumProcs() int { return len(o.lens) }

// Len returns the number of local states of process p (≥ 1).
func (o *Order) Len(p int) int { return o.lens[p] }

// NumStates returns the total number of local states across all processes.
func (o *Order) NumStates() int {
	t := 0
	for _, l := range o.lens {
		t += l
	}
	return t
}

// Clock returns the vector clock of state s, aliasing the clock arena.
// Only the code constructing the order may write to it.
func (o *Order) Clock(s StateID) vclock.VC { return o.clocks.Row(s.P, s.K) }

// Top returns ⊤p, the final state of process p.
func (o *Order) Top(p int) StateID { return StateID{p, o.lens[p] - 1} }

// IsTop reports whether s is the final state of its process.
func (o *Order) IsTop(s StateID) bool { return s.K == o.lens[s.P]-1 }

// HB reports whether s precedes t in the order (strict): a single
// indexed load from the clock arena.
func (o *Order) HB(s, t StateID) bool {
	if s.P == t.P {
		return s.K < t.K
	}
	return o.clocks.Component(t.P, t.K, s.P) >= int32(s.K)
}

// Concurrent reports s ∥ t: neither precedes the other and s ≠ t.
func (o *Order) Concurrent(s, t StateID) bool {
	return s != t && !o.HB(s, t) && !o.HB(t, s)
}
