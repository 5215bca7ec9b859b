package deposet

import (
	"slices"

	"predctl/internal/vclock"
)

// Order is a causal order over the local states of n sequential
// processes: how many states each process has, and the vector clock of
// every state. Everything that is a function of the order alone — the
// precedence tests, consistency of a global state, the lattice of
// consistent cuts and its global sequences (cuts.go) — is defined on it,
// once. A Deposet embeds the order → its messages induce; a controlled
// computation (control.Extended) embeds the order →C that its control
// relation extends → to.
//
// Clocks are stored sparsely. A state's components for the other
// processes change only where a message or a control edge enters it (an
// anchor; every ⊥p is one too), so the order stores one n-component row
// per anchor and, per state, the row of its latest anchor. A state's own
// component is its index; its others are its anchor's.
// An order only grows at its ends (Enter), so a snapshot can share it.
type Order struct {
	lens []int // number of states per process

	// anchor[p][k] is the row of state (p,k)'s latest anchor at or
	// before k; rows holds the rows, n components each, with row i's
	// component q the largest j with (q,j) →= that anchor, or
	// vclock.None.
	anchor [][]int32
	rows   []int32
}

// newOrder allocates an order over lens (shared, not copied) with room
// for rows rows, the ⊥ rows among them, and clocks every ⊥p. The code
// constructing the order then enters every other state (Enter), each
// after the states its clock depends on.
func newOrder(lens []int, rows int) Order {
	n := len(lens)
	total := 0
	for _, l := range lens {
		total += l
	}
	slab := make([]int32, total)
	o := Order{lens: lens, anchor: make([][]int32, n)}
	o.rows = make([]int32, n*n, n*rows)
	for i := range o.rows {
		o.rows[i] = vclock.None
	}
	for p, l := range lens {
		o.anchor[p], slab = slab[:1:l], slab[l:]
		o.anchor[p][0] = int32(p)
		o.rows[p*n+p] = 0
	}
	return o
}

// Blank returns an order over the same states as o, clocked only at ⊥,
// with room for o's rows plus extra more: the caller constructs it by
// entering every other state (Enter), each after the states its clock
// depends on.
func (o *Order) Blank(extra int) Order {
	return newOrder(o.lens, len(o.rows)/len(o.lens)+extra)
}

// Enter clocks the next state of process p from its predecessor. A
// state that is not an anchor shares its predecessor's row, and Enter
// returns nil. An anchor gets a fresh row, a copy of its predecessor's
// with its own component set to its index, which Enter returns for the
// caller to merge the clocks of its other predecessors into. Only the
// code constructing the order calls it.
func (o *Order) Enter(p int, anchor bool) vclock.VC {
	a := reserve(o.anchor[p], 1)
	prev := a[len(a)-1]
	if !anchor {
		o.anchor[p] = append(a, prev)
		return nil
	}
	r := int32(len(o.rows) / len(o.lens))
	o.rows = append(reserve(o.rows, len(o.lens)), o.row(prev)...)
	o.anchor[p] = append(a, r)
	v := o.row(r)
	v[p] = int32(len(a))
	return v
}

// enter is a deposet's one clock step, the Builder's and FromRaw's: it
// clocks the next state of p, entered by a receive of a message sent
// from state from, or by another event when from.P < 0.
func (o *Order) enter(p int, from StateID) {
	if row := o.Enter(p, from.P >= 0); row != nil {
		row.Merge(o.Deps(from))
		// The sender's row is its anchor's, whose own component may be
		// below the sending state's.
		row[from.P] = max(row[from.P], int32(from.K))
	}
}

// snapshot returns o as it stands, its tables shared capacity-capped:
// later Enters append past them.
func (o *Order) snapshot() Order {
	s := Order{lens: slices.Clone(o.lens), anchor: make([][]int32, len(o.anchor)), rows: slices.Clip(o.rows)}
	for p, a := range o.anchor {
		s.anchor[p] = slices.Clip(a)
	}
	return s
}

// row returns stored row i, aliasing the order and capacity-capped so an
// append can never bleed into the next row.
func (o *Order) row(i int32) vclock.VC {
	n := len(o.lens)
	base := int(i) * n
	return vclock.VC(o.rows[base : base+n : base+n])
}

// NumProcs returns the number of processes n.
func (o *Order) NumProcs() int { return len(o.lens) }

// Len returns the number of local states of process p (≥ 1).
func (o *Order) Len(p int) int { return o.lens[p] }

// NumStates returns the total number of local states across all processes.
func (o *Order) NumStates() int {
	total := 0
	for _, l := range o.lens {
		total += l
	}
	return total
}

// Deps returns the row holding s's clock components for every process
// but s.P, aliasing the order: its component s.P is that of s's anchor,
// which may be below s.K. The caller must not modify it.
func (o *Order) Deps(s StateID) vclock.VC { return o.row(o.anchor[s.P][s.K]) }

// Clock writes the vector clock of state s into dst, reusing its
// storage when its capacity suffices, and returns it.
func (o *Order) Clock(s StateID, dst vclock.VC) vclock.VC {
	dst = append(dst[:0], o.Deps(s)...)
	dst[s.P] = int32(s.K)
	return dst
}

// Top returns ⊤p, the final state of process p.
func (o *Order) Top(p int) StateID { return StateID{p, o.lens[p] - 1} }

// IsTop reports whether s is the final state of its process.
func (o *Order) IsTop(s StateID) bool { return s.K == o.lens[s.P]-1 }

// HB reports whether s precedes t in the order (strict): for states of
// two processes, one anchor lookup and one row load.
func (o *Order) HB(s, t StateID) bool {
	if s.P == t.P {
		return s.K < t.K
	}
	return o.rows[int(o.anchor[t.P][t.K])*len(o.lens)+s.P] >= int32(s.K)
}

// Concurrent reports s ∥ t: neither precedes the other and s ≠ t.
func (o *Order) Concurrent(s, t StateID) bool {
	return s != t && !o.HB(s, t) && !o.HB(t, s)
}
