package deposet

import "predctl/internal/vclock"

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
type Order struct {
	lens []int // number of states per process
	off  []int // off[p]: index of state (p, 0) in anchor

	// anchor[off[p]+k] is the row of state (p,k)'s latest anchor at or
	// before k; rows holds the rows, n components each, with row i's
	// component q the largest j with (q,j) →= that anchor, or
	// vclock.None.
	anchor []int32
	rows   []int32
}

// newOrder allocates an order over lens (shared, not copied) with room
// for rows rows, the ⊥ rows among them, and clocks every ⊥p. The code
// constructing the order then enters every other state (Enter), each
// after the states its clock depends on.
func newOrder(lens []int, rows int) Order {
	n := len(lens)
	o := Order{lens: lens, off: make([]int, n)}
	total := 0
	for p, l := range lens {
		o.off[p] = total
		total += l
	}
	o.anchor = make([]int32, total)
	o.rows = make([]int32, n*n, n*rows)
	for i := range o.rows {
		o.rows[i] = vclock.None
	}
	for p := range lens {
		o.rows[p*n+p] = 0
		o.anchor[o.off[p]] = int32(p)
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

// Enter clocks state s (K ≥ 1) from its predecessor. A state that is not
// an anchor shares its predecessor's row, and Enter returns nil. An
// anchor gets a fresh row, a copy of its predecessor's with its own
// component set to s.K, which Enter returns for the caller to merge the
// clocks of s's other predecessors into. Only the code constructing the
// order calls it.
func (o *Order) Enter(s StateID, anchor bool) vclock.VC {
	i := o.off[s.P] + s.K
	prev := o.anchor[i-1]
	if !anchor {
		o.anchor[i] = prev
		return nil
	}
	r := int32(len(o.rows) / len(o.lens))
	o.rows = append(o.rows, o.row(prev)...)
	o.anchor[i] = r
	v := o.row(r)
	v[s.P] = int32(s.K)
	return v
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
func (o *Order) NumStates() int { return len(o.anchor) }

// Deps returns the row holding s's clock components for every process
// but s.P, aliasing the order: its component s.P is that of s's anchor,
// which may be below s.K. The caller must not modify it.
func (o *Order) Deps(s StateID) vclock.VC { return o.row(o.anchor[o.off[s.P]+s.K]) }

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
	return o.rows[int(o.anchor[o.off[t.P]+t.K])*len(o.lens)+s.P] >= int32(s.K)
}

// Concurrent reports s ∥ t: neither precedes the other and s ≠ t.
func (o *Order) Concurrent(s, t StateID) bool {
	return s != t && !o.HB(s, t) && !o.HB(t, s)
}
