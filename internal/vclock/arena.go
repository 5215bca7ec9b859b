package vclock

// Arena stores the vector clocks of an entire computation — one clock
// per local state, across all processes — in a single contiguous []int32.
// State (p, k) occupies the n-component row starting at (off[p]+k)*n, so
// a clock lookup is offset arithmetic on one backing array instead of two
// pointer hops through [][]VC, a component probe (the happened-before
// test) is a single indexed load, and the whole table is three
// allocations regardless of the number of states. Rows of one process
// are adjacent, which is the access pattern of clock construction and of
// the per-process detection scans.
type Arena struct {
	n    int
	off  []int // off[p]: row index of state (p, 0)
	data []int32
}

// NewArena allocates an arena for a computation whose process p has
// lens[p] local states. Rows are zero-filled; callers are expected to
// write every row (clock construction does) before reading it.
func NewArena(lens []int) *Arena {
	n := len(lens)
	off := make([]int, n)
	total := 0
	for p, l := range lens {
		off[p] = total
		total += l
	}
	return &Arena{n: n, off: off, data: make([]int32, total*n)}
}

// Row returns the clock of state (p, k) as a VC aliasing the arena. The
// slice is capacity-capped so an append can never bleed into the next
// row. Mutating it mutates the arena.
func (a *Arena) Row(p, k int) VC {
	base := (a.off[p] + k) * a.n
	return VC(a.data[base : base+a.n : base+a.n])
}

// Component returns Row(p, k)[q] as a single indexed load, without
// materializing the row slice — the hot path of the happened-before test.
func (a *Arena) Component(p, k, q int) int32 {
	return a.data[(a.off[p]+k)*a.n+q]
}
