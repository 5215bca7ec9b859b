package deposet

import (
	"slices"
	"sort"
)

// varTable holds the state-variable snapshots of a computation with
// interned names and copy-on-write sharing: variable names are mapped to
// dense slots in sorted order, and a state that updates nothing shares
// its predecessor's snapshot. A computation of S states with U variable
// updates therefore carries S snapshot indices and O(U) snapshots.
type varTable struct {
	index map[string]int // interned name → slot
	names []string       // slot → name, sorted
	// snap[p][k] is the snapshot of state (p,k), -1 where none is set. A
	// built deposet's rows stop below the top state, whose snapshot is
	// top[p]. A Builder's row is nil until p's first Let.
	snap [][]int32
	top  []int32
	// Snapshot i is vals and set at [i·w, i·w+w), w = len(names): each
	// slot's value, valid only where set.
	vals []int
	set  []bool
}

// at returns the index of the snapshot of state (p, k), or -1.
func (t *varTable) at(p, k int) int32 {
	if row := t.snap[p]; k < len(row) {
		return row[k]
	}
	return t.top[p]
}

// snapshot returns snapshot i by slot, nil for i < 0.
func (t *varTable) snapshot(i int32) (vals []int, set []bool) {
	if i < 0 {
		return nil, nil
	}
	lo := int(i) * len(t.names)
	hi := lo + len(t.names)
	return t.vals[lo:hi:hi], t.set[lo:hi:hi]
}

// push appends a copy of snapshot from, or one with nothing set when
// from < 0, and returns its index.
func (t *varTable) push(from int32) int32 {
	w := len(t.names)
	i := int32(len(t.set) / w)
	t.vals, t.set = reserve(t.vals, w), reserve(t.set, w)
	if from < 0 {
		t.vals = append(t.vals, make([]int, w)...)
		t.set = append(t.set, make([]bool, w)...)
	} else {
		lo := int(from) * w
		t.vals = append(t.vals, t.vals[lo:lo+w]...)
		t.set = append(t.set, t.set[lo:lo+w]...)
	}
	return i
}

// lookup returns the value of name at state (p, k), if set there.
func (t *varTable) lookup(p, k int, name string) (int, bool) {
	slot, ok := t.index[name]
	if !ok {
		return 0, false
	}
	vals, set := t.snapshot(t.at(p, k))
	if set == nil || !set[slot] {
		return 0, false
	}
	return vals[slot], true
}

// equalMap reports whether snapshot i represents exactly the variable
// bindings of m under the table's interning.
func (t *varTable) equalMap(i int32, m map[string]int) bool {
	count := 0
	vals, set := t.snapshot(i)
	for slot, ok := range set {
		if !ok {
			continue
		}
		count++
		if v, in := m[t.names[slot]]; !in || v != vals[slot] {
			return false
		}
	}
	return count == len(m)
}

// Let sets variable name to value at the current top state of process p
// and all later states (until overridden). Call it immediately after the
// event that establishes the value; call before any event to set the value
// at ⊥p.
func (b *Builder) Let(p int, name string, value int) {
	b.checkProc(p)
	slot, ok := b.vars.index[name]
	if !ok {
		slot = b.addName(name)
	}
	t := b.vars
	row := t.snap[p]
	if row == nil { // sized like the event table
		row = make([]int32, b.ord.lens[p], cap(b.sendMsg[p]))
		for k := range row {
			row[k] = -1
		}
		t.snap[p] = row
	}
	top := len(row) - 1
	if !b.own[p] {
		row[top] = t.push(row[top])
		b.own[p] = true
	}
	i := int(row[top])*len(t.names) + slot
	t.vals[i], t.set[i] = value, true
}

// addName gives name its slot in sorted order and returns it. A built
// deposet may share the names, the index and the snapshots, so they are
// replaced, the snapshots laid out again one slot wider: rare, for a
// computation has few names.
func (b *Builder) addName(name string) int {
	t := b.vars
	w := len(t.names)
	slot, _ := slices.BinarySearch(t.names, name)
	t.names = slices.Insert(slices.Clone(t.names), slot, name)
	t.index = make(map[string]int, w+1)
	for s, nm := range t.names {
		t.index[nm] = s
	}
	var vals []int
	var set []bool
	for i := 0; i < len(t.set); i += w {
		v, s := t.vals[i:i+w], t.set[i:i+w]
		vals = append(append(append(vals, v[:slot]...), 0), v[slot:]...)
		set = append(append(append(set, s[:slot]...), false), s[slot:]...)
	}
	t.vals, t.set = vals, set
	return slot
}

// publishVars returns the variables for a Build, shared capacity-capped.
// Each top snapshot is now published: a later Let copies it first.
func (b *Builder) publishVars() *varTable {
	t := b.vars
	n := len(t.snap)
	d := &varTable{index: t.index, names: t.names, snap: make([][]int32, n), top: make([]int32, n),
		vals: slices.Clip(t.vals), set: slices.Clip(t.set)}
	for p, row := range t.snap {
		d.top[p] = -1
		if k := len(row) - 1; k >= 0 {
			d.snap[p], d.top[p] = row[:k:k], row[k]
		}
	}
	clear(b.own)
	return d
}

// varTableFromMaps builds the table from explicit per-state snapshot
// maps (the Raw representation): consecutive states with identical
// bindings share one snapshot.
func varTableFromMaps(vars [][]map[string]int, lens []int) *varTable {
	t := &varTable{index: make(map[string]int), snap: make([][]int32, len(lens))}
	for _, byState := range vars {
		for _, m := range byState {
			for name := range m {
				if _, ok := t.index[name]; !ok {
					t.index[name] = 0
					t.names = append(t.names, name)
				}
			}
		}
	}
	sort.Strings(t.names)
	for slot, name := range t.names {
		t.index[name] = slot
	}
	for p, l := range lens {
		row := make([]int32, l)
		cur := int32(-1)
		for k := 0; k < l; k++ {
			var m map[string]int
			if vars[p] != nil {
				m = vars[p][k]
			}
			if !t.equalMap(cur, m) {
				cur = t.push(-1)
				vals, set := t.snapshot(cur)
				for name, v := range m {
					slot := t.index[name]
					vals[slot], set[slot] = v, true
				}
			}
			row[k] = cur
		}
		t.snap[p] = row
	}
	return t
}

// maps materializes the table back into explicit per-state snapshot
// maps, for the Raw representation. States sharing a snapshot share the
// returned map object.
func (t *varTable) maps(lens []int) [][]map[string]int {
	out := make([][]map[string]int, len(lens))
	for p, l := range lens {
		built := make(map[int32]map[string]int)
		out[p] = make([]map[string]int, l)
		for k := 0; k < l; k++ {
			i := t.at(p, k)
			if i < 0 {
				out[p][k] = map[string]int{}
				continue
			}
			m, ok := built[i]
			if !ok {
				m = make(map[string]int)
				vals, set := t.snapshot(i)
				for slot, on := range set {
					if on {
						m[t.names[slot]] = vals[slot]
					}
				}
				built[i] = m
			}
			out[p][k] = m
		}
	}
	return out
}
