package deposet

import "sort"

// varTable holds the state-variable snapshots of a computation with
// interned names and copy-on-write sharing: variable names are mapped to
// dense slots once per computation, and the snapshot of a state that
// updates nothing is the same *varSnap as its predecessor's. A
// computation of S states with U variable updates therefore carries
// O(U) snapshots instead of S maps.
type varTable struct {
	index map[string]int // interned name → slot
	names []string       // slot → name
	snaps [][]*varSnap   // per process, per state; nil entry = no vars set
}

// varSnap is one immutable snapshot: vals[slot] is the value, valid only
// where set[slot]. Snapshots are shared between states; never mutate one
// after it is published.
type varSnap struct {
	vals []int
	set  []bool
}

// lookup returns the value of name at state (p, k), if set there.
func (t *varTable) lookup(p, k int, name string) (int, bool) {
	slot, ok := t.index[name]
	if !ok {
		return 0, false
	}
	sn := t.snaps[p][k]
	if sn == nil || !sn.set[slot] {
		return 0, false
	}
	return sn.vals[slot], true
}

// equalMap reports whether sn represents exactly the variable bindings
// of m under the table's interning.
func (t *varTable) equalMap(sn *varSnap, m map[string]int) bool {
	count := 0
	if sn != nil {
		for slot, ok := range sn.set {
			if !ok {
				continue
			}
			count++
			if v, in := m[t.names[slot]]; !in || v != sn.vals[slot] {
				return false
			}
		}
	}
	return count == len(m)
}

// varTableFromLog builds the table from a Builder's update log in one
// sweep: names take slots in sorted order (not the order the builder
// met them in), then each process's log — already in state order — is
// cut into one snapshot per updating state, copy-on-write from its
// predecessor. Snapshots, their value and set rows and the per-state
// pointer rows are each one slab: a fixed number of allocations however
// long the log. Every log entry is for a state below lens[p].
func varTableFromLog(names []string, log [][]letUpdate, lens []int) *varTable {
	width := len(names)
	t := &varTable{index: make(map[string]int, width), names: append([]string(nil), names...)}
	sort.Strings(t.names)
	for slot, name := range t.names {
		t.index[name] = slot
	}
	slotOf := make([]int, width) // builder name id → slot
	for id, name := range names {
		slotOf[id] = t.index[name]
	}
	updating, states := 0, 0
	for p, ups := range log {
		states += lens[p]
		for i := range ups {
			if i == 0 || ups[i].k != ups[i-1].k {
				updating++
			}
		}
	}
	snaps := make([]varSnap, updating)
	vals := make([]int, updating*width)
	set := make([]bool, updating*width)
	rows := make([]*varSnap, states)
	t.snaps = make([][]*varSnap, len(lens))
	for p, l := range lens {
		t.snaps[p], rows = rows[:l:l], rows[l:]
		var cur *varSnap
		k, ups := 0, log[p]
		for i := 0; i < len(ups); {
			for ; k < int(ups[i].k); k++ {
				t.snaps[p][k] = cur
			}
			next := &snaps[0]
			next.vals, next.set = vals[:width:width], set[:width:width]
			snaps, vals, set = snaps[1:], vals[width:], set[width:]
			if cur != nil {
				copy(next.vals, cur.vals)
				copy(next.set, cur.set)
			}
			for ; i < len(ups) && int(ups[i].k) == k; i++ {
				slot := slotOf[ups[i].name]
				next.vals[slot] = ups[i].val
				next.set[slot] = true
			}
			cur = next
		}
		for ; k < l; k++ {
			t.snaps[p][k] = cur
		}
	}
	return t
}

// varTableFromMaps builds the table from explicit per-state snapshot
// maps (the Raw representation): consecutive states with identical
// bindings share one snapshot.
func varTableFromMaps(vars [][]map[string]int, lens []int) *varTable {
	t := &varTable{index: make(map[string]int)}
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
	width := len(t.names)
	t.snaps = make([][]*varSnap, len(lens))
	for p, l := range lens {
		rows := make([]*varSnap, l)
		var cur *varSnap
		for k := 0; k < l; k++ {
			var m map[string]int
			if vars[p] != nil {
				m = vars[p][k]
			}
			if !t.equalMap(cur, m) {
				cur = &varSnap{vals: make([]int, width), set: make([]bool, width)}
				for name, v := range m {
					slot := t.index[name]
					cur.vals[slot] = v
					cur.set[slot] = true
				}
			}
			rows[k] = cur
		}
		t.snaps[p] = rows
	}
	return t
}

// maps materializes the table back into explicit per-state snapshot
// maps, for the Raw representation. States sharing a snapshot share the
// returned map object.
func (t *varTable) maps(lens []int) [][]map[string]int {
	built := make(map[*varSnap]map[string]int)
	out := make([][]map[string]int, len(lens))
	for p, l := range lens {
		out[p] = make([]map[string]int, l)
		for k := 0; k < l; k++ {
			sn := t.snaps[p][k]
			if sn == nil {
				out[p][k] = map[string]int{}
				continue
			}
			m, ok := built[sn]
			if !ok {
				m = make(map[string]int)
				for slot, set := range sn.set {
					if set {
						m[t.names[slot]] = sn.vals[slot]
					}
				}
				built[sn] = m
			}
			out[p][k] = m
		}
	}
	return out
}
