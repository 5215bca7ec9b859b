package deposet

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestVarTableFromLogMatchesMapReference drives random Let / Step /
// Send / Recv programs through the Builder while maintaining the
// obvious reference — one map per state, copied forward — and requires
// every Build along the way to answer Var exactly as the reference
// does: Let at ⊥, repeated Lets of one name at one state (the last
// wins), a name space wider than any one state touches, and Build
// called again as the builder grows.
func TestVarTableFromLogMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		names := make([]string, 1+r.Intn(12))
		for i := range names {
			// Reverse-sorted creation order: slot order must not depend
			// on the order the builder meets names in.
			names[i] = fmt.Sprintf("v%02d", len(names)-i)
		}
		b := NewBuilder(n)
		ref := make([][]map[string]int, n) // ref[p][k]
		for p := range ref {
			ref[p] = []map[string]int{{}}
		}
		advance := func(p int) {
			next := make(map[string]int, len(ref[p][len(ref[p])-1]))
			for name, v := range ref[p][len(ref[p])-1] {
				next[name] = v
			}
			ref[p] = append(ref[p], next)
		}
		let := func(p int) {
			name, v := names[r.Intn(len(names))], r.Intn(100)
			b.Let(p, name, v)
			ref[p][len(ref[p])-1][name] = v
		}
		check := func(step int) {
			d, err := b.Build()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			anySet := false
			for p := 0; p < n; p++ {
				if d.Len(p) != len(ref[p]) {
					t.Fatalf("seed %d step %d: process %d has %d states, reference %d",
						seed, step, p, d.Len(p), len(ref[p]))
				}
				for k, want := range ref[p] {
					anySet = anySet || len(want) > 0
					for _, name := range append(names, "never-set") {
						got, ok := d.Var(StateID{P: p, K: k}, name)
						w, wok := want[name]
						if ok != wok || got != w {
							t.Fatalf("seed %d step %d: Var((%d,%d), %q) = %d, %v; reference %d, %v",
								seed, step, p, k, name, got, ok, w, wok)
						}
					}
					// VarsAt walks the same bindings, in name order.
					slots, vals, set := d.VarsAt(StateID{P: p, K: k})
					got := map[string]int{}
					for slot, ok := range set {
						if ok {
							got[slots[slot]] = vals[slot]
						}
					}
					if !slices.IsSorted(slots) || !maps.Equal(got, want) {
						t.Fatalf("seed %d step %d: VarsAt((%d,%d)) = %q %v %v; reference %v",
							seed, step, p, k, slots, vals, set, want)
					}
				}
			}
			if d.HasVars() != anySet {
				t.Fatalf("seed %d step %d: HasVars = %v, reference %v", seed, step, d.HasVars(), anySet)
			}
		}
		if r.Intn(2) == 0 {
			let(r.Intn(n)) // at ⊥
		}
		var pending []MsgHandle
		steps := 20 + r.Intn(120)
		for i := 0; i < steps; i++ {
			p := r.Intn(n)
			switch x := r.Intn(10); {
			case x < 4:
				let(p)
				if r.Intn(3) == 0 {
					let(p) // often the same name again at the same state
				}
			case x < 7:
				b.Step(p)
				advance(p)
			case x < 9 || len(pending) == 0:
				_, h := b.Send(p)
				advance(p)
				pending = append(pending, h)
			default:
				b.Recv(p, pending[0])
				advance(p)
				pending = pending[1:]
			}
			if i%37 == 0 {
				check(i)
			}
		}
		check(steps)
	}
}

// TestBuildVarTableAllocBound pins that the number of allocations of a
// Build does not grow with the number of Lets.
func TestBuildVarTableAllocBound(t *testing.T) {
	build := func(lets int) float64 {
		b := NewBuilder(4)
		for i := 0; i < lets; i++ {
			b.Step(i % 4)
			b.Let(i%4, "cs", i&1)
		}
		return testing.AllocsPerRun(5, func() { b.MustBuild() })
	}
	small, large := build(500), build(20000)
	if large > small+4 {
		t.Errorf("Build allocates %.0f objects at 20000 Lets, %.0f at 500: the var table grows per update", large, small)
	}
}
