package control_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/vclock"
)

// denseExtended computes every state's whole →C clock from the
// recurrence alone — its predecessor's clock, merged with the state its
// receive's send event reaches and the state each control edge's exit
// event reaches, each with the sender's component lowered to the state
// exited, and its own component set to its index — by sweeping every
// state until nothing changes.
func denseExtended(d *deposet.Deposet, rel control.Relation) [][]vclock.VC {
	n := d.NumProcs()
	dense := make([][]vclock.VC, n)
	for p := range dense {
		dense[p] = make([]vclock.VC, d.Len(p))
		for k := range dense[p] {
			dense[p][k] = vclock.New(n)
			dense[p][k][p] = int32(k)
		}
	}
	lowered := func(s deposet.StateID) vclock.VC { // s.K+1's clock, s.P's component at s.K
		v := dense[s.P][s.K+1].Clone()
		v[s.P] = int32(s.K)
		return v
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			for k := 1; k < d.Len(p); k++ {
				want := dense[p][k-1].Clone()
				if mi := d.RecvAt(p, k); mi >= 0 {
					m := d.Messages()[mi]
					want.Merge(lowered(deposet.StateID{P: m.FromP, K: m.SendEvent - 1}))
				}
				for _, e := range rel {
					if e.To == (deposet.StateID{P: p, K: k}) {
						want.Merge(lowered(e.From))
					}
				}
				want[p] = int32(k)
				if !slices.Equal(want, dense[p][k]) {
					dense[p][k] = want
					changed = true
				}
			}
		}
	}
	return dense
}

// Extend's sparse order answers exactly what a dense →C clock table
// would, under the relations Figure 2 computes and under random
// non-interfering ones.
func TestExtendMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	checked := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(5), 20+r.Intn(100)))
		kind, rel := "random", control.RandomAcyclicRelation(r, d)
		if trial%2 == 0 {
			dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.6+0.3*r.Float64()))
			res, err := offline.ControlFigure2(d, dj, offline.Options{})
			if errors.Is(err, offline.ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			kind, rel = "figure2", res.Relation
		}
		x, err := control.Extend(d, rel)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, kind, err)
		}
		dense := denseExtended(d, rel)
		var buf vclock.VC
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				s := deposet.StateID{P: p, K: k}
				if buf = x.Clock(s, buf); !slices.Equal(buf, dense[p][k]) {
					t.Fatalf("trial %d (%s): clock%v = %v, want %v", trial, kind, s, buf, dense[p][k])
				}
				for q := 0; q < d.NumProcs(); q++ {
					for j := 0; j < d.Len(q); j++ {
						u := deposet.StateID{P: q, K: j}
						want := q != p && dense[p][k][q] >= int32(j) || q == p && j < k
						if x.HB(u, s) != want {
							t.Fatalf("trial %d (%s): HB(%v, %v) = %v, want %v", trial, kind, u, s, !want, want)
						}
					}
				}
			}
		}
		if len(rel) > 0 {
			checked[kind]++
		}
	}
	if checked["figure2"] < 10 || checked["random"] < 10 {
		t.Fatalf("relations checked: %v, want 10 or more of each kind", checked)
	}
}
