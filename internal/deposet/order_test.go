package deposet_test

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

// randomWithSelf is deposet.Random with self-messages: a send may be
// addressed to its own process, and messages still pending at the end
// stay in flight.
func randomWithSelf(r *rand.Rand, n, events int) *deposet.Deposet {
	b := deposet.NewBuilder(n)
	type flight struct {
		h  deposet.MsgHandle
		to int
	}
	var pending []flight
	for i := 0; i < events; i++ {
		switch x := r.Float64(); {
		case x < 0.4 && len(pending) > 0:
			j := r.Intn(len(pending))
			f := pending[j]
			pending = slices.Delete(pending, j, j+1)
			b.Recv(f.to, f.h)
		case x < 0.7:
			_, h := b.Send(r.Intn(n))
			pending = append(pending, flight{h, r.Intn(n)})
		default:
			b.Step(r.Intn(n))
		}
	}
	return b.MustBuild()
}

// denseClocks computes every state's whole clock from the recurrence
// alone — a state's clock is its predecessor's, merged with the clock of
// the state before the send of the message it receives, with its own
// component set to its index — by sweeping every state until nothing
// changes.
func denseClocks(d *deposet.Deposet) [][]vclock.VC {
	n := d.NumProcs()
	dense := make([][]vclock.VC, n)
	for p := range dense {
		dense[p] = make([]vclock.VC, d.Len(p))
		for k := range dense[p] {
			dense[p][k] = vclock.New(n)
			dense[p][k][p] = int32(k)
		}
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			for k := 1; k < d.Len(p); k++ {
				want := dense[p][k-1].Clone()
				if mi := d.RecvAt(p, k); mi >= 0 {
					m := d.Messages()[mi]
					want.Merge(dense[m.FromP][m.SendEvent-1])
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

// The sparse order answers exactly what a dense clock table would: every
// component of every state's clock, and HB between every pair of states.
func TestOrderMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		d := randomWithSelf(r, 1+r.Intn(6), r.Intn(120))
		dense := denseClocks(d)
		var buf vclock.VC
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				s := deposet.StateID{P: p, K: k}
				if buf = d.Clock(s, buf); !slices.Equal(buf, dense[p][k]) {
					t.Fatalf("trial %d: clock%v = %v, want %v", trial, s, buf, dense[p][k])
				}
				for q := 0; q < d.NumProcs(); q++ {
					for j := 0; j < d.Len(q); j++ {
						u := deposet.StateID{P: q, K: j}
						want := u != s && dense[p][k][q] >= int32(j)
						if q == p {
							want = j < k
						}
						if d.HB(u, s) != want {
							t.Fatalf("trial %d: HB(%v, %v) = %v, want %v", trial, u, s, !want, want)
						}
					}
				}
			}
		}
	}
}

// A deposet stores one clock row per ⊥ and per received message, sized
// once; a controlled computation at most one more per control edge.
func TestOrderAllocBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	extended := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(7)
		d := deposet.Random(r, deposet.DefaultGen(n, 50+r.Intn(400)))
		received := 0
		for _, m := range d.Messages() {
			if m.Received() {
				received++
			}
		}
		if rows, capacity := d.StoredRows(); rows != n+received || capacity != rows {
			t.Fatalf("trial %d: %d states, %d received: %d rows stored, room for %d; want %d of %d",
				trial, d.NumStates(), received, rows, capacity, n+received, n+received)
		}
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.6+0.3*r.Float64()))
		res, err := offline.Control(d, dj, offline.Options{})
		if errors.Is(err, offline.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		x, err := control.Extend(d, res.Relation)
		if err != nil {
			t.Fatal(err)
		}
		targets := map[deposet.StateID]bool{}
		for _, e := range res.Relation {
			targets[e.To] = true
		}
		if rows, capacity := x.StoredRows(); rows > n+received+len(targets) || capacity > n+received+len(res.Relation) {
			t.Fatalf("trial %d: %d received, %d control targets of %d edges: %d rows stored, room for %d",
				trial, received, len(targets), len(res.Relation), rows, capacity)
		}
		extended++
	}
	if extended < 10 {
		t.Fatalf("only %d of 40 trials were controllable", extended)
	}
}
