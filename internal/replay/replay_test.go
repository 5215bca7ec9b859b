package replay

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/sim"
)

func TestReplayUncontrolledPreservesStructure(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := deposet.Random(r, deposet.DefaultGen(3, 15))
	res, err := Run(d, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The replay may add local events (a message physically arriving
	// before its logical receive is buffered, then materialized), but
	// never drops any: the underlying mapping is monotone and touches
	// every original state.
	for p := 0; p < d.NumProcs(); p++ {
		if res.Trace.D.Len(p) < d.Len(p) {
			t.Fatalf("process %d: replayed %d states, original %d",
				p, res.Trace.D.Len(p), d.Len(p))
		}
		u := res.Underlying[p]
		if len(u) != res.Trace.D.Len(p) {
			t.Fatalf("process %d: mapping has %d entries for %d states", p, len(u), res.Trace.D.Len(p))
		}
		next := 0
		for _, x := range u {
			if x == next {
				next++
			} else if x > next || x < next-1 {
				t.Fatalf("process %d: mapping not monotone-complete: %v", p, u)
			}
		}
		if next != d.Len(p) {
			t.Fatalf("process %d: mapping misses states: %v", p, u)
		}
	}
	// Received messages match one-to-one.
	want := 0
	for _, m := range d.Messages() {
		if m.Received() {
			want++
		}
	}
	got := 0
	for _, m := range res.Trace.D.Messages() {
		if m.Received() {
			got++
		}
	}
	if got != want {
		t.Fatalf("replayed %d received messages, original %d", got, want)
	}
	// Underlying mapping ends at the original final state.
	for p := 0; p < d.NumProcs(); p++ {
		u := res.Underlying[p]
		if u[len(u)-1] != d.Len(p)-1 {
			t.Fatalf("process %d: final underlying = %d", p, u[len(u)-1])
		}
	}
}

func TestReplayRejectsInterference(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(0)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()
	rel := control.Relation{{From: deposet.StateID{P: 0, K: 2}, To: deposet.StateID{P: 0, K: 1}}}
	if _, err := Run(d, rel, Config{}); !errors.Is(err, control.ErrInterference) {
		t.Fatalf("err = %v, want interference", err)
	}
}

func TestReplayEnforcesControl(t *testing.T) {
	// Two independent processes; force (0,1) before (1,1): in every
	// replay the control message must order P1's first event after P0's.
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(0)
	b.Step(1)
	b.Step(1)
	d := b.MustBuild()
	rel := control.Relation{{From: deposet.StateID{P: 0, K: 1}, To: deposet.StateID{P: 1, K: 1}}}
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(d, rel, Config{Seed: seed, Delay: sim.UniformDelay(1, 20)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rd := res.Trace.D
		// Find the replayed state of P1 whose underlying state is 1: it
		// must be causally after P0's exit of underlying state 1.
		var p1entersK = -1
		for k, u := range res.Underlying[1] {
			if u == 1 {
				p1entersK = k
				break
			}
		}
		var p0exitsK = -1
		for k, u := range res.Underlying[0] {
			if u == 2 {
				p0exitsK = k
				break
			}
		}
		if p1entersK < 0 || p0exitsK < 0 {
			t.Fatalf("seed %d: mapping incomplete", seed)
		}
		if !rd.HB(deposet.StateID{P: 0, K: p0exitsK - 1}, deposet.StateID{P: 1, K: p1entersK}) {
			// From exited means original state 1 passed, i.e. the replayed
			// state just before the one mapping to underlying 2.
			t.Fatalf("seed %d: control causality missing in replay", seed)
		}
	}
}

func TestReplayVars(t *testing.T) {
	b := deposet.NewBuilder(1)
	b.Let(0, "x", 1)
	b.Step(0)
	b.Let(0, "x", 2)
	d := b.MustBuild()
	res, err := Run(d, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Trace.D.Var(deposet.StateID{P: 0, K: 1}, "x")
	if !ok || v != 2 {
		t.Fatalf("replayed x = %d,%v", v, ok)
	}
	v, ok = res.Trace.D.Var(deposet.StateID{P: 0, K: 0}, "x")
	if !ok || v != 1 {
		t.Fatalf("replayed initial x = %d,%v", v, ok)
	}
}

// The end-to-end property closing the paper's debugging loop: for random
// computations and predicates, synthesize a controller off-line, replay
// under many random delays, and verify the replayed computation
// satisfies B — or, if infeasible, that replaying is not attempted.
func TestControlledReplayProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(3), 4+r.Intn(14)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.4+r.Float64()*0.4))
		ctl, err := offline.Control(d, dj, offline.Options{})
		if errors.Is(err, offline.ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			res, err := Run(d, ctl.Relation, Config{
				Seed:  seed ^ int64(trial*7919),
				Delay: sim.UniformDelay(1, 12),
			})
			if err != nil {
				t.Logf("seed %d: replay failed: %v", seed, err)
				return false
			}
			if cut, ok := VerifyDisjunction(res, d, dj); !ok {
				t.Logf("seed %d: replay violates B at %v", seed, cut)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Replaying without control must exhibit the bug in at least some runs
// of a contrived always-violating computation (sanity that verification
// has teeth).
func TestReplayVerificationHasTeeth(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(0)
	b.Step(1)
	b.Step(1)
	d := b.MustBuild()
	// l0 false in the middle of P0, l1 false in the middle of P1 — with
	// no control, the all-false cut is reachable.
	dj := predicate.DisjunctionFromTruth([][]bool{
		{true, false, true},
		{true, false, true},
	})
	res, err := Run(d, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := VerifyDisjunction(res, d, dj); ok {
		t.Fatal("verification passed on an uncontrolled violating computation")
	}
	// And the synthesized controller fixes it.
	ctl, err := offline.Control(d, dj, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Run(d, ctl.Relation, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cut, ok := VerifyDisjunction(res, d, dj); !ok {
		t.Fatalf("controlled replay still violates B at %v", cut)
	}
}

// Replaying a computation with variables used to rebuild the whole
// variable table (deposet.Raw) once per event: quadratic, 124 s for
// 24,000 states. The table is read once per Run now; allocation —
// unlike wall-clock time, the same on every host — must grow linearly
// with the trace.
func TestReplayWithVariablesIsLinear(t *testing.T) {
	build := func(events int) *deposet.Deposet {
		b := deposet.NewBuilder(2)
		b.Let(0, "cs", 0)
		b.Let(1, "cs", 0)
		for e := 1; e <= events; e++ {
			if e%10 == 0 {
				b.Transfer(e/10%2, 1-e/10%2)
			} else {
				b.Step(0)
				b.Step(1)
			}
			b.Let(0, "cs", e%2)
			b.Let(1, "cs", e%3)
		}
		return b.MustBuild()
	}
	allocs := func(events int) float64 {
		d := build(events)
		if d.NumStates() < 2*events {
			t.Fatalf("%d events built %d states", events, d.NumStates())
		}
		return testing.AllocsPerRun(1, func() {
			res, err := Run(d, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 2; p++ {
				last := deposet.StateID{P: p, K: res.Trace.D.Len(p) - 1}
				got, _ := res.Trace.D.Var(last, "cs")
				want, _ := d.Var(d.Top(p), "cs")
				if res.Underlying[p][last.K] != d.Len(p)-1 || got != want {
					t.Fatalf("process %d: replay ends at original state %d with cs = %d, want %d with %d",
						p, res.Underlying[p][last.K], got, d.Len(p)-1, want)
				}
			}
		})
	}
	small, large := allocs(10_000), allocs(20_000)
	if large >= 3*small {
		t.Errorf("replaying 2× the states allocates %.0f objects against %.0f: not linear", large, small)
	}
}
