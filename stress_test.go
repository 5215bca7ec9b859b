package predctl

// End-to-end stress: hundreds of random computations driven through the
// full active-debugging cycle — detect, control (all engines), verify,
// replay under random delays — plus on-line control runs, all checked
// against exhaustive oracles. Skipped under -short; the per-package
// property tests already cover smaller doses of the same invariants.

import (
	"errors"
	"math/rand"
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/kmutex"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sim"
)

func TestStressOfflineCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short")
	}
	const instances = 600
	r := rand.New(rand.NewSource(20260706))
	feasible, infeasible := 0, 0
	for i := 0; i < instances; i++ {
		n := 1 + r.Intn(5)
		d := deposet.Random(r, deposet.DefaultGen(n, r.Intn(24)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.25+r.Float64()*0.6))
		seq, _, _ := detect.SGSD(d, dj.Expr(), false) // single-step: no process limit, no error
		want := seq != nil

		res, err := offline.Control(d, dj, offline.Options{})
		if errors.Is(err, offline.ErrInfeasible) {
			if want {
				t.Fatalf("instance %d: infeasible verdict on feasible instance", i)
			}
			infeasible++
			// The witness must pairwise overlap.
			for a := range res.Witness {
				for b := range res.Witness {
					if a != b && !detect.Overlaps(d, res.Witness[a], res.Witness[b]) {
						t.Fatalf("instance %d: witness does not overlap", i)
					}
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !want {
			t.Fatalf("instance %d: controller produced for infeasible instance", i)
		}
		if res.Fallback {
			t.Fatalf("instance %d: exhaustive fallback triggered", i)
		}
		feasible++
		x, err := control.Extend(d, res.Relation)
		if err != nil {
			t.Fatalf("instance %d: relation interferes: %v", i, err)
		}
		if cut, bad := detect.PossiblyTruth(x, func(p, k int) bool { return !dj.Holds(d, p, k) }); bad {
			t.Fatalf("instance %d: controlled computation violates B at %v", i, cut)
		}
		// One controlled replay under random delays.
		rr, err := replay.Run(d, res.Relation, replay.Config{
			Seed:  int64(i),
			Delay: sim.UniformDelay(1, 1+sim.Time(r.Intn(15))),
		})
		if err != nil {
			t.Fatalf("instance %d: replay: %v", i, err)
		}
		if cut, ok := replay.VerifyDisjunction(rr, d, dj); !ok {
			t.Fatalf("instance %d: replay violates B at %v", i, cut)
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("unbalanced stress corpus: %d feasible, %d infeasible", feasible, infeasible)
	}
	t.Logf("stress: %d feasible + %d infeasible instances verified", feasible, infeasible)
}

func TestStressOnlineSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short")
	}
	for i := 0; i < 80; i++ {
		n := 2 + i%5
		w := kmutex.Workload{
			N: n, Rounds: 5, ThinkMax: 50, CS: sim.Time(5 + i%40),
			Delay: sim.Time(1 + i%12), Seed: int64(i), Trace: true,
		}
		tr, _, err := kmutex.RunScapegoat(w, i%2 == 0)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if cut, bad := detect.PossiblyTruth(tr.D, func(p, k int) bool {
			if p >= n {
				return true
			}
			v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "cs")
			return ok && v == 1
		}); bad {
			t.Fatalf("run %d: all-in-CS at %v", i, cut)
		}
	}
}

func TestStressEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short")
	}
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(20)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
		_, e1 := offline.Control(d, dj, offline.Options{})
		_, e2 := offline.ControlFigure2(d, dj, offline.Options{})
		if errors.Is(e1, offline.ErrInfeasible) != errors.Is(e2, offline.ErrInfeasible) {
			t.Fatalf("instance %d: engines disagree on feasibility: %v vs %v", i, e1, e2)
		}
	}
}
