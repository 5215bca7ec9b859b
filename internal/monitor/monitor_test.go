package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/sim"
)

// phasedApp runs `rounds` random q-false/q-true periods, keeping the
// trace variable "q" and the probe's SetLocal in lock step, with some
// app-level chatter to create causality, and ends with q true. A sparse
// app sends every round, holds q a quarter of the time and ends as it
// is, so that some runs have no consistent state where every q holds.
func phasedApp(rounds int, sparse bool) func(*Probe) {
	return func(pr *Probe) {
		p := pr.P()
		p.Init("q", 0)
		pr.SetLocal(false)
		for r := 0; r < rounds; r++ {
			p.Work(sim.Time(1 + p.Rand().Intn(7)))
			if (sparse || p.Rand().Intn(3) == 0) && pr.N() > 1 {
				to := p.Rand().Intn(pr.N() - 1)
				if to >= p.ID() {
					to++
				}
				p.Send(to, r)
			}
			for {
				if _, _, ok := p.TryRecv(); !ok {
					break
				}
			}
			q := p.Rand().Intn(2)
			if sparse && p.Rand().Intn(2) == 0 {
				q = 0
			}
			p.Set("q", q)
			pr.SetLocal(q == 1)
		}
		if !sparse {
			p.Set("q", 1) // end true so late candidates exist
			pr.SetLocal(true)
		}
	}
}

func qHolds(tr *sim.Trace, napps int) detect.HoldsFn {
	return func(p, k int) bool {
		if p >= napps {
			return true // the checker carries no conjunct
		}
		v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "q")
		return ok && v == 1
	}
}

func TestMonitorDetectsSimpleOverlap(t *testing.T) {
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(10)
		},
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(10)
		},
	}
	tr, det, err := Run(sim.Config{Trace: true, Seed: 1}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatal("both-true-everywhere must be detected")
	}
	if _, ok := detect.PossiblyTruth(tr.D, qHolds(tr, 2)); !ok {
		t.Fatal("trace disagrees")
	}
}

func TestMonitorRejectsOrderedIntervals(t *testing.T) {
	// P0 is true only before sending; P1 only after receiving: the true
	// intervals are causally ordered, so ∧q is impossible.
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Set("q", 0)
			pr.SetLocal(false)
			pr.P().Send(1, "go")
		},
		func(pr *Probe) {
			pr.P().Init("q", 0)
			pr.SetLocal(false)
			pr.P().Recv()
			pr.P().Set("q", 1)
			pr.SetLocal(true)
		},
	}
	tr, det, err := Run(sim.Config{Trace: true, Seed: 2}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if det.Found {
		t.Fatalf("ordered intervals wrongly detected: %+v", det.Intervals)
	}
	if _, ok := detect.PossiblyTruth(tr.D, qHolds(tr, 2)); ok {
		t.Fatal("trace disagrees: possibly should be false")
	}
}

// Property: the on-line checker's verdict equals the off-line detector's
// verdict on the very trace the run produced, across random workloads,
// and a witness is one on that trace: every front is q-true, and no
// front ends before another begins. Half the runs are sparse, so both
// verdicts occur.
func TestMonitorMatchesOfflineDetectionProperty(t *testing.T) {
	verdicts := map[bool]int{}
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%3)
		apps := make([]func(*Probe), n)
		for i := range apps {
			apps[i] = phasedApp(5+int(uint64(seed>>8)%6), seed%2 != 0)
		}
		cfg := sim.Config{Trace: true, Seed: seed, Delay: sim.UniformDelay(1, 6)}
		tr, det, err := Run(cfg, apps)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, want := detect.PossiblyTruth(tr.D, qHolds(tr, n))
		verdicts[want]++
		if det.Found != want {
			t.Logf("seed %d: checker=%v offline=%v", seed, det.Found, want)
			return false
		}
		for p, c := range det.Intervals {
			for k := int(c.LoIdx); k <= int(c.HiIdx); k++ {
				v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "q")
				if !ok || v != 1 {
					t.Logf("seed %d: witness P%d[%d..%d] not q-true at %d",
						seed, p, c.LoIdx, c.HiIdx, k)
					return false
				}
			}
			// possibly's overlap: Iₚ's last state precedes no other
			// front's first, so the fronts meet in one consistent cut.
			hi := deposet.StateID{P: p, K: int(c.HiIdx)}
			for q, o := range det.Intervals {
				if q != p && tr.D.HB(hi, deposet.StateID{P: q, K: int(o.LoIdx)}) {
					t.Logf("seed %d: witness P%d[..%d] precedes P%d[%d..]", seed, p, c.HiIdx, q, o.LoIdx)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: the workload no longer exercises both", verdicts)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(sim.Config{Procs: 5}, make([]func(*Probe), 2)); err == nil {
		t.Fatal("Procs mismatch accepted")
	}
}

// candidate, refDetection and refAdvance are the checker this package
// carried before runChecker fed livedetect.Checker: the elimination
// loop verbatim, kept as the differential oracle.
type candidate struct {
	proc   int
	lo, hi []int32 // clocks at the interval's first and last state
	loIdx  int     // traced state index of the interval's first state
	hiIdx  int
}

type refDetection struct {
	Found     bool
	Intervals []candidate
}

func refAdvance(queues [][]candidate, det *refDetection, drops *obs.Counter) {
	n := len(queues)
	for {
		for i := 0; i < n; i++ {
			if len(queues[i]) == 0 {
				return // need more candidates before a verdict
			}
		}
		dropped := false
		for i := 0; i < n && !dropped; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				// Iᵢ wholly precedes Iⱼ: Iᵢ's last state causally
				// precedes Iⱼ's first.
				if queues[j][0].lo[i] >= queues[i][0].hi[i] {
					queues[i] = queues[i][1:]
					drops.Inc()
					dropped = true
					break
				}
			}
		}
		if !dropped {
			det.Found = true
			det.Intervals = make([]candidate, n)
			for i := 0; i < n; i++ {
				det.Intervals[i] = queues[i][0]
			}
			return
		}
	}
}

// randomStream is a seeded candidate stream over n processes in arrival
// order: per process the state indices and the own clock component only
// grow (an interval may be a single state, lo = hi, and may end at
// state 0); foreign components are drawn from a window around the
// sender's progress, so wholly-preceding, overlapping and tied
// (lo[i] == hi[i]) pairs all occur. silent, when ≥ 0, never reports.
func randomStream(r *rand.Rand, n, silent int) []candidate {
	own := make([]int32, n)
	idx := make([]int, n)
	var out []candidate
	for k := r.Intn(6 * n); k > 0; k-- {
		p := r.Intn(n)
		if p == silent {
			continue
		}
		lo, hi := make([]int32, n), make([]int32, n)
		for q := range lo {
			lo[q] = int32(r.Intn(int(own[q]) + 2))
			hi[q] = lo[q] + int32(r.Intn(2))
		}
		lo[p] = own[p] + int32(r.Intn(2))
		hi[p] = lo[p] + int32(r.Intn(3))
		own[p] = hi[p]
		c := candidate{proc: p, lo: lo, hi: hi, loIdx: idx[p]}
		c.hiIdx = c.loIdx + r.Intn(3)
		idx[p] = c.hiIdx + 1
		out = append(out, c)
	}
	return out
}

// TestCheckerMatchesReferenceAdvance drives seeded random candidate
// streams through the deleted monitor.advance (above) and through the
// livedetect.Checker runChecker now feeds, one candidate at a time as
// the checker process receives them: same verdict, same witness, same
// number of eliminations.
func TestCheckerMatchesReferenceAdvance(t *testing.T) {
	const streams = 2000
	found := 0
	for seed := int64(0); seed < streams; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		silent := -1
		if r.Intn(5) == 0 {
			silent = r.Intn(n)
		}
		stream := randomStream(r, n, silent)

		queues := make([][]candidate, n)
		var want refDetection
		drops := obs.NewRegistry().Counter("drops")
		chk := livedetect.New(n)
		for _, c := range stream {
			queues[c.proc] = append(queues[c.proc], c)
			refAdvance(queues, &want, drops)
			got := chk.Offer(0, livedetect.Interval{
				Proc: c.proc, LoIdx: int64(c.loIdx), HiIdx: int64(c.hiIdx), Lo: c.lo, Hi: c.hi,
			})
			if got != want.Found {
				t.Fatalf("seed %d: after %+v checker=%v reference=%v", seed, c, got, want.Found)
			}
			if got {
				break // runChecker stops at the first witness, as the reference loop did
			}
		}
		wit := chk.Witness()
		if (wit != nil) != want.Found {
			t.Fatalf("seed %d: witness %v, reference found=%v", seed, wit, want.Found)
		}
		for p, iv := range wit {
			if w := want.Intervals[p]; iv.Proc != w.proc || int(iv.LoIdx) != w.loIdx || int(iv.HiIdx) != w.hiIdx {
				t.Fatalf("seed %d: witness P%d = %+v, reference %+v", seed, p, iv, w)
			}
		}
		if _, dropped, stale := chk.Stats(); dropped != drops.Value() || stale != 0 {
			t.Fatalf("seed %d: checker dropped %d (stale %d), reference %d", seed, dropped, stale, drops.Value())
		}
		if want.Found {
			found++
			if silent >= 0 {
				t.Fatalf("seed %d: witness with P%d silent", seed, silent)
			}
		}
	}
	if found < streams/10 || found > streams*9/10 {
		t.Fatalf("%d of %d streams found a witness: the generator no longer exercises both verdicts", found, streams)
	}
}
