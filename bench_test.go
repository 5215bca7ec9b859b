package predctl

// Benchmarks mirroring the experiment harness (cmd/pcbench, DESIGN.md's
// E1..E8 index) as testing.B targets, plus micro-benchmarks for the
// substrates. Custom metrics surface the paper's own units (control
// messages per entry, explored cuts) alongside ns/op.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/kmutex"
	"predctl/internal/monitor"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sat"
	"predctl/internal/scenario"
	"predctl/internal/sim"
	"predctl/internal/vclock"
)

// --- E1: SGSD on SAT reductions (NP-hardness, Figure 1) ---

func BenchmarkE1SGSDReduction(b *testing.B) {
	for _, m := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(m)))
			f := sat.RandomKSAT(r, m, int(4.3*float64(m)), 3)
			red, err := sat.Reduce(f)
			if err != nil {
				b.Fatal(err)
			}
			var explored int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := detect.SGSD(red.D, red.B, false)
				if err != nil {
					b.Fatal(err)
				}
				explored = stats.NodesExplored
			}
			b.ReportMetric(float64(explored), "cuts")
		})
	}
}

// --- E2: off-line disjunctive control scaling ---

func e2Workload(n, p int) (*deposet.Deposet, *predicate.Disjunction) {
	bld := deposet.NewBuilder(n)
	states := 1 + 4*p
	for q := 0; q < n; q++ {
		for e := 1; e < states; e++ {
			bld.Step(q)
		}
	}
	d := bld.MustBuild()
	truth := make([][]bool, n)
	for q := 0; q < n; q++ {
		truth[q] = make([]bool, states)
		for k := 0; k < states; k++ {
			truth[q][k] = k == 0 || (k-1)%4 >= 2
		}
	}
	return d, predicate.DisjunctionFromTruth(truth)
}

func benchOffline(b *testing.B, run func(*deposet.Deposet, *predicate.Disjunction) (*offline.Result, error)) {
	for _, n := range []int{2, 8, 32} {
		for _, p := range []int{8, 32} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				d, dj := e2Workload(n, p)
				var edges int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := run(d, dj)
					if err != nil {
						b.Fatal(err)
					}
					edges = len(res.Relation)
				}
				b.ReportMetric(float64(edges), "edges")
			})
		}
	}
}

func BenchmarkE2OfflineChain(b *testing.B) {
	b.ReportAllocs()
	benchOffline(b, func(d *deposet.Deposet, dj *predicate.Disjunction) (*offline.Result, error) {
		return offline.Control(d, dj, offline.Options{})
	})
}

func BenchmarkE2OfflineFigure2(b *testing.B) {
	benchOffline(b, func(d *deposet.Deposet, dj *predicate.Disjunction) (*offline.Result, error) {
		return offline.ControlFigure2(d, dj, offline.Options{})
	})
}

func BenchmarkE2OfflineFigure2Naive(b *testing.B) {
	benchOffline(b, func(d *deposet.Deposet, dj *predicate.Disjunction) (*offline.Result, error) {
		return offline.ControlFigure2(d, dj, offline.Options{Naive: true})
	})
}

// --- E3: two-process mutual exclusion message complexity ---

func BenchmarkE3Mutex(b *testing.B) {
	for _, p := range []int{16, 128} {
		b.Run(fmt.Sprintf("cs=%d", p), func(b *testing.B) {
			d, dj := e2Workload(2, p)
			var perCS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := offline.Control(d, dj, offline.Options{})
				if err != nil {
					b.Fatal(err)
				}
				perCS = float64(len(res.Relation)) / float64(2*p)
			}
			b.ReportMetric(perCS, "msgs/cs")
		})
	}
}

// --- E4/E5: on-line control overhead ---

func benchOnline(b *testing.B, broadcast bool) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := kmutex.Workload{
				N: n, Rounds: 20, ThinkMax: 200, CS: 20, Delay: 5, Seed: 11,
			}
			var msgsPerEntry float64
			var maxResp sim.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := kmutex.RunScapegoat(w, broadcast)
				if err != nil {
					b.Fatal(err)
				}
				msgsPerEntry = m.MessagesPerEntry()
				maxResp = m.Responses.Max()
			}
			b.ReportMetric(msgsPerEntry, "msgs/entry")
			b.ReportMetric(float64(maxResp), "max-resp")
		})
	}
}

func BenchmarkE4OnlineAntiToken(b *testing.B) { benchOnline(b, false) }
func BenchmarkE5OnlineBroadcast(b *testing.B) { benchOnline(b, true) }

// --- E6: k-mutex baselines ---

func benchKMutex(b *testing.B, run func(kmutex.Workload) (*sim.Trace, *kmutex.Metrics, error)) {
	w := kmutex.Workload{N: 8, Rounds: 20, ThinkMax: 200, CS: 20, Delay: 5, Seed: 11}
	var msgsPerEntry float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := run(w)
		if err != nil {
			b.Fatal(err)
		}
		msgsPerEntry = m.MessagesPerEntry()
	}
	b.ReportMetric(msgsPerEntry, "msgs/entry")
}

func BenchmarkE6KMutexCentral(b *testing.B) { benchKMutex(b, kmutex.RunCentral) }
func BenchmarkE6KMutexToken(b *testing.B)   { benchKMutex(b, kmutex.RunToken) }
func BenchmarkE6KMutexAntiToken(b *testing.B) {
	benchKMutex(b, func(w kmutex.Workload) (*sim.Trace, *kmutex.Metrics, error) {
		return kmutex.RunScapegoat(w, false)
	})
}

// --- E7: the Figure 4 debugging cycle end to end ---

func BenchmarkE7Figure4Cycle(b *testing.B) {
	fg, err := scenario.New()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		d := fg.C1
		if _, ok := detect.PossiblyConjunctive(d, fg.Bug1On(nil)); !ok {
			b.Fatal("bug1 not detected")
		}
		res1, err := offline.Control(d, fg.Avail, offline.Options{})
		if err != nil {
			b.Fatal(err)
		}
		c2, err := replay.Run(d, res1.Relation, replay.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := detect.PossiblyTruth(c2.Trace.D, func(p, k int) bool {
			return fg.Bug2On(c2.Underlying).Holds(c2.Trace.D, p, k)
		}); !ok {
			b.Fatal("bug2 not detected in C2")
		}
		res4, err := offline.Control(d, fg.EBeforeF, offline.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replay.Run(d, res4.Relation, replay.Config{Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: CNF (locally independent) control ---

func BenchmarkE8ControlCNF(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	d := deposet.Random(r, deposet.DefaultGen(6, 48))
	truth := deposet.RandomTruth(r, d, 0.25)
	var clauses []*predicate.Disjunction
	for c := 0; c < 4; c++ {
		i, j := c%3, 3+c%3
		dj := predicate.NewDisjunction(6)
		ti, tj := truth[i], truth[j]
		dj.Add(i, "¬cs", func(_ *deposet.Deposet, k int) bool { return !ti[k] })
		dj.Add(j, "¬cs", func(_ *deposet.Deposet, k int) bool { return !tj[k] })
		clauses = append(clauses, dj)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := offline.ControlCNF(d, clauses, offline.Options{})
		if err != nil && !errors.Is(err, offline.ErrInfeasible) &&
			!errors.Is(err, offline.ErrNotIndependent) {
			b.Fatal(err)
		}
	}
}

// --- E10: computation slicing ---

func BenchmarkViolationsSliced(b *testing.B) {
	b.ReportAllocs()
	// ¬(∨ lp) is regular, so the dispatcher takes the violations from the
	// computation slice (4,096 cuts) instead of walking the lattice
	// (33³ = 35,937) — the states-explored gap is the whole point
	// (BENCH_slice.json). The disjunction goes in as the normal form, the
	// way predctl.Violations receives it; a run that fell off the slice
	// path is timing the wrong algorithm and fails.
	d, dj := e2Workload(3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats := detect.AllViolations(d, dj); !stats.Sliced {
			b.Fatalf("violation enumeration left the slice path: %+v", stats)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkVClockMerge(b *testing.B) {
	b.ReportAllocs()
	v := vclock.New(64)
	w := vclock.New(64)
	for i := range w {
		w[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Merge(w)
	}
}

func BenchmarkDeposetBuild(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deposet.Random(r, deposet.DefaultGen(8, 400))
	}
}

func BenchmarkDeposetHB(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(3))
	d := deposet.Random(r, deposet.DefaultGen(8, 800))
	s := deposet.StateID{P: 0, K: d.Len(0) / 2}
	t := deposet.StateID{P: 7, K: d.Len(7) - 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.HB(s, t)
	}
}

func BenchmarkDetectPossibly(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(5))
	d := deposet.Random(r, deposet.DefaultGen(16, 3200))
	truth := deposet.RandomTruth(r, d, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.PossiblyTruth(d, func(p, k int) bool { return truth[p][k] })
	}
}

func BenchmarkDetectDefinitely(b *testing.B) {
	b.ReportAllocs()
	r := rand.New(rand.NewSource(5))
	d := deposet.Random(r, deposet.DefaultGen(16, 3200))
	truth := deposet.RandomTruth(r, d, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.DefinitelyTruth(d, func(p, k int) bool { return truth[p][k] })
	}
}

func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New(sim.Config{Procs: 8, Seed: int64(i)})
		bodies := make([]func(*sim.Proc), 8)
		for j := range bodies {
			bodies[j] = func(p *sim.Proc) {
				for step := 0; step < 50; step++ {
					p.Send((p.ID()+1)%p.N(), step)
					p.Recv()
				}
			}
		}
		if _, err := k.Run(bodies...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	d := deposet.Random(r, deposet.DefaultGen(6, 300))
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.8))
	res, err := offline.Control(d, dj, offline.Options{})
	if err != nil {
		b.Skip("instance infeasible; adjust seed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(d, res.Relation, replay.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorDetection(b *testing.B) {
	apps := make([]func(*monitor.Probe), 6)
	for i := range apps {
		apps[i] = func(pr *monitor.Probe) {
			p := pr.P()
			for r := 0; r < 20; r++ {
				p.Work(sim.Time(1 + p.Rand().Intn(5)))
				q := 1 - r%2
				p.Set("q", q)
				pr.SetLocal(q == 1)
			}
			pr.SetLocal(true)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := monitor.Run(sim.Config{Seed: int64(i)}, apps); err != nil {
			b.Fatal(err)
		}
	}
}
