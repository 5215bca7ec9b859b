package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/offline"
	"predctl/internal/predicate"
)

// mem.go measures the allocation behaviour of the hot paths the flat
// clock arena targets: deposet construction, the detection scans, and
// the off-line controller, all on fixed workloads so the counts are
// deterministic across hosts. cmd/pcbench -membaseline serializes the
// sweep to BENCH_memory.json; -compare diffs two sweeps and fails on
// regression.

// MemMeasurement is one row of the allocation sweep.
type MemMeasurement struct {
	Name        string `json:"name"`
	Procs       int    `json:"procs"`
	States      int    `json:"states"`
	NsPerOp     int64  `json:"nsPerOp"`
	AllocsPerOp int64  `json:"allocsPerOp"`
	BytesPerOp  int64  `json:"bytesPerOp"`
}

// MemBaseline is the serializable allocation baseline (BENCH_memory.json).
type MemBaseline struct {
	Schema     int              `json:"schema"`
	GoVersion  string           `json:"goVersion"`
	NumCPU     int              `json:"numCPU"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Note       string           `json:"note"`
	Results    []MemMeasurement `json:"results"`
}

// measureMem benchmarks fn with the standard testing harness, so
// allocs/op and bytes/op come from the runtime's accounting, not
// hand-rolled sampling.
func measureMem(name string, procs, states int, fn func()) MemMeasurement {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return MemMeasurement{
		Name:        name,
		Procs:       procs,
		States:      states,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// conjFromTruth builds a conjunction whose conjunct on each process is
// the given truth table row (the shape the detection benchmarks use).
func conjFromTruth(truth [][]bool) *predicate.Conjunction {
	cj := predicate.NewConjunction(len(truth))
	for p := range truth {
		tp := truth[p]
		cj.Add(p, fmt.Sprintf("q%d", p), func(_ *deposet.Deposet, k int) bool { return tp[k] })
	}
	return cj
}

// varsBuilder populates a computation whose processes update a state
// variable on a fraction of events — the workload for the
// copy-on-write variable-snapshot row.
func varsBuilder(r *rand.Rand, procs, events int) *deposet.Builder {
	b := deposet.NewBuilder(procs)
	for p := 0; p < procs; p++ {
		b.Let(p, "x", 0)
	}
	for i := 0; i < events; i++ {
		p := r.Intn(procs)
		b.Step(p)
		if r.Float64() < 0.1 {
			b.Let(p, "x", r.Intn(4))
		}
	}
	return b
}

// MeasureMemory runs the allocation sweep. The measured code paths are
// sequential and seeded, so the allocation counts are identical on any
// host.
func MeasureMemory(seed int64) *MemBaseline {
	r := rand.New(rand.NewSource(seed))
	b := &MemBaseline{
		Schema:     1,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Note: "fixed seeded workloads: allocs/op and bytes/op are deterministic " +
			"per code version; nsPerOp depends on the host",
	}

	bld := deposet.RandomBuilder(r, deposet.DefaultGen(16, 1800))
	d := bld.MustBuild()
	truthLow := deposet.RandomTruth(r, d, 0.1)
	truthHigh := deposet.RandomTruth(r, d, 0.3)
	cjLow := conjFromTruth(truthLow)
	cjHigh := conjFromTruth(truthHigh)
	vb := varsBuilder(rand.New(rand.NewSource(seed+1)), 8, 1000)
	cd, cdj := intervalWorkload(8, 32)
	s := deposet.StateID{P: 0, K: d.Len(0) / 2}
	t := deposet.StateID{P: d.NumProcs() - 1, K: d.Len(d.NumProcs()-1) - 1}

	b.Results = append(b.Results,
		measureMem("deposet-build", 16, d.NumStates(), func() {
			if _, err := bld.Build(); err != nil {
				panic(err)
			}
		}),
		measureMem("deposet-build-vars", 8, 1008, func() {
			if _, err := vb.Build(); err != nil {
				panic(err)
			}
		}),
		measureMem("detect-possibly", 16, d.NumStates(), func() {
			detect.PossiblyConjunctive(d, cjLow)
		}),
		measureMem("detect-definitely", 16, d.NumStates(), func() {
			detect.DefinitelyConjunctive(d, cjHigh)
		}),
		measureMem("offline-control n=8 p=32", 8, cd.NumStates(), func() {
			if _, err := offline.Control(cd, cdj, offline.Options{}); err != nil {
				panic(err)
			}
		}),
		measureMem("offline-figure2 n=8 p=32", 8, cd.NumStates(), func() {
			if _, err := offline.ControlFigure2(cd, cdj, offline.Options{}); err != nil {
				panic(err)
			}
		}),
		measureMem("hb", 16, d.NumStates(), func() {
			d.HB(s, t)
		}),
		measureMem("clock", 16, d.NumStates(), func() {
			d.Clock(s)
		}),
	)
	return b
}

// MemoryJSON renders the sweep as the committed BENCH_memory.json.
func MemoryJSON(seed int64) ([]byte, error) {
	doc, err := json.MarshalIndent(MeasureMemory(seed), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// Comparison tolerances: allocation counts are deterministic, so only a
// small absolute slack is allowed (map iteration order can shift a
// handful of map-growth allocations); wall time gets wide slack because
// CI hosts are noisy.
const (
	memAllocSlackRel = 0.10
	memAllocSlackAbs = 8
	memNsSlackRel    = 0.50
)

// CompareMem diffs cur against old row by row and reports regressions:
// any matched row whose allocs/op or ns/op exceed the old value beyond
// the tolerances. The returned report always lists every matched row.
func CompareMem(old, cur *MemBaseline) (string, error) {
	prev := make(map[string]MemMeasurement, len(old.Results))
	for _, m := range old.Results {
		prev[m.Name] = m
	}
	var rep strings.Builder
	var regressions []string
	fmt.Fprintf(&rep, "%-26s  %14s  %14s  %12s\n", "workload", "allocs/op", "bytes/op", "ns/op")
	for _, m := range cur.Results {
		p, ok := prev[m.Name]
		if !ok {
			fmt.Fprintf(&rep, "%-26s  %14s  %14s  %12s  (new row)\n",
				m.Name, fmt.Sprint(m.AllocsPerOp), fmt.Sprint(m.BytesPerOp), fmt.Sprint(m.NsPerOp))
			continue
		}
		fmt.Fprintf(&rep, "%-26s  %6d→%-7d  %6d→%-7d  %5s→%-6s\n",
			m.Name, p.AllocsPerOp, m.AllocsPerOp, p.BytesPerOp, m.BytesPerOp,
			nsString(p.NsPerOp), nsString(m.NsPerOp))
		if float64(m.AllocsPerOp) > float64(p.AllocsPerOp)*(1+memAllocSlackRel)+memAllocSlackAbs {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d → %d", m.Name, p.AllocsPerOp, m.AllocsPerOp))
		}
		if float64(m.NsPerOp) > float64(p.NsPerOp)*(1+memNsSlackRel) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/op %d → %d", m.Name, p.NsPerOp, m.NsPerOp))
		}
	}
	if len(regressions) > 0 {
		return rep.String(), fmt.Errorf("bench regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return rep.String(), nil
}
