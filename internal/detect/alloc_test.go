package detect

import (
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// Detection on a mid-size trace must stay within a constant handful of
// allocations — the candidate cursor, the wrapping closure and the
// witness cut — independent of trace size. The
// pin is deliberately loose (≤ 4 per call) so it survives compiler
// inlining changes while still catching a per-state or per-round
// allocation creeping into the scan.
func TestPossiblyConjunctiveAllocBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := deposet.Random(r, deposet.DefaultGen(8, 1200))
	cj := predicate.NewConjunction(8)
	for p := 0; p < 8; p++ {
		p := p
		cj.Add(p, "mid", func(_ *deposet.Deposet, k int) bool { return k >= d.Len(p)/2 })
	}
	var cut deposet.Cut
	var ok bool
	n := testing.AllocsPerRun(50, func() { cut, ok = PossiblyConjunctive(d, cj) })
	if !ok || cut == nil {
		t.Fatal("conjunction undetected; workload broken")
	}
	if n > 4 {
		t.Errorf("PossiblyConjunctive allocates %.1f per run, want ≤ 4", n)
	}
}
