package expt

import (
	"math/rand"
	"time"

	"predctl/internal/detect"
	"predctl/internal/sat"
)

// E1 reproduces Figure 1 / Lemma 1 / Theorem 1: SGSD is NP-complete. The
// SAT → SGSD reduction is exercised on random 3-SAT instances near the
// satisfiability threshold (clauses ≈ 4.3·m); the search cost of SGSD
// grows exponentially with the number of variables, while the reduction
// itself is linear and answers always agree with brute-force SAT.
func E1(seed int64) *Table {
	t := &Table{
		ID:    "E1",
		Title: "SAT → SGSD reduction (Figure 1): exponential search, perfect agreement",
		Claim: "off-line predicate control for general predicates is NP-hard (Lemma 1, Theorem 1)",
		Columns: []string{
			"vars m", "clauses", "procs", "satisfiable", "SGSD agrees", "cuts explored", "time",
		},
	}
	r := rand.New(rand.NewSource(seed))
	for m := 4; m <= 12; m++ {
		clauses := int(4.3 * float64(m))
		f := sat.RandomKSAT(r, m, clauses, 3)
		_, want := sat.BruteForce(f)
		red, err := sat.Reduce(f)
		if err != nil {
			t.Note("m=%d: reduction failed: %v", m, err)
			continue
		}
		var explored int
		var got bool
		d := timeIt(func() {
			seq, stats, serr := detect.SGSD(red.D, red.B, false)
			if serr != nil {
				panic(serr)
			}
			explored = stats.NodesExplored
			got = seq != nil
		})
		agree := "yes"
		if got != want {
			agree = "NO (BUG)"
		}
		t.Row(m, clauses, m+1, want, agree, explored, d)
	}
	t.Note("explored cuts grow exponentially in m on unsatisfiable instances — the")
	t.Note("content of Theorem 1; compare E2's polynomial disjunctive control.")
	_ = time.Now
	return t
}
