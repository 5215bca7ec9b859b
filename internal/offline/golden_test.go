package offline

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// TestControlRelationGolden pins what Control returns — error, relation,
// handoff count, fallback — over a seeded corpus of random computations,
// under the zero Options, PreferLate and a seeded Rand (whose shuffled
// order paints the greedy into corners, so the backtracking search runs).
// The digest fixes the chain search's candidate order: a change that
// reorders, drops or adds a handoff candidate changes some relation and
// so the digest. A new digest is a new controller, not a new golden.
func TestControlRelationGolden(t *testing.T) {
	const want = "c54788d16b1710f3dffad686321ca436d1eb8d532bf980251c91b388753ebb9e"
	h := sha256.New()
	cases := 0
	for n := 2; n <= 8; n++ {
		for _, events := range []int{10, 40, 160} {
			for _, density := range []float64{0.5, 0.65, 0.8, 0.95} {
				for seed := int64(0); seed < 20; seed++ {
					r := rand.New(rand.NewSource(seed*1000 + int64(n*10+events)))
					d := deposet.Random(r, deposet.DefaultGen(n, events))
					dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, density))
					for i, opts := range []Options{{}, {PreferLate: true}, {Rand: rand.New(rand.NewSource(seed))}} {
						res, err := Control(d, dj, opts)
						if res == nil {
							t.Fatalf("n=%d events=%d density=%v seed=%d opts#%d: %v", n, events, density, seed, i, err)
						}
						fmt.Fprintf(h, "%v|%v|%d|%v\n", err, res.Relation, res.Iterations, res.Fallback)
						cases++
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("relations over %d cases digest to %s, want %s", cases, got, want)
	}
}

// eagerCandidates is the enumeration candidates replaced, kept as its
// oracle: every admissible entry of every process listed up front, in
// the search's order.
func eagerCandidates(c *chain, opts Options) []candidate {
	order := make([]int, 0, c.n-1)
	for p := 0; p < c.n; p++ {
		if p != c.holder {
			order = append(order, p)
		}
	}
	if opts.Rand != nil {
		opts.Rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	block := deposet.StateID{P: c.holder, K: c.hEnd - 1}
	var perProc [][]candidate
	for _, p := range order {
		first := c.firstEntry(p, block)
		if first < 0 {
			continue
		}
		list := []candidate{{p, first}}
		for _, iv := range c.laterEntries(p, first, block) {
			list = append(list, candidate{p, iv.Hi + 1})
		}
		if opts.PreferLate {
			slices.Reverse(list)
		}
		perProc = append(perProc, list)
	}
	var out, restarts []candidate
	for rank := 0; ; rank++ {
		more := false
		for _, list := range perProc {
			if rank < len(list) {
				more = true
				if list[rank].y == 0 {
					restarts = append(restarts, list[rank])
				} else {
					out = append(out, list[rank])
				}
			}
		}
		if !more {
			return append(out, restarts...)
		}
	}
}

// TestCandidatesMatchEager walks random chains, taking a random
// candidate at each step, and requires the on-demand sequence to equal
// the eager list at every state reached, under every option — restarts
// included, whose order the relation digest rarely witnesses.
func TestCandidatesMatchEager(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(5), 10+r.Intn(60)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5+0.45*r.Float64()))
		for _, late := range []bool{false, true} {
			c := newChain(d, dj)
			for c.holder >= 0 && c.hEnd < d.Len(c.holder) {
				lazy := slices.Collect(c.candidates(Options{PreferLate: late, Rand: rand.New(rand.NewSource(seed))}))
				eager := eagerCandidates(c, Options{PreferLate: late, Rand: rand.New(rand.NewSource(seed))})
				if !slices.Equal(lazy, eager) {
					t.Fatalf("seed %d, PreferLate=%v, holder P%d until %d, g=%v: on demand %v, eager %v",
						seed, late, c.holder, c.hEnd, c.g, lazy, eager)
				}
				if len(eager) == 0 {
					break
				}
				pick := eager[r.Intn(len(eager))]
				c.apply(pick.p, pick.y)
			}
		}
	}
}

// TestControlAllocBound pins the chain search's allocations per handoff
// on a 16-process computation: the search builds only the candidate it
// takes, so a handoff costs its snapshot and its candidate cursor, not a
// list of every admissible entry of every process.
func TestControlAllocBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := deposet.RandomBuilder(r, deposet.DefaultGen(16, 8000)).MustBuild()
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.8))
	res, err := Control(d, dj, Options{})
	if err != nil || res.Fallback || res.Iterations < 100 {
		t.Fatalf("want a long feasible chain: err=%v fallback=%v iterations=%d", err, res.Fallback, res.Iterations)
	}
	allocs := testing.AllocsPerRun(5, func() { Control(d, dj, Options{}) })
	per := allocs / float64(res.Iterations)
	if per > 8 {
		t.Fatalf("%.0f allocations over %d handoffs: %.1f per handoff, want ≤ 8", allocs, res.Iterations, per)
	}
	t.Logf("%.0f allocations over %d handoffs: %.1f per handoff", allocs, res.Iterations, per)
}
