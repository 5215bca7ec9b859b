package control

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
)

// indep builds two independent processes with 2 events each (3 states).
func indep(t testing.TB) *deposet.Deposet {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(0)
	b.Step(1)
	b.Step(1)
	return b.MustBuild()
}

func TestExtendEmptyEqualsUnderlying(t *testing.T) {
	d := indep(t)
	x, err := Extend(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x.Underlying() != d || len(x.Edges()) != 0 {
		t.Fatal("accessors wrong")
	}
	d.ForEachConsistentCut(func(g deposet.Cut) bool {
		if !x.Consistent(g) {
			t.Fatalf("cut %v lost without control", g)
		}
		return true
	})
	if x.CountConsistentCuts() != d.CountConsistentCuts() {
		t.Error("lattice size changed with empty control")
	}
}

func TestControlEdgeAddsCausality(t *testing.T) {
	d := indep(t)
	// Force (0,1) before (1,1): P1 may not pass state 0 until P0 passed 1.
	rel := Relation{{From: deposet.StateID{P: 0, K: 1}, To: deposet.StateID{P: 1, K: 1}}}
	x, err := Extend(d, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !x.HB(deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 1}) {
		t.Error("control edge not in extended causality")
	}
	if !x.HB(deposet.StateID{P: 0, K: 0}, deposet.StateID{P: 1, K: 2}) {
		t.Error("extended causality not transitive")
	}
	if d.HB(deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 1}) {
		t.Error("underlying causality mutated")
	}
	// Cut (0,1) is consistent in d but not in the controlled deposet.
	g := deposet.Cut{0, 1}
	if !d.Consistent(g) {
		t.Fatal("precondition: cut consistent in underlying")
	}
	if x.Consistent(g) {
		t.Error("forced-before cut still consistent")
	}
	if x.Concurrent(deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 1}) {
		t.Error("ordered states reported concurrent")
	}
	if !x.Concurrent(deposet.StateID{P: 0, K: 2}, deposet.StateID{P: 1, K: 1}) {
		t.Error("concurrent states reported ordered")
	}
}

func TestExtendRejectsBadEdges(t *testing.T) {
	d := indep(t)
	cases := []struct {
		name string
		e    Edge
	}{
		{"from proc range", Edge{deposet.StateID{P: 9, K: 0}, deposet.StateID{P: 1, K: 1}}},
		{"from state range", Edge{deposet.StateID{P: 0, K: 9}, deposet.StateID{P: 1, K: 1}}},
		{"to proc range", Edge{deposet.StateID{P: 0, K: 0}, deposet.StateID{P: 9, K: 1}}},
		{"to state range", Edge{deposet.StateID{P: 0, K: 0}, deposet.StateID{P: 1, K: 9}}},
		{"send after top (D2)", Edge{deposet.StateID{P: 0, K: 2}, deposet.StateID{P: 1, K: 1}}},
		{"recv before bottom (D1)", Edge{deposet.StateID{P: 0, K: 0}, deposet.StateID{P: 1, K: 0}}},
	}
	for _, c := range cases {
		if _, err := Extend(d, Relation{c.e}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestInterferenceDetected(t *testing.T) {
	d := indep(t)
	// (0,1) ⟶C (1,1) and (1,1) ⟶C (0,1): a 2-cycle.
	rel := Relation{
		{deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 1}},
		{deposet.StateID{P: 1, K: 1}, deposet.StateID{P: 0, K: 1}},
	}
	if _, err := Extend(d, rel); err != ErrInterference {
		t.Fatalf("err = %v, want ErrInterference", err)
	}
	if !interferes(d, rel) {
		t.Error("interferes = false")
	}
	if interferes(d, rel[:1]) {
		t.Error("single edge reported interfering")
	}
}

func TestInterferenceWithMessages(t *testing.T) {
	// P0 sends to P1 after its first event; a control edge from (1,2)
	// back to (0,1) closes a cycle through the message.
	b := deposet.NewBuilder(2)
	_, h := b.Send(0) // state (0,1), message carries (0,0)
	b.Step(0)
	b.Step(0)    // P0 has states 0..3
	b.Recv(1, h) // state (1,1)
	b.Step(1)
	d := b.MustBuild()
	// A backward edge within one process is a cycle with local order.
	rel := Relation{{deposet.StateID{P: 0, K: 2}, deposet.StateID{P: 0, K: 1}}}
	if _, err := Extend(d, rel); err != ErrInterference {
		t.Fatalf("err = %v, want ErrInterference", err)
	}
	// A cross-process cycle through the application message: the message
	// gives (0,1) → (1,2) (send at event 2... here send event is 1, so
	// (0,0) → (1,1)); forcing (1,1) before (0,1) alone is acyclic, but
	// forcing (1,2) ⟶C (0,1) closes (0,0)→(1,1)→(1,2)→C(0,1)? No — that
	// chain never returns to (0,0). The genuine cycle: (0,1) ⟶C (1,1)
	// combined with (1,1) ⟶C (0,1).
	rel2 := Relation{
		{deposet.StateID{P: 1, K: 1}, deposet.StateID{P: 0, K: 1}},
		{deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 1}},
	}
	if _, err := Extend(d, rel2); err != ErrInterference {
		t.Fatalf("err = %v, want ErrInterference", err)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 1, K: 2}}
	if got, want := e.String(), "(0,1) ⟶C (1,2)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randomAcyclicRelation produces a control relation whose edges all align
// with one linearization: each edge's From exits at some step and its To
// is entered at a strictly later step, so the linearization remains a
// topological order of the extended event graph and the relation never
// interferes.
func randomAcyclicRelation(r *rand.Rand, d *deposet.Deposet) Relation {
	seq := d.SomeSequence()
	var rel Relation
	advancer := func(step int) int { // process advancing into seq[step]
		for p := range seq[step] {
			if seq[step][p] != seq[step-1][p] {
				return p
			}
		}
		panic("no advance")
	}
	for trial := 0; trial < 6 && len(seq) > 2; trial++ {
		i := 1 + r.Intn(len(seq)-2) // exit step of From
		q := advancer(i)
		from := deposet.StateID{P: q, K: seq[i-1][q]}
		for j := i + 1; j < len(seq); j++ {
			if p := advancer(j); p != q {
				rel = append(rel, Edge{from, deposet.StateID{P: p, K: seq[j][p]}})
				break
			}
		}
	}
	return rel
}

// Property: a controlled deposet is the underlying lattice filtered by →C
// — its consistent cuts are exactly the underlying consistent cuts whose
// frontier states →C leaves pairwise unordered (so a subset: paper §3,
// "the set of global sequences in the controlled deposet is a subset of
// the set of global sequences in the original deposet"), the walk visits
// each once, the count is their number, and SomeSequence is a global
// sequence under →C.
func TestControlledSubsetProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(2), 4+r.Intn(10)))
		rel := randomAcyclicRelation(r, d)
		x, err := Extend(d, rel)
		if err != nil {
			// Random relation construction should be acyclic by design.
			return !errors.Is(err, ErrInterference)
		}
		unordered := func(g deposet.Cut) bool {
			for i := range g {
				for j := range g {
					if i != j && x.HB(deposet.StateID{P: i, K: g[i]}, deposet.StateID{P: j, K: g[j]}) {
						return false
					}
				}
			}
			return true
		}
		// Consistent, on every in-range cut, consistent below or not.
		g := d.BottomCut()
		for {
			if x.Consistent(g) != unordered(g) {
				t.Logf("seed %d: Consistent(%v) = %v", seed, g, x.Consistent(g))
				return false
			}
			p := 0
			for ; p < len(g) && g[p] == d.Len(p)-1; p++ {
				g[p] = 0
			}
			if p == len(g) {
				break
			}
			g[p]++
		}
		// The walk, against the underlying walk filtered.
		want := map[string]bool{}
		d.ForEachConsistentCut(func(g deposet.Cut) bool {
			if unordered(g) {
				want[g.Key()] = true
			}
			return true
		})
		got, stray := map[string]bool{}, false
		x.ForEachConsistentCut(func(g deposet.Cut) bool {
			if got[g.Key()] || !want[g.Key()] {
				t.Logf("seed %d: walk visits %v (again: %v)", seed, g, got[g.Key()])
				stray = true
			}
			got[g.Key()] = true
			return !stray
		})
		if stray || len(got) != len(want) || x.CountConsistentCuts() != len(want) {
			t.Logf("seed %d: walk %d cuts, count %d, filtered lattice %d", seed, len(got), x.CountConsistentCuts(), len(want))
			return false
		}
		seq := x.SomeSequence()
		if err := x.ValidateSequence(seq); err != nil {
			t.Logf("seed %d: SomeSequence under →C: %v", seed, err)
			return false
		}
		return d.ValidateSequence(seq) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: extended HB agrees with a reachability oracle over
// im ∪ ⇝ ∪ ⟶C edges.
func TestExtendedHBMatchesReachabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(2), 4+r.Intn(8)))
		rel := randomAcyclicRelation(r, d)
		x, err := Extend(d, rel)
		if err != nil {
			return true
		}
		reach := reachability(d, rel)
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				s := deposet.StateID{P: p, K: k}
				for q := 0; q < d.NumProcs(); q++ {
					for j := 0; j < d.Len(q); j++ {
						u := deposet.StateID{P: q, K: j}
						if x.HB(s, u) != reach[s][u] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// reachability computes strict extended causality from first principles:
// build the *event* dependency graph (program order; message send before
// receive; control: exit event of From before entering event of To) and
// define HB(s, t) as "t reached implies s exited", i.e. event (s.P, s.K+1)
// reaches event (t.P, t.K) reflexively-transitively. This is an
// independent oracle for the vector-clock implementation.
func reachability(d *deposet.Deposet, rel Relation) map[deposet.StateID]map[deposet.StateID]bool {
	type ev struct{ P, E int } // event E of process P, 1-based
	succ := map[ev][]ev{}
	for p := 0; p < d.NumProcs(); p++ {
		for e := 1; e+1 < d.Len(p); e++ {
			succ[ev{p, e}] = append(succ[ev{p, e}], ev{p, e + 1})
		}
	}
	for _, m := range d.Messages() {
		if m.Received() {
			succ[ev{m.FromP, m.SendEvent}] = append(succ[ev{m.FromP, m.SendEvent}], ev{m.ToP, m.RecvEvent})
		}
	}
	for _, e := range rel {
		from := ev{e.From.P, e.From.K + 1}
		succ[from] = append(succ[from], ev{e.To.P, e.To.K})
	}
	reaches := func(a, b ev) bool { // reflexive-transitive over succ
		if a == b {
			return true
		}
		seen := map[ev]bool{}
		stack := []ev{a}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if u == b {
				return true
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			stack = append(stack, succ[u]...)
		}
		return false
	}
	out := map[deposet.StateID]map[deposet.StateID]bool{}
	for p := 0; p < d.NumProcs(); p++ {
		for k := 0; k < d.Len(p); k++ {
			s := deposet.StateID{P: p, K: k}
			row := map[deposet.StateID]bool{}
			for q := 0; q < d.NumProcs(); q++ {
				for j := 0; j < d.Len(q); j++ {
					t := deposet.StateID{P: q, K: j}
					switch {
					case p == q:
						row[t] = k < j
					case k+1 >= d.Len(p) || j == 0:
						row[t] = false // s never exited, or t is ⊥
					default:
						row[t] = reaches(ev{p, k + 1}, ev{q, j})
					}
				}
			}
			out[s] = row
		}
	}
	return out
}

// TestExitEventDeadlockDetected regresses the case where a control edge
// is acyclic at the state level but deadlocks at run time because the
// exit event of From is a receive whose message can only be sent once To
// was passed.
//
//	P0:  ⊥ —send m0→ 1 —send m1→ 2
//	P1:  ⊥ —recv m0→ 1 —recv m1→ 2
//
// The edge (1,1) ⟶C (0,1) demands that P0 enter state 1 only after P1
// exits state 1; but P1's exit event receives m1, which P0 sends from
// state 1 — which it may never enter. Deadlock.
func TestExitEventDeadlockDetected(t *testing.T) {
	b := deposet.NewBuilder(2)
	_, h0 := b.Send(0)
	_, h1 := b.Send(0)
	b.Recv(1, h0)
	b.Recv(1, h1)
	d := b.MustBuild()
	rel := Relation{{deposet.StateID{P: 1, K: 1}, deposet.StateID{P: 0, K: 1}}}
	if _, err := Extend(d, rel); err != ErrInterference {
		t.Fatalf("err = %v, want ErrInterference", err)
	}
	// Sanity: the edge one state later is realizable — P0 enters state 2
	// after P1 exits ⊥ (i.e. after m0 is received).
	rel2 := Relation{{deposet.StateID{P: 1, K: 0}, deposet.StateID{P: 0, K: 2}}}
	x, err := Extend(d, rel2)
	if err != nil {
		t.Fatalf("realizable edge rejected: %v", err)
	}
	if !x.HB(deposet.StateID{P: 1, K: 0}, deposet.StateID{P: 0, K: 2}) {
		t.Fatal("edge not reflected in extended causality")
	}
}

// sameVerdict fails unless Check and Extend return the same error for
// rel on d: both nil, or errors.Is-equal on ErrInterference with the
// same text.
func sameVerdict(t *testing.T, name string, d *deposet.Deposet, rel Relation) error {
	t.Helper()
	_, xerr := Extend(d, rel)
	cerr := Check(d, rel)
	switch {
	case (xerr == nil) != (cerr == nil):
		t.Errorf("%s: Extend = %v, Check = %v", name, xerr, cerr)
	case xerr != nil && (xerr.Error() != cerr.Error() ||
		errors.Is(xerr, ErrInterference) != errors.Is(cerr, ErrInterference)):
		t.Errorf("%s: Extend = %q, Check = %q", name, xerr, cerr)
	}
	return cerr
}

// Check is Extend without the clocks: on every relation the tests above
// reject, and on the ones they accept, the two return the same error.
func TestCheckMatchesExtend(t *testing.T) {
	id := func(p, k int) deposet.StateID { return deposet.StateID{P: p, K: k} }
	d := indep(t)

	b := deposet.NewBuilder(2)
	_, h := b.Send(0)
	b.Step(0)
	b.Step(0)
	b.Recv(1, h)
	b.Step(1)
	withMessage := b.MustBuild()

	b = deposet.NewBuilder(2)
	_, h0 := b.Send(0)
	_, h1 := b.Send(0)
	b.Recv(1, h0)
	b.Recv(1, h1)
	exitIsReceive := b.MustBuild()

	cases := []struct {
		name   string
		d      *deposet.Deposet
		rel    Relation
		reject bool
	}{
		{"empty", d, nil, false},
		{"one edge", d, Relation{{id(0, 1), id(1, 1)}}, false},
		{"from proc range", d, Relation{{id(9, 0), id(1, 1)}}, true},
		{"from state range", d, Relation{{id(0, 9), id(1, 1)}}, true},
		{"to proc range", d, Relation{{id(0, 0), id(9, 1)}}, true},
		{"to state range", d, Relation{{id(0, 0), id(1, 9)}}, true},
		{"send after top (D2)", d, Relation{{id(0, 2), id(1, 1)}}, true},
		{"recv before bottom (D1)", d, Relation{{id(0, 0), id(1, 0)}}, true},
		{"bad edge after a good one", d, Relation{{id(0, 1), id(1, 1)}, {id(0, 0), id(1, 0)}}, true},
		{"2-cycle", d, Relation{{id(0, 1), id(1, 1)}, {id(1, 1), id(0, 1)}}, true},
		{"backward within a process", withMessage, Relation{{id(0, 2), id(0, 1)}}, true},
		{"2-cycle beside a message", withMessage, Relation{{id(1, 1), id(0, 1)}, {id(0, 1), id(1, 1)}}, true},
		{"exit event is a blocked receive", exitIsReceive, Relation{{id(1, 1), id(0, 1)}}, true},
		{"exit event one state later", exitIsReceive, Relation{{id(1, 0), id(0, 2)}}, false},
	}
	for _, c := range cases {
		if err := sameVerdict(t, c.name, c.d, c.rel); (err != nil) != c.reject {
			t.Errorf("%s: Check = %v, want rejection %v", c.name, err, c.reject)
		}
	}
}

// Property: on random relations — acyclic by construction, or arbitrary
// state pairs, which mostly interfere or break D1/D2 — over random
// deposets, Check and Extend agree.
func TestCheckMatchesExtendProperty(t *testing.T) {
	accepted, rejected := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(3), 4+r.Intn(30)))
		rel := randomAcyclicRelation(r, d)
		for extra := r.Intn(3); extra > 0; extra-- {
			p, q := r.Intn(d.NumProcs()), r.Intn(d.NumProcs())
			rel = append(rel, Edge{
				deposet.StateID{P: p, K: r.Intn(d.Len(p))},
				deposet.StateID{P: q, K: r.Intn(d.Len(q))},
			})
		}
		r.Shuffle(len(rel), func(i, j int) { rel[i], rel[j] = rel[j], rel[i] })
		if sameVerdict(t, "random", d, rel) == nil {
			accepted++
		} else {
			rejected++
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if accepted < 20 || rejected < 20 {
		t.Errorf("%d relations accepted, %d rejected: the property is one-sided", accepted, rejected)
	}
}
