package offline

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
)

// verifyControlled checks the contract of a successful Control run: the
// relation does not interfere, and the controlled computation has no
// consistent global state where every local predicate is false.
func verifyControlled(t *testing.T, d *deposet.Deposet, dj *predicate.Disjunction, rel control.Relation) {
	t.Helper()
	x, err := control.Extend(d, rel)
	if err != nil {
		t.Fatalf("relation invalid: %v (rel=%v)", err, rel)
	}
	if cut, ok := detect.PossiblyTruth(x, func(p, k int) bool { return !dj.Holds(d, p, k) }); ok {
		t.Fatalf("controlled computation still violates B at %v (rel=%v)", cut, rel)
	}
}

func TestControlAlwaysTrueProcess(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()
	dj := predicate.DisjunctionFromTruth([][]bool{
		{true, true},
		{false, false},
	})
	res, err := Control(d, dj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relation) != 0 {
		t.Fatalf("expected empty relation, got %v", res.Relation)
	}
	verifyControlled(t, d, dj, res.Relation)
}

func TestControlProcCountMismatch(t *testing.T) {
	d := deposet.NewBuilder(2).MustBuild()
	dj := predicate.NewDisjunction(3)
	if _, err := Control(d, dj, Options{}); err == nil {
		t.Fatal("mismatched process count accepted")
	}
}

// TestControlBottomFalseRegression: a single-state false interval at ⊥
// must not let the chain restart in a false state.
//
//	P0: F T        (interval [0..0])
//	P1: T F T      (interval [1..1])
//
// The correct controller forces P1's entry into its false state to wait
// for P0 to leave ⊥.
func TestControlBottomFalseRegression(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Step(0)
	b.Step(1)
	b.Step(1)
	d := b.MustBuild()
	dj := predicate.DisjunctionFromTruth([][]bool{
		{false, true},
		{true, false, true},
	})
	res, err := Control(d, dj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relation) == 0 {
		t.Fatal("empty relation cannot be correct here")
	}
	verifyControlled(t, d, dj, res.Relation)
}

// TestControlMutex is the paper's running example (1): two-process mutual
// exclusion ¬cs1 ∨ ¬cs2, with one critical section each, concurrent.
func TestControlMutex(t *testing.T) {
	b := deposet.NewBuilder(2)
	for p := 0; p < 2; p++ {
		for i := 0; i < 4; i++ {
			b.Step(p)
		}
	}
	d := b.MustBuild() // 5 states each; CS = states [1..2]
	cs := [][]bool{
		{false, true, true, false, false},
		{false, true, true, false, false},
	}
	dj := predicate.NewDisjunction(2)
	for p := 0; p < 2; p++ {
		p := p
		dj.Add(p, "¬cs", func(_ *deposet.Deposet, k int) bool { return !cs[p][k] })
	}
	res, err := Control(d, dj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	verifyControlled(t, d, dj, res.Relation)
	// One crossing per critical section, at most one message per crossing.
	if res.Iterations > 2 || len(res.Relation) > 2 {
		t.Fatalf("iterations=%d edges=%d; want ≤2 each", res.Iterations, len(res.Relation))
	}
}

// TestControlInfeasible: mutual messages force the two false-intervals to
// overlap in every interleaving (same computation as the detect package's
// boundary-reading test).
func TestControlInfeasible(t *testing.T) {
	b := deposet.NewBuilder(2)
	_, h0 := b.Send(0)
	_, h1 := b.Send(1)
	b.Recv(0, h1)
	b.Recv(1, h0)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()
	dj := predicate.DisjunctionFromTruth([][]bool{
		{true, false, false, true},
		{true, false, false, true},
	})
	res, err := Control(d, dj, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if len(res.Witness) != 2 {
		t.Fatalf("witness = %v", res.Witness)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if i != j && !detect.Overlaps(d, res.Witness[i], res.Witness[j]) {
				t.Fatalf("witness does not overlap: %v", res.Witness)
			}
		}
	}
}

// TestControlWideProcessesRegression: a feasible instance whose
// processes exceed 255 states each. The search memo used to encode the
// segment end hEnd as a single byte (and cut components as three), so
// distinct search states past state 255 shared a key: a dead state could
// shadow a live one and make the search wrongly declare a feasible chain
// unreachable (surfacing as a fallback or an infeasibility report). The
// memo now encodes every component at full width.
func TestControlWideProcessesRegression(t *testing.T) {
	const n, p = 3, 70 // 1+4·70 = 281 states per process, hEnd up to 281
	b := deposet.NewBuilder(n)
	states := 1 + 4*p
	for q := 0; q < n; q++ {
		for e := 1; e < states; e++ {
			b.Step(q)
		}
	}
	d := b.MustBuild()
	truth := make([][]bool, n)
	for q := 0; q < n; q++ {
		truth[q] = make([]bool, states)
		for k := 0; k < states; k++ {
			truth[q][k] = k == 0 || (k-1)%4 >= 2 // T then p × (F F T T)
		}
	}
	dj := predicate.DisjunctionFromTruth(truth)
	for _, preferLate := range []bool{false, true} {
		res, err := Control(d, dj, Options{PreferLate: preferLate})
		if err != nil {
			t.Fatalf("PreferLate=%v: err = %v, want feasible chain", preferLate, err)
		}
		if res.Fallback {
			t.Fatalf("PreferLate=%v: polynomial chain search fell back to exhaustive search", preferLate)
		}
		if len(res.Relation) == 0 {
			t.Fatalf("PreferLate=%v: empty relation cannot serialize %d overlapping false-intervals", preferLate, n*p)
		}
		verifyControlled(t, d, dj, res.Relation)
	}
}

// feasibleOracle decides controller existence exhaustively: some
// interleaving satisfies the disjunction everywhere (single-step SGSD).
func feasibleOracle(d *deposet.Deposet, dj *predicate.Disjunction) bool {
	seq, _, _ := detect.SGSD(d, dj.Expr(), false) // single-step: no process limit, no error
	return seq != nil
}

// TestControlCorrectnessProperty is the central cross-validation: on
// random computations and random disjunctions, Control agrees with the
// exhaustive feasibility oracle, its output withstands verification, and
// the polynomial path is always taken (no exhaustive fallback). Both the
// deterministic and the randomized selection orders must pass, as must
// the literal Figure 2 transcription under deterministic selection.
func TestControlCorrectnessProperty(t *testing.T) {
	type engine struct {
		name          string
		allowFallback bool
		run           func(*deposet.Deposet, *predicate.Disjunction) (*Result, error)
	}
	engines := []engine{
		{"chain", false, func(d *deposet.Deposet, dj *predicate.Disjunction) (*Result, error) {
			return Control(d, dj, Options{})
		}},
		// Randomized handoff order can paint the greedy into a corner;
		// the exhaustive fallback then takes over, and the result must
		// still be correct.
		{"chain-rand", true, func(d *deposet.Deposet, dj *predicate.Disjunction) (*Result, error) {
			return Control(d, dj, Options{Rand: rand.New(rand.NewSource(7))})
		}},
		{"figure2", false, func(d *deposet.Deposet, dj *predicate.Disjunction) (*Result, error) {
			return ControlFigure2(d, dj, Options{})
		}},
		{"figure2-naive", false, func(d *deposet.Deposet, dj *predicate.Disjunction) (*Result, error) {
			return ControlFigure2(d, dj, Options{Naive: true})
		}},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		d := deposet.Random(r, deposet.DefaultGen(n, r.Intn(18)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.3+r.Float64()*0.5))
		want := feasibleOracle(d, dj)

		for _, e := range engines {
			res, err := e.run(d, dj)
			if errors.Is(err, ErrInfeasible) {
				if want {
					t.Logf("seed %d [%s]: says infeasible, oracle says feasible", seed, e.name)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("seed %d [%s]: unexpected error %v", seed, e.name, err)
				return false
			}
			if !want {
				t.Logf("seed %d [%s]: produced a relation for an infeasible instance", seed, e.name)
				return false
			}
			if res.Fallback && !e.allowFallback {
				t.Logf("seed %d [%s]: exhaustive fallback triggered", seed, e.name)
				return false
			}
			x, err := control.Extend(d, res.Relation)
			if err != nil {
				t.Logf("seed %d [%s]: relation interferes: %v", seed, e.name, err)
				return false
			}
			if cut, ok := detect.PossiblyTruth(x, func(p, k int) bool { return !dj.Holds(d, p, k) }); ok {
				t.Logf("seed %d [%s]: violation at %v with rel %v", seed, e.name, cut, res.Relation)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestControlMessageComplexityProperty: the relation size and iteration
// count never exceed the total number of false-intervals (the paper's
// O(np) message bound).
func TestControlMessageComplexityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(4), r.Intn(24)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.6))
		res, err := Control(d, dj, Options{})
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if res.Fallback {
			return false // deterministic greedy must not fall back
		}
		total := 0
		for p := 0; p < d.NumProcs(); p++ {
			total += len(deposet.TruthIntervals(d, p, func(p, k int) bool { return !dj.Holds(d, p, k) }))
		}
		return res.Iterations <= total+d.NumProcs() && len(res.Relation) <= res.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEnginesSeeTheSameIntervals: the chain engine and the Figure 2
// transcription start from identical false-interval lists — the maximal
// runs of ¬lp, here recomputed state by state from the locals.
func TestEnginesSeeTheSameIntervals(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(5), r.Intn(60)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
		chainIvs, fig2Ivs := newChain(d, dj).ivs, newLoopState(d, dj).ivs
		for p := 0; p < d.NumProcs(); p++ {
			var want []deposet.Interval
			for k := 0; k < d.Len(p); k++ {
				switch {
				case dj.Holds(d, p, k):
				case len(want) > 0 && want[len(want)-1].Hi == k-1:
					want[len(want)-1].Hi = k
				default:
					want = append(want, deposet.Interval{P: p, Lo: k, Hi: k})
				}
			}
			if !slices.Equal(chainIvs[p], want) || !slices.Equal(fig2Ivs[p], want) {
				t.Fatalf("seed %d, P%d: Control sees %v, ControlFigure2 sees %v, the locals say %v",
					seed, p, chainIvs[p], fig2Ivs[p], want)
			}
		}
	}
}

func TestControlGeneralOnDisjunctive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(12)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
		b := dj.Expr()

		rel, seq, err := ControlGeneral(d, b)
		_, fastErr := Control(d, dj, Options{})
		if errors.Is(err, ErrInfeasible) != errors.Is(fastErr, ErrInfeasible) {
			return false
		}
		if err != nil {
			return true
		}
		if verr := d.ValidateSequence(seq); verr != nil {
			return false
		}
		x, xerr := control.Extend(d, rel)
		if xerr != nil {
			return false
		}
		violated := false
		x.ForEachConsistentCut(func(g deposet.Cut) bool {
			if !b.Eval(d, g) {
				violated = true
				return false
			}
			return true
		})
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEnforceSequencePinsCuts: the controlled computation's consistent
// cuts are exactly the enforced sequence's cuts.
func TestEnforceSequencePinsCuts(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(2), 3+r.Intn(8)))
		seq, _, err := detect.SGSD(d, predicate.Const(true), false)
		if err != nil || seq == nil {
			t.Fatal("trivial SGSD failed")
		}
		rel := enforceSequence(d, seq)
		x, err := control.Extend(d, rel)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := map[string]bool{}
		for _, g := range seq {
			want[g.Key()] = true
		}
		got := 0
		x.ForEachConsistentCut(func(g deposet.Cut) bool {
			if !want[g.Key()] {
				t.Fatalf("trial %d: cut %v outside the enforced sequence", trial, g)
			}
			got++
			return true
		})
		if got != len(want) {
			t.Fatalf("trial %d: %d cuts consistent, sequence has %d", trial, got, len(want))
		}
	}
}

// TestControlXORInfeasible: the XOR predicate needs simultaneous steps,
// which no controller can force, so general control must report
// infeasibility even though a simultaneous-advance sequence exists.
func TestControlXORInfeasible(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "x", 0)
	b.Let(1, "y", 1)
	b.Step(0)
	b.Let(0, "x", 1)
	b.Step(1)
	b.Let(1, "y", 0)
	d := b.MustBuild()
	x := predicate.VarLocal{P: 0, Var: "x", Op: predicate.Eq, Value: 1}.Expr()
	y := predicate.VarLocal{P: 1, Var: "y", Op: predicate.Eq, Value: 1}.Expr()
	xor := predicate.Or(predicate.And(x, predicate.Not(y)), predicate.And(predicate.Not(x), y))
	if _, _, err := ControlGeneral(d, xor); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestControlDeterministic: the zero-Options run is reproducible.
func TestControlDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := deposet.Random(r, deposet.DefaultGen(3, 20))
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
	res1, err1 := Control(d, dj, Options{})
	res2, err2 := Control(d, dj, Options{})
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("nondeterministic error")
	}
	if err1 == nil {
		if len(res1.Relation) != len(res2.Relation) {
			t.Fatal("nondeterministic relation size")
		}
		for i := range res1.Relation {
			if res1.Relation[i] != res2.Relation[i] {
				t.Fatal("nondeterministic relation")
			}
		}
	}
}

// TestControllerYieldsSatisfyingSequence exercises the forward direction
// of the paper's §4 equivalence: simulating a run of a satisfying control
// strategy (any global sequence of the controlled deposet) produces a
// satisfying global sequence of the original computation.
func TestControllerYieldsSatisfyingSequence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(2+r.Intn(3), 4+r.Intn(14)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.5))
		res, err := Control(d, dj, Options{})
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		x, err := control.Extend(d, res.Relation)
		if err != nil {
			return false
		}
		seq := x.SomeSequence()
		if verr := d.ValidateSequence(seq); verr != nil {
			return false
		}
		for _, g := range seq {
			if !dj.Eval(d, g) {
				t.Logf("seed %d: simulated run violates B at %v", seed, g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: ControlGeneral on a regular predicate (slice single-step
// chain, no search) agrees with the exhaustive SGSD oracle on
// feasibility, and its enforced computation never violates the
// predicate.
func TestControlGeneralRegularMatchesSGSD(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := deposet.Random(r, deposet.DefaultGen(1+r.Intn(3), r.Intn(12)))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.4+0.5*r.Float64()))
		b := predicate.Not(dj.Expr()) // ∧p ¬lp: regular
		if _, ok := predicate.RegularTable(b, d); !ok {
			return false
		}

		rel, seq, err := ControlGeneral(d, b)
		want, _, _ := detect.SGSD(d, b, false)
		wantOK := want != nil
		if (err == nil) != wantOK {
			t.Logf("seed %d: slice feasibility %v, SGSD %v", seed, err == nil, wantOK)
			return false
		}
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if verr := d.ValidateSequence(seq); verr != nil {
			t.Logf("seed %d: %v", seed, verr)
			return false
		}
		for _, g := range seq {
			if !b.Eval(d, g) {
				return false
			}
		}
		x, xerr := control.Extend(d, rel)
		if xerr != nil {
			return false
		}
		ok := true
		x.ForEachConsistentCut(func(g deposet.Cut) bool {
			if !b.Eval(d, g) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
