package predctl

import (
	"bytes"
	"errors"
	"testing"

	"predctl/internal/predicate"
)

// TestQuickstartFlow exercises the whole public API surface the way the
// README's quickstart does: build, detect, control, verify, replay.
func TestQuickstartFlow(t *testing.T) {
	// Two servers, each with an unavailability window.
	b := NewBuilder(2)
	b.Let(0, "avail", 1)
	b.Let(1, "avail", 1)
	b.Step(0)
	b.Let(0, "avail", 0)
	b.Step(0)
	b.Let(0, "avail", 1)
	b.Step(1)
	b.Let(1, "avail", 0)
	b.Step(1)
	b.Let(1, "avail", 1)
	d := b.MustBuild()

	avail := func(p int) LocalFn {
		return func(dd *Computation, k int) bool {
			v, ok := dd.Var(StateID{P: p, K: k}, "avail")
			return ok && v == 1
		}
	}
	B := NewDisjunction(2)
	B.Add(0, "avail", avail(0))
	B.Add(1, "avail", avail(1))

	// The bug "no server available" is possible...
	bug := B.Negate()
	cut, possible := Possibly(d, bug)
	if !possible {
		t.Fatal("expected the bug to be possible")
	}
	if !d.Consistent(cut) {
		t.Fatal("witness inconsistent")
	}
	// ...but not inevitable, so a controller exists.
	if _, definitely := Definitely(d, bug); definitely {
		t.Fatal("bug should not be inevitable here")
	}
	res, err := Control(d, B)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Extend(d, res.Relation)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Consistent(d.BottomCut()) {
		t.Fatal("⊥ must stay consistent")
	}
	// Replay the controlled computation and verify.
	rr, err := Replay(d, res.Relation, ReplayConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vcut, ok := VerifyReplay(rr, d, B); !ok {
		t.Fatalf("controlled replay violates B at %v", vcut)
	}
	// Round-trip through the trace format.
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, d, res.Relation); err != nil {
		t.Fatal(err)
	}
	d2, rel2, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumStates() != d.NumStates() || len(rel2) != len(res.Relation) {
		t.Fatal("trace round trip mismatch")
	}
}

func TestPredicateCombinators(t *testing.T) {
	b := NewBuilder(1)
	b.Step(0)
	d := b.MustBuild()
	after := Local(0, "after1", func(_ *Computation, k int) bool { return k >= 1 })
	e := Or(And(after, Const(true)), Not(Const(true)))
	if e.Eval(d, Cut{0}) || !e.Eval(d, Cut{1}) {
		t.Fatal("combinators wrong")
	}
	if v := Violations(d, after); len(v) != 1 {
		t.Fatalf("violations = %v", v)
	}
	if seq, err := SGSD(d, Const(true), false); err != nil || seq == nil {
		t.Fatalf("SGSD trivial failed: %v, %v", seq, err)
	}
}

// A disjunction handed to Violations as the normal form itself — not as
// its Expr() — must still be enumerated on the computation slice. The
// lattice here (31⁶ ≈ 9·10⁸ cuts, no messages) is beyond any exhaustive
// walk, so an answer at all is the slice's; checking that RegularTable
// factors ¬dj makes a regression in recognising the form fail fast
// instead.
func TestViolationsSlicesNormalForms(t *testing.T) {
	const n, steps, bad = 6, 30, 5
	b := NewBuilder(n)
	for p := 0; p < n; p++ {
		for k := 0; k < steps; k++ {
			b.Step(p)
		}
	}
	d := b.MustBuild()
	dj := NewDisjunction(n)
	for p := 0; p < n; p++ {
		dj.Add(p, "ok", func(_ *Computation, k int) bool { return k != bad })
	}
	for _, e := range []Predicate{Not(dj), Not(dj.Expr())} {
		if _, ok := predicate.RegularTable(e, d); !ok {
			t.Fatal("¬disjunction not recognised as regular")
		}
	}
	want := Cut{bad, bad, bad, bad, bad, bad}
	for name, b := range map[string]Predicate{"*Disjunction": dj, "Expr()": dj.Expr()} {
		if v := Violations(d, b); len(v) != 1 || !v[0].Equal(want) {
			t.Errorf("%s: violations = %v, want [%v]", name, v, want)
		}
	}
}

func TestInfeasibleSurfaceError(t *testing.T) {
	b := NewBuilder(1)
	b.Step(0)
	d := b.MustBuild()
	B := NewDisjunction(1) // constant false: trivially infeasible
	_, err := Control(d, B)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ControlGeneral(d, Const(false)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("general err = %v", err)
	}
}

func TestOnlineFacade(t *testing.T) {
	apps := make([]func(*Guard), 2)
	for i := range apps {
		apps[i] = func(g *Guard) {
			p := g.P()
			p.Init("cs", 0)
			for r := 0; r < 3; r++ {
				p.Work(Time(5))
				g.RequestFalse()
				p.Set("cs", 1)
				p.Work(Time(3))
				p.Set("cs", 0)
				g.NowTrue()
			}
		}
	}
	tr, stats, err := OnlineRun(OnlineConfig{N: 2, Delay: 2, Trace: true}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 6 {
		t.Fatalf("requests = %d", stats.Requests)
	}
	inCS := NewConjunction(tr.D.NumProcs())
	for p := 0; p < 2; p++ {
		p := p
		inCS.Add(p, "cs", func(dd *Computation, k int) bool {
			v, ok := dd.Var(StateID{P: p, K: k}, "cs")
			return ok && v == 1
		})
	}
	if cut, bad := Possibly(tr.D, inCS); bad {
		t.Fatalf("mutual exclusion violated at %v", cut)
	}
}

func TestSimFacade(t *testing.T) {
	k := NewSim(SimConfig{Procs: 2, Trace: true})
	tr, err := k.Run(
		func(p *Proc) { p.Send(1, "x") },
		func(p *Proc) { p.Recv() },
	)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Messages != 1 {
		t.Fatal("stats wrong")
	}
}

func TestMonitorFacade(t *testing.T) {
	apps := []func(*Probe){
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(5)
		},
		func(pr *Probe) {
			pr.P().Init("q", 1)
			pr.SetLocal(true)
			pr.P().Work(5)
		},
	}
	_, det, err := MonitorRun(SimConfig{Seed: 3}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatal("overlap not detected")
	}
}
