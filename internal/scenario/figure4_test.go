package scenario

import (
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/online"
	"predctl/internal/sim"
)

// TestFigure4Walkthrough regresses the full §7 active-debugging cycle:
// detect bug 1 in C1 (exactly the two cuts G and H), control to C2,
// detect bug 2 there, control to C3, apply the bug-2 fix to C1 to get
// C4 where both bugs are gone, and finally keep a fresh on-line run safe.
func TestFigure4Walkthrough(t *testing.T) {
	fg, err := New()
	if err != nil {
		t.Fatal(err)
	}
	d := fg.C1

	// Shape checks.
	if d.NumProcs() != 3 {
		t.Fatal("wrong process count")
	}
	if got := len(fg.Windows()); got != 3 {
		t.Fatalf("windows = %d", got)
	}

	// Step 1: bug 1 — "all servers unavailable" — is possible at exactly
	// the two cuts G and H.
	violations, _ := detect.AllViolations(d, fg.Avail.Expr())
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want exactly G and H", violations)
	}
	g, h := violations[0], violations[1]
	if !g.Equal(deposet.Cut{1, 1, 2}) || !h.Equal(deposet.Cut{2, 1, 2}) {
		t.Fatalf("G,H = %v,%v", g, h)
	}
	if _, ok := detect.PossiblyConjunctive(d, fg.Bug1On(nil)); !ok {
		t.Fatal("possibly(bug1) must hold on C1")
	}
	// But the bug is not inevitable, so control is feasible.
	if _, ok := detect.DefinitelyConjunctive(d, fg.Bug1On(nil)); ok {
		t.Fatal("bug1 must not be definite")
	}

	// Step 2: off-line control with B = ∨ avail gives C2.
	c2, c3, c4, err := fg.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if cut, ok := detect.PossiblyConjunctive(c2.D, fg.Bug1On(c2.Underlying)); ok {
		t.Fatalf("bug1 still possible in C2 at %v", cut)
	}

	// Step 3: bug 2 — e and f at the same time — is still possible in C2.
	if _, ok := detect.PossiblyConjunctive(c2.D, fg.Bug2On(c2.Underlying)); !ok {
		t.Fatal("bug2 must be possible in C2")
	}

	// Step 4: control C2 with "e before f" to get C3, whose Underlying
	// composes the two replays' mappings to reach C1 indices.
	if cut, ok := detect.PossiblyConjunctive(c3.D, fg.Bug2On(c3.Underlying)); ok {
		t.Fatalf("bug2 still possible in C3 at %v", cut)
	}

	// Step 5: the key inference — applying the bug-2 fix directly to C1
	// (computation C4) eliminates bug 1 as well, so bug 2 caused bug 1.
	if cut, ok := detect.PossiblyConjunctive(c4.D, fg.Bug2On(c4.Underlying)); ok {
		t.Fatalf("bug2 possible in C4 at %v", cut)
	}
	if cut, ok := detect.PossiblyConjunctive(c4.D, fg.Bug1On(c4.Underlying)); ok {
		t.Fatalf("bug1 possible in C4 at %v", cut)
	}
	// And in the extended-deposet view, G and H are no longer consistent.
	x, err := control.Extend(d, c4.Relation)
	if err != nil {
		t.Fatal(err)
	}
	if x.Consistent(g) || x.Consistent(h) {
		t.Fatal("G or H still consistent under the bug-2 control")
	}

	// Step 6: keep future runs safe with on-line control of "e before f":
	// server 2 starts "false" (e has not happened) and server 0 may not
	// execute f until it has.
	tr, _, err := online.Run(online.Config{
		N:         2,
		Delay:     5,
		Trace:     true,
		Scapegoat: 0, // before_f holds initially at server 0
		InitFalse: []bool{false, true},
	}, []func(*online.Guard){
		func(gd *online.Guard) { // server 0: wants to execute f early
			gd.P().Init("f", 0)
			gd.P().Work(1)
			gd.RequestFalse()
			gd.P().Set("f", 1) // f happens only once permitted
		},
		func(gd *online.Guard) { // server 2: e happens after a long delay
			gd.P().Init("e", 0)
			gd.P().Work(50)
			gd.P().Set("e", 1)
			gd.NowTrue()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify on the trace: no consistent cut with f done but e pending.
	if cut, ok := detect.PossiblyTruth(tr.D, func(p, k int) bool {
		switch p {
		case 0:
			v, okv := tr.D.Var(deposet.StateID{P: 0, K: k}, "f")
			return okv && v == 1
		case 1:
			v, okv := tr.D.Var(deposet.StateID{P: 1, K: k}, "e")
			return !okv || v == 0
		default:
			return true
		}
	}); ok {
		t.Fatalf("online run allowed f before e at %v", cut)
	}
}

func TestFigure4OnlineViolationWithoutControl(t *testing.T) {
	// Sanity: without control, a run where f precedes e admits the bad
	// cut.
	k := sim.New(sim.Config{Procs: 2, Trace: true, Delay: sim.ConstantDelay(5)})
	tr, err := k.Run(
		func(p *sim.Proc) {
			p.Init("f", 0)
			p.Work(1)
			p.Set("f", 1)
		},
		func(p *sim.Proc) {
			p.Init("e", 0)
			p.Work(50)
			p.Set("e", 1)
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := detect.PossiblyTruth(tr.D, func(p, kk int) bool {
		if p == 0 {
			v, okv := tr.D.Var(deposet.StateID{P: 0, K: kk}, "f")
			return okv && v == 1
		}
		v, okv := tr.D.Var(deposet.StateID{P: 1, K: kk}, "e")
		return !okv || v == 0
	}); !ok {
		t.Fatal("uncontrolled run should allow f before e")
	}
}
