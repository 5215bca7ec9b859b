package online

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/sim"
)

// csWorkload builds N app bodies doing `rounds` critical sections with
// l_i = ¬cs_i, and returns them with the recorded traces verified by the
// caller.
func csWorkload(n, rounds int, csTime, thinkMax sim.Time) []func(*Guard) {
	apps := make([]func(*Guard), n)
	for i := range apps {
		apps[i] = func(g *Guard) {
			p := g.P()
			p.Init("cs", 0)
			for r := 0; r < rounds; r++ {
				p.Work(1 + sim.Time(p.Rand().Int63n(int64(thinkMax))))
				g.RequestFalse()
				p.Set("cs", 1)
				p.Work(csTime)
				p.Set("cs", 0)
				g.NowTrue()
			}
		}
	}
	return apps
}

// allInCS reports whether the traced computation admits a consistent cut
// with every application process inside its critical section.
func allInCS(tr *sim.Trace, n int) (deposet.Cut, bool) {
	return detect.PossiblyTruth(tr.D, func(p, k int) bool {
		if p >= n {
			return true // controllers: no conjunct
		}
		v, ok := tr.D.Var(deposet.StateID{P: p, K: k}, "cs")
		return ok && v == 1
	})
}

func TestScapegoatMaintainsPredicate(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		cfg := Config{N: n, Delay: 10, Seed: 42, Trace: true}
		tr, stats, err := Run(cfg, csWorkload(n, 6, 20, 50))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cut, bad := allInCS(tr, n); bad {
			t.Fatalf("n=%d: all processes in CS at %v", n, cut)
		}
		if stats.Requests != n*6 {
			t.Errorf("n=%d: requests = %d", n, stats.Requests)
		}
		if stats.CtlMessages != 2*stats.Handoffs {
			t.Errorf("n=%d: %d control messages for %d handoffs; want exactly 2 per handoff",
				n, stats.CtlMessages, stats.Handoffs)
		}
	}
}

func TestUncontrolledViolates(t *testing.T) {
	// Sanity for the detector: without control and with long overlapping
	// CS periods, the all-in-CS cut must be possible.
	n := 3
	k := sim.New(sim.Config{Procs: n, Delay: sim.ConstantDelay(1), Seed: 7, Trace: true})
	bodies := make([]func(*sim.Proc), n)
	for i := range bodies {
		bodies[i] = func(p *sim.Proc) {
			p.Init("cs", 0)
			p.Set("cs", 1)
			p.Work(100)
			p.Set("cs", 0)
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := detect.PossiblyTruth(tr.D, func(p, kk int) bool {
		v, ok := tr.D.Var(deposet.StateID{P: p, K: kk}, "cs")
		return ok && v == 1
	}); !bad {
		t.Fatal("uncontrolled run should admit the all-in-CS cut")
	}
}

func TestResponseTimeBounds(t *testing.T) {
	// Paper §6: response time for a scapegoat handoff lies in
	// [2T, 2T+Emax]; other entries are immediate (local round trip).
	const T, E = 25, 40
	cfg := Config{N: 4, Delay: T, Seed: 3, Trace: false}
	_, stats, err := Run(cfg, csWorkload(4, 8, E, 200))
	if err != nil {
		t.Fatal(err)
	}
	sawHandoff := false
	for _, r := range stats.Responses {
		switch {
		case r == 0: // non-scapegoat entry
		case r >= 2*T && r <= 2*T+E:
			sawHandoff = true
		default:
			t.Fatalf("response %d outside {0} ∪ [2T, 2T+Emax] = [%d, %d]", r, 2*T, 2*T+E)
		}
	}
	if !sawHandoff {
		t.Error("no handoff observed; workload too light to be meaningful")
	}
	if stats.Responses.Max() > 2*T+E {
		t.Errorf("max response %d > 2T+Emax", stats.Responses.Max())
	}
}

func TestBroadcastVariant(t *testing.T) {
	const T, E = 25, 40
	cfgU := Config{N: 5, Delay: T, Seed: 11, Trace: true}
	trU, statsU, err := Run(cfgU, csWorkload(5, 6, E, 100))
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfgU
	cfgB.Broadcast = true
	trB, statsB, err := Run(cfgB, csWorkload(5, 6, E, 100))
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*sim.Trace{"unicast": trU, "broadcast": trB} {
		if cut, bad := allInCS(tr, 5); bad {
			t.Fatalf("%s: all processes in CS at %v", name, cut)
		}
	}
	if statsB.Handoffs > 0 && statsU.Handoffs > 0 && statsB.CtlMessages <= statsU.CtlMessages {
		t.Logf("note: broadcast used %d messages vs unicast %d (usually more)",
			statsB.CtlMessages, statsU.CtlMessages)
	}
	if statsB.CtlMessages < statsB.Handoffs {
		t.Error("broadcast accounting inconsistent")
	}
}

func TestAppMessaging(t *testing.T) {
	// Guard.Send/Recv relay application messages across nodes, even while
	// a RequestFalse is waiting for its grant.
	cfg := Config{N: 2, Delay: 5, Seed: 1, Trace: true}
	_, _, err := Run(cfg, []func(*Guard){
		func(g *Guard) {
			g.Send(1, "hello")
			g.RequestFalse()
			g.P().Set("cs", 1)
			g.P().Set("cs", 0)
			g.NowTrue()
			from, payload := g.Recv()
			if from != 1 || payload != "world" {
				panic("bad app message")
			}
		},
		func(g *Guard) {
			from, payload := g.Recv()
			if from != 0 || payload != "hello" {
				panic("bad app message")
			}
			g.Send(0, "world")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(Config{N: 1}, make([]func(*Guard), 1)); err == nil {
		t.Error("N=1 accepted")
	}
	if _, _, err := Run(Config{N: 3}, make([]func(*Guard), 2)); err == nil {
		t.Error("body count mismatch accepted")
	}
	if _, _, err := Run(Config{N: 2, Scapegoat: 5}, make([]func(*Guard), 2)); err == nil {
		t.Error("bad scapegoat index accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, sim.Time) {
		cfg := Config{N: 4, Delay: 7, Seed: 123, Trace: false}
		_, stats, err := Run(cfg, csWorkload(4, 5, 11, 60))
		if err != nil {
			t.Fatal(err)
		}
		return stats.CtlMessages, stats.Responses.Max()
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", m1, r1, m2, r2)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := &Stats{Responses: []sim.Time{0, 10, 4}}
	if s.Responses.Max() != 10 {
		t.Error("MaxResponse wrong")
	}
	if got := s.Responses.Mean(); got < 4.6 || got > 4.7 {
		t.Errorf("MeanResponse = %v", got)
	}
	empty := &Stats{}
	if empty.Responses.Max() != 0 || empty.Responses.Mean() != 0 {
		t.Error("empty stats wrong")
	}
}

// Property: across many seeds, delays and fan-ins, the predicate "at
// least one process outside its CS" is maintained on every trace and no
// run deadlocks (Theorem 4).
func TestScapegoatSafetyLivenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%4)
		broadcast := seed%2 == 0
		cfg := Config{
			N:         n,
			Delay:     sim.Time(1 + uint64(seed>>8)%30),
			Seed:      seed,
			Trace:     true,
			Broadcast: broadcast,
			Scapegoat: int(uint64(seed>>16) % uint64(n)),
		}
		tr, _, err := Run(cfg, csWorkload(n, 4, sim.Time(1+uint64(seed>>24)%40), 60))
		if err != nil {
			if strings.Contains(err.Error(), "deadlock") {
				t.Logf("seed %d: deadlock", seed)
			} else {
				t.Logf("seed %d: %v", seed, err)
			}
			return false
		}
		if cut, bad := allInCS(tr, n); bad {
			t.Logf("seed %d: violation at %v", seed, cut)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTheorem3AssumptionA1Necessary demonstrates why the paper needs
// assumption A1 (no blocking while false): a process that blocks inside
// its critical section waiting for a message from a process that cannot
// proceed wedges the strategy — the deadlock the impossibility proof of
// Theorem 3 builds on. The simulator detects and reports it rather than
// hanging.
func TestTheorem3AssumptionA1Necessary(t *testing.T) {
	cfg := Config{N: 2, Delay: 5, Seed: 1}
	_, _, err := Run(cfg, []func(*Guard){
		func(g *Guard) {
			g.RequestFalse()
			g.P().Set("cs", 1)
			g.Recv() // blocks while false, awaiting the other process (violates A1)
			g.P().Set("cs", 0)
			g.NowTrue()
		},
		func(g *Guard) {
			// Receives the anti-token first (P0's handoff), then wants to
			// go false before ever sending; with P0 false and blocked,
			// the anti-token has nowhere to go.
			g.P().Work(50)
			g.RequestFalse()
			g.Send(0, "unblock")
			g.NowTrue()
		},
	})
	var dl sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock under A1 violation, got %v", err)
	}
}

// TestAssumptionA2Matters: a process whose predicate stays false forever
// (violating A2) pins pending handoff requests indefinitely; if it is the
// only possible successor, the system wedges.
func TestTheorem3AssumptionA2Necessary(t *testing.T) {
	cfg := Config{N: 2, Delay: 5, Seed: 2}
	_, _, err := Run(cfg, []func(*Guard){
		func(g *Guard) { // scapegoat wants to go false
			g.P().Work(10)
			g.RequestFalse()
			g.NowTrue()
		},
		func(g *Guard) { // goes false and never comes back (violates A2)
			g.RequestFalse()
			g.P().Work(1000)
		},
	})
	var dl sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock under A2 violation, got %v", err)
	}
}
