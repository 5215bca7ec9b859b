// Dining runs the paper's fourth example predicate — "at least one
// philosopher is thinking" — through the full live cycle: first an
// uncontrolled run with an on-line detector (Garg–Waldecker checker)
// that catches the violation as it happens, then the same workload under
// the on-line scapegoat (anti-token) controller, which makes the
// violation impossible with two control messages per handoff.
//
//	go run ./examples/dining
package main

import (
	"fmt"
	"log"

	"predctl"
)

const (
	philosophers = 5
	meals        = 4
)

func main() {
	// Phase 1: uncontrolled run with the on-line detector. Every
	// philosopher's local predicate is "I am eating"; the checker fires
	// when all five eating periods can overlap.
	probeApps := make([]func(*predctl.Probe), philosophers)
	for i := range probeApps {
		probeApps[i] = func(pr *predctl.Probe) {
			p := pr.P()
			p.Init("thinking", 1)
			for m := 0; m < meals; m++ {
				p.Work(predctl.Time(5 + p.Rand().Intn(20)))
				p.Set("thinking", 0) // starts eating, no coordination
				pr.SetLocal(true)    // "eating" holds
				p.Work(predctl.Time(30 + p.Rand().Intn(20)))
				p.Set("thinking", 1)
				pr.SetLocal(false)
			}
		}
	}
	_, det, err := predctl.MonitorRun(predctl.SimConfig{Seed: 4, Trace: true}, probeApps)
	if err != nil {
		log.Fatal(err)
	}
	if det.Found {
		fmt.Println("uncontrolled run: on-line detector fired — all philosophers")
		fmt.Println("eating at once is possible (nobody would notice the burning kitchen).")
	} else {
		fmt.Println("uncontrolled run: this seed dodged the bug; rerun with more appetite")
	}

	// Phase 2: the same appetite under on-line predicate control with
	// B = thinking₁ ∨ … ∨ thinkingₙ.
	apps := make([]func(*predctl.Guard), philosophers)
	for i := range apps {
		apps[i] = func(g *predctl.Guard) {
			p := g.P()
			p.Init("thinking", 1)
			for m := 0; m < meals; m++ {
				p.Work(predctl.Time(5 + p.Rand().Intn(40))) // think
				g.RequestFalse()                            // may I stop thinking?
				p.Set("thinking", 0)
				p.Work(predctl.Time(10 + p.Rand().Intn(20))) // eat
				p.Set("thinking", 1)
				g.NowTrue()
			}
		}
	}
	tr, stats, err := predctl.OnlineRun(predctl.OnlineConfig{
		N:     philosophers,
		Delay: 3,
		Seed:  4,
		Trace: true,
	}, apps)
	if err != nil {
		log.Fatal(err)
	}

	// Verify on the trace: B holds in every consistent global state, so
	// none has every philosopher eating.
	thinking := make([]predctl.VarLocal, philosophers)
	for p := range thinking {
		thinking[p] = predctl.VarLocal{P: p, Var: "thinking", Op: predctl.True}
	}
	B, err := predctl.VarDisjunction(tr.D, thinking)
	if err != nil {
		log.Fatal(err)
	}
	if cut, bad := predctl.Possibly(tr.D, B.Negate()); bad {
		log.Fatalf("all philosophers eating at %v", cut)
	}

	fmt.Printf("\ncontrolled run: %d philosophers ate %d meals each; someone was always thinking.\n",
		philosophers, meals)
	fmt.Printf("meals: %d, scapegoat handoffs: %d, control messages: %d (2 per handoff)\n",
		stats.Requests, stats.Handoffs, stats.CtlMessages)
	fmt.Printf("handoff latency: mean %.1f, max %d (bounded by 2T+Emax)\n",
		stats.Responses.Mean(), stats.Responses.Max())
}
