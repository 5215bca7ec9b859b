// Quickstart: the observe → detect → control → replay cycle against the
// public API, on the paper's first example predicate — two-process
// mutual exclusion ¬cs0 ∨ ¬cs1.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"predctl"
)

func main() {
	// Observe: simulate two processes that enter a critical section with
	// no synchronization at all, and trace the run.
	k := predctl.NewSim(predctl.SimConfig{Procs: 2, Seed: 9, Trace: true})
	body := func(p *predctl.Proc) {
		p.Init("cs", 0)
		for round := 0; round < 3; round++ {
			p.Work(predctl.Time(p.Rand().Intn(15)))
			p.Set("cs", 1) // enter critical section (no lock!)
			p.Work(10)
			p.Set("cs", 0)
		}
	}
	tr, err := k.Run(body, body)
	if err != nil {
		log.Fatal(err)
	}
	d := tr.D
	fmt.Printf("traced %d states, %d critical sections per process\n", d.NumStates(), 3)

	// Specify: B = ¬cs0 ∨ ¬cs1, at most one process in its critical section.
	B, err := predctl.VarDisjunction(d, []predctl.VarLocal{
		{P: 0, Var: "cs", Op: predctl.Eq, Value: 0},
		{P: 1, Var: "cs", Op: predctl.Eq, Value: 0},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Detect: is the bug ¬B possible? (Garg–Waldecker detection.)
	cut, racy := predctl.Possibly(d, B.Negate())
	if !racy {
		fmt.Println("this trace happens to be race-free; rerun with another seed")
		return
	}
	fmt.Printf("race detected: both in CS possible, e.g. at %v\n", cut)

	// Control: synthesize the control messages that make every replay
	// satisfy B.
	res, err := predctl.Control(d, B)
	if err != nil {
		log.Fatalf("control: %v", err)
	}
	fmt.Printf("controller: %d control message(s) — the paper's bound is one per critical section\n",
		len(res.Relation))
	for _, e := range res.Relation {
		fmt.Printf("  block %v until %v is passed\n", e.To, e.From)
	}

	// Replay under several delay regimes and verify: mutual exclusion
	// must hold in every one of them, because the control is causal, not
	// temporal.
	for seed := int64(0); seed < 5; seed++ {
		rr, err := predctl.Replay(d, res.Relation, predctl.ReplayConfig{Seed: seed})
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		if vcut, ok := predctl.VerifyReplay(rr, d, B); !ok {
			log.Fatalf("replay %d violated mutual exclusion at %v", seed, vcut)
		}
	}
	fmt.Println("5 controlled replays verified: mutual exclusion enforced in all of them")
}
