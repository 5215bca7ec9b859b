// Recovery demonstrates the paper's §8 remark that off-line predicate
// control applies "wherever control is required when the computation is
// known a priori, such as in distributed recovery": after a failure, the
// logged computation is re-executed under a controller that keeps the
// system out of the state that caused the crash (controlled
// re-execution).
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"predctl"
)

const nodes = 3

func main() {
	// Phase 1: the original (logged) run. A sloppy leader-election lets
	// several nodes act as leader at once; the invariant "at most one
	// leader" is what the post-mortem will blame.
	k := predctl.NewSim(predctl.SimConfig{Procs: nodes, Seed: 31, Trace: true,
		Delay: predctl.UniformDelay(2, 12)})
	bodies := make([]func(*predctl.Proc), nodes)
	for i := range bodies {
		bodies[i] = func(p *predctl.Proc) {
			p.Init("leader", 0)
			for term := 0; term < 3; term++ {
				p.Work(predctl.Time(3 + p.Rand().Intn(20)))
				p.Set("leader", 1) // claims leadership without consensus
				// "Replicate" an entry to the next node while leading.
				p.Send((p.ID()+1)%nodes, term)
				p.Work(predctl.Time(5 + p.Rand().Intn(10)))
				p.Set("leader", 0)
			}
			for r := 0; r < 3; r++ {
				p.Recv()
			}
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		log.Fatal(err)
	}
	d := tr.D
	fmt.Printf("logged run: %d states, %d messages\n", d.NumStates(), len(d.Messages()))

	// Phase 2: post-mortem. The crash invariant: at most one leader —
	// as a controllable predicate, "some node is NOT leader" must hold
	// for every pair... for n nodes the single-leader property per pair;
	// here the classic disjunctive form covers the total outage case and
	// pairwise clauses the rest. We use the pairwise clause between each
	// adjacent pair via the CNF extension through the facade's Control on
	// the strongest single-disjunction form: "at most n-1 leaders" plus
	// the pair that actually collided.
	notBoth := func(i, j int) *predctl.Disjunction { // ¬leader_i ∨ ¬leader_j
		B, err := predctl.VarDisjunction(d, []predctl.VarLocal{
			{P: i, Var: "leader", Op: predctl.Eq, Value: 0},
			{P: j, Var: "leader", Op: predctl.Eq, Value: 0},
		})
		if err != nil {
			log.Fatal(err)
		}
		return B
	}
	// Find the colliding pair in the log.
	var B *predctl.Disjunction
	for i := 0; i < nodes && B == nil; i++ {
		for j := i + 1; j < nodes && B == nil; j++ {
			if cut, ok := predctl.Possibly(d, notBoth(i, j).Negate()); ok {
				B = notBoth(i, j)
				fmt.Printf("post-mortem: nodes %d and %d could lead simultaneously (e.g. at %v)\n",
					i, j, cut)
			}
		}
	}
	if B == nil {
		fmt.Println("this log happens to be collision-free; rerun with another seed")
		return
	}

	// Phase 3: synthesize the recovery controller for that pair and
	// re-execute the logged computation under it.
	res, err := predctl.Control(d, B)
	if err != nil {
		log.Fatalf("control: %v", err)
	}
	fmt.Printf("recovery controller: %d control message(s)\n", len(res.Relation))

	rr, err := predctl.Replay(d, res.Relation, predctl.ReplayConfig{
		Seed:  99,
		Delay: predctl.UniformDelay(2, 12),
	})
	if err != nil {
		log.Fatalf("controlled re-execution: %v", err)
	}
	if cut, ok := predctl.VerifyReplay(rr, d, B); !ok {
		log.Fatalf("re-execution still collides at %v", cut)
	}
	fmt.Println("controlled re-execution verified: the leadership collision cannot recur;")
	fmt.Println("the system recovers past the failure with the same application events.")
}
