// Cluster runs the paper's anti-token mutual-exclusion controller over
// a real network: five node daemons on localhost TCP, each hosting one
// application process and its controller, with seeded fault injection
// (drops, duplicates, latency) on every protocol link. The coordinator
// captures the run as a deposet trace, checks the paper-bound
// invariants on the merged journal, and finally replays the captured
// trace on the simulator to show offline and online tooling consume
// the same artifact.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"time"

	"predctl/internal/detect"
	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sim"
)

func main() {
	const n, rounds = 5, 3
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()

	res, err := node.RunCluster(node.ClusterConfig{
		N: n, Rounds: rounds,
		Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998,
		Faults: node.Faults{
			Drop: 0.2, Dup: 0.1,
			Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
			Seed: 7,
		},
		Journal: j, Reg: reg,
	})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}

	requests, handoffs := 0, 0
	for _, s := range res.Stats {
		requests += s.Requests
		handoffs += s.Handoffs
	}
	d := res.Deposet
	fmt.Printf("ran %d nodes over TCP with faults: %d CS entries, %d anti-token handoffs\n",
		n, requests, handoffs)
	fmt.Printf("captured trace: %d processes, %d states, %d messages\n",
		d.NumProcs(), d.NumStates(), len(d.Messages()))

	// The journal merged from every node must show one unforked
	// scapegoat chain, and every handoff response must have paid at
	// least two shimmed network hops.
	var rep obs.Report
	rep.CheckNetRun(j, reg, 2*time.Millisecond)
	if err := rep.Err(); err != nil {
		log.Fatalf("invariants: %v", err)
	}
	fmt.Printf("invariants ok: %d checked\n", len(rep.Checked))

	// B = ∨ᵢ ¬csᵢ over the apps (0..n-1), a disjunction by construction.
	// The online controller enforced it live; the offline detector
	// confirms no consistent cut of the captured run violates it.
	dj, _ := predicate.AsDisjunction(node.CSMutexPredicate(n), d.NumProcs())
	if cut, bad := detect.PossiblyConjunctive(d, dj.Negate()); bad {
		log.Fatalf("captured run violates B at %v", cut)
	}
	fmt.Println("offline check: no consistent cut has every process in its critical section")

	// The capture is an ordinary pctl trace: replay it on the simulator
	// under fresh random delays and verify B again.
	rr, err := replay.Run(d, nil, replay.Config{Seed: 3, Delay: sim.UniformDelay(1, 5)})
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	if cut, ok := replay.VerifyDisjunction(rr, d, dj); !ok {
		log.Fatalf("replay violates B at %v", cut)
	}
	fmt.Println("replayed on the simulator: every consistent cut satisfies B")
}
