// Kmutex reproduces the paper's §6 comparison: the anti-token on-line
// controller, specialized to k = n−1 mutual exclusion, against a
// centralized coordinator and a distributed k-token algorithm, all on
// the same workload.
//
//	go run ./examples/kmutex
package main

import (
	"fmt"
	"log"

	"predctl/internal/kmutex"
	"predctl/internal/sim"
)

func main() {
	w := kmutex.Workload{
		N:        8,
		Rounds:   30,
		ThinkMax: 300,
		CS:       20,
		Delay:    5,
		Seed:     2024,
	}
	fmt.Printf("workload: n=%d, %d entries/process, T=%d, Emax=%d\n\n",
		w.N, w.Rounds, w.Delay, w.CS)
	fmt.Printf("%-22s %10s %12s %10s %10s\n",
		"protocol", "messages", "msgs/entry", "mean resp", "max resp")

	row := func(name string, m *kmutex.Metrics, err error) {
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-22s %10d %12.2f %10.1f %10d\n",
			name, m.CtlMessages, m.MessagesPerEntry(), m.Responses.Mean(), m.Responses.Max())
	}

	_, m, err := kmutex.RunUncontrolled(w)
	row("uncontrolled (unsafe)", m, err)
	_, m, err = kmutex.RunCentral(w)
	row("central coordinator", m, err)
	_, m, err = kmutex.RunToken(w)
	row("k tokens (k=n-1)", m, err)
	_, m, err = kmutex.RunScapegoat(w, false)
	row("anti-token (paper)", m, err)
	_, m, err = kmutex.RunScapegoat(w, true)
	row("anti-token broadcast", m, err)

	fmt.Printf("\npaper's claims: anti-token ≈ 2 messages per n entries (= %.2f/entry here),\n",
		2.0/float64(w.N))
	fmt.Printf("handoff response in [2T, 2T+Emax] = [%d, %d].\n", 2*w.Delay, 2*w.Delay+w.CS)
	_ = sim.Time(0)
}
