// Servers walks through the paper's §7 example (Figure 4): active
// debugging of a replicated server system. It reproduces the full cycle
// C1 → C2 → C3 → C4 and the final on-line phase, narrating each step.
//
//	go run ./examples/servers
package main

import (
	"fmt"
	"log"
	"strings"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/online"
	"predctl/internal/predicate"
	"predctl/internal/scenario"
)

func main() {
	fg, err := scenario.New()
	if err != nil {
		log.Fatal(err)
	}
	d := fg.C1

	fmt.Println("=== Computation C1 (observed trace) ===")
	drawAvailability(fg)

	fmt.Println("\n--- Step 1: detect bug 1: \"all servers unavailable\" ---")
	violations, _ := detect.AllViolations(d, fg.Avail.Expr())
	fmt.Printf("bug 1 is possible at %d consistent global states:\n", len(violations))
	names := []string{"G", "H"}
	for i, v := range violations {
		name := "·"
		if i < len(names) {
			name = names[i]
		}
		fmt.Printf("  %s = %v\n", name, v)
	}

	c2, c3, c4, err := fg.Derive()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- Step 2: control C1 with B = avail0 ∨ avail1 ∨ avail2 ---")
	fmt.Printf("off-line controller adds %d control message(s):\n", len(c2.Relation))
	for _, e := range c2.Relation {
		fmt.Printf("  %v   (server %d waits before state %d until server %d passed state %d)\n",
			e, e.To.P, e.To.K, e.From.P, e.From.K)
	}
	fmt.Println("replayed under control → computation C2")
	report(c2.D, "bug 1", fg.Bug1On(c2.Underlying))
	report(c2.D, "bug 2 (e and f co-occur)", fg.Bug2On(c2.Underlying))

	fmt.Println("\n--- Step 3: control C2 with \"e must happen before f\" ---")
	fmt.Printf("e = %v (server 2 leaves maintenance), f = %v (server 0 enters it)\n", fg.E, fg.F)
	fmt.Println("replayed → computation C3")
	report(c3.D, "bug 2", fg.Bug2On(c3.Underlying))

	fmt.Println("\n--- Step 4: suspect bug 2 caused bug 1 — apply the fix to C1 ---")
	fmt.Printf("controller for \"e before f\" on C1: %v\n", c4.Relation)
	fmt.Println("replayed → computation C4")
	report(c4.D, "bug 2", fg.Bug2On(c4.Underlying))
	report(c4.D, "bug 1", fg.Bug1On(c4.Underlying))
	x, err := control.Extend(d, c4.Relation)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("under this control, the violating cuts are gone: ")
	for i, v := range violations {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s consistent=%v", names[i], x.Consistent(v))
	}
	fmt.Println()
	fmt.Println("⇒ eliminating bug 2 also eliminates bug 1: bug 2 is the root cause.")

	fmt.Println("\n--- Step 5: protect future runs on-line ---")
	tr, stats, err := online.Run(online.Config{
		N: 2, Delay: 5, Trace: true,
		Scapegoat: 0,
		InitFalse: []bool{false, true}, // after_e is false until e happens
	}, []func(*online.Guard){
		func(g *online.Guard) { // server 0 wants to execute f early
			g.P().Init("f", 0)
			g.P().Work(1)
			g.RequestFalse() // blocks until e has happened
			g.P().Set("f", 1)
		},
		func(g *online.Guard) { // server 2: e happens late
			g.P().Init("e", 0)
			g.P().Work(50)
			g.P().Set("e", 1)
			g.NowTrue()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	f := predicate.VarLocal{P: 0, Var: "f", Op: predicate.Eq, Value: 1}.Expr()
	notE := predicate.VarLocal{P: 1, Var: "e", Op: predicate.Eq}.Expr()
	if _, bad := detect.PossiblyGeneral(tr.D, predicate.And(f, notE)); bad {
		log.Fatal("online control failed to order e before f")
	}
	fmt.Printf("on-line controller kept e before f in a fresh run (%d control messages)\n",
		stats.CtlMessages)
	fmt.Println("\nactive debugging cycle complete.")
}

func report(d *deposet.Deposet, name string, bug *predicate.Conjunction) {
	if cut, ok := detect.PossiblyConjunctive(d, bug); ok {
		fmt.Printf("  %-26s possible, e.g. at %v\n", name+":", cut)
	} else {
		fmt.Printf("  %-26s impossible ✓\n", name+":")
	}
}

// drawAvailability renders each server's availability timeline.
func drawAvailability(fg *scenario.Figure4) {
	for p := 0; p < fg.C1.NumProcs(); p++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "  P%d: ", p)
		for k := 0; k < fg.C1.Len(p); k++ {
			if fg.Avail.Holds(fg.C1, p, k) {
				sb.WriteString("──")
			} else {
				sb.WriteString("▓▓") // unavailable
			}
		}
		fmt.Println(sb.String())
	}
	fmt.Println("  (▓ = unavailable; message: P1's first event → P2's first event)")
}
