package expt

import (
	"fmt"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/scenario"
)

// E7 reproduces Figure 4 / §7: the active-debugging walkthrough on the
// replicated-server system — computations C1 through C4 with bug 1
// ("all servers unavailable") and bug 2 ("e and f at the same time").
func E7() *Table {
	t := &Table{
		ID:    "E7",
		Title: "active debugging walkthrough (Figure 4, §7)",
		Claim: "controlling C1 yields C2 (bug 1 gone); 'e before f' yields C3/C4; eliminating bug 2 eliminates bug 1",
		Columns: []string{
			"computation", "derivation", "ctl msgs", "bug 1 possible", "bug 2 possible",
		},
	}
	fg, err := scenario.New()
	if err != nil {
		panic(err)
	}
	d := fg.C1
	possible := func(dd *deposet.Deposet, bug *predicate.Conjunction) string {
		if cut, ok := detect.PossiblyConjunctive(dd, bug); ok {
			return fmt.Sprintf("yes (%v)", cut)
		}
		return "no"
	}
	c2, c3, c4, err := fg.Derive()
	if err != nil {
		panic(err)
	}
	t.Row("C1", "observed trace", 0, possible(d, fg.Bug1On(nil)), possible(d, fg.Bug2On(nil)))
	row := func(name, derivation string, c *scenario.Derived) {
		t.Row(name, derivation, len(c.Relation),
			possible(c.D, fg.Bug1On(c.Underlying)), possible(c.D, fg.Bug2On(c.Underlying)))
	}
	row("C2", "C1 + control(∨ avail)", c2)
	row("C3", "C2 + control(e before f)", c3)
	row("C4", "C1 + control(e before f)", c4)

	x, err := control.Extend(d, c4.Relation)
	if err != nil {
		panic(err)
	}
	violations, _ := detect.AllViolations(d, fg.Avail.Expr())
	stillConsistent := 0
	for _, v := range violations {
		if x.Consistent(v) {
			stillConsistent++
		}
	}
	t.Note("C1's violating cuts G=%v, H=%v; consistent under C4's control: %d of %d",
		violations[0], violations[1], stillConsistent, len(violations))
	t.Note("bug 2 is the root cause: its fix alone removes bug 1 (paper's conclusion).")
	return t
}
