package expt

import (
	"fmt"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/offline"
	"predctl/internal/replay"
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
	h := func(cj interface {
		Holds(*deposet.Deposet, int, int) bool
	}, dd *deposet.Deposet) detect.HoldsFn {
		return func(p, k int) bool { return cj.Holds(dd, p, k) }
	}
	possible := func(dd *deposet.Deposet, fn detect.HoldsFn) string {
		if cut, ok := detect.PossiblyTruth(dd, fn); ok {
			return fmt.Sprintf("yes (%v)", cut)
		}
		return "no"
	}

	t.Row("C1", "observed trace", 0,
		possible(d, h(fg.Bug1On(nil), d)), possible(d, h(fg.Bug2On(nil), d)))

	res1, err := offline.Control(d, fg.Avail, offline.Options{})
	if err != nil {
		panic(err)
	}
	c2, err := replay.Run(d, res1.Relation, replay.Config{Seed: 1})
	if err != nil {
		panic(err)
	}
	t.Row("C2", "C1 + control(∨ avail)", len(res1.Relation),
		possible(c2.Trace.D, h(fg.Bug1On(c2.Underlying), c2.Trace.D)),
		possible(c2.Trace.D, h(fg.Bug2On(c2.Underlying), c2.Trace.D)))

	res3, err := offline.Control(c2.Trace.D, fg.EBeforeFMapped(c2.Underlying), offline.Options{})
	if err != nil {
		panic(err)
	}
	c3, err := replay.Run(c2.Trace.D, res3.Relation, replay.Config{Seed: 2})
	if err != nil {
		panic(err)
	}
	composed := make([][]int, 3)
	for p := range composed {
		for _, k := range c3.Underlying[p] {
			composed[p] = append(composed[p], c2.Underlying[p][k])
		}
	}
	t.Row("C3", "C2 + control(e before f)", len(res3.Relation),
		possible(c3.Trace.D, h(fg.Bug1On(composed), c3.Trace.D)),
		possible(c3.Trace.D, h(fg.Bug2On(composed), c3.Trace.D)))

	res4, err := offline.Control(d, fg.EBeforeF, offline.Options{})
	if err != nil {
		panic(err)
	}
	c4, err := replay.Run(d, res4.Relation, replay.Config{Seed: 3})
	if err != nil {
		panic(err)
	}
	t.Row("C4", "C1 + control(e before f)", len(res4.Relation),
		possible(c4.Trace.D, h(fg.Bug1On(c4.Underlying), c4.Trace.D)),
		possible(c4.Trace.D, h(fg.Bug2On(c4.Underlying), c4.Trace.D)))

	x, err := control.Extend(d, res4.Relation)
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
