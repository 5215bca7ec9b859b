package online

import (
	"strings"
	"testing"

	"predctl/internal/obs"
)

// instrumentedRun executes the CS workload with a journal and registry
// attached and returns both for invariant checking.
func instrumentedRun(t *testing.T, n, rounds int, seed int64) (*obs.Journal, *obs.Registry) {
	t.Helper()
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	cfg := Config{N: n, Delay: 5, Seed: seed, Journal: j, Reg: reg}
	if _, _, err := Run(cfg, csWorkload(n, rounds, 20, 200)); err != nil {
		t.Fatal(err)
	}
	return j, reg
}

// TestInvariantsHoldOnHealthyRuns: the obs checker accepts every
// example workload — the paper's bounds hold on the real protocol.
func TestInvariantsHoldOnHealthyRuns(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		j, reg := instrumentedRun(t, n, 8, int64(40+n))
		var rep obs.Report
		rep.CheckResponses(reg.Histogram("predctl_response_vtime"), 5, 20, j)
		rep.CheckScapegoatChain(j)
		if err := rep.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rep.Checked) != 2 {
			t.Fatalf("n=%d: ran %d checks, want 2", n, len(rep.Checked))
		}
	}
}

// TestFaultTripsResponseInvariant injects the test-only grant delay —
// a deliberately broken handoff that works past the window before
// granting — and requires the checker to fail loudly, with journal
// context attached.
func TestFaultTripsResponseInvariant(t *testing.T) {
	faultDelayGrant = 100 // >> Emax: pushes handoffs past 2T+Emax
	defer func() { faultDelayGrant = 0 }()

	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	cfg := Config{N: 3, Delay: 5, Seed: 11, Journal: j, Reg: reg}
	if _, stats, err := Run(cfg, csWorkload(3, 10, 20, 50)); err != nil {
		t.Fatal(err)
	} else if stats.Handoffs == 0 {
		t.Fatal("workload produced no handoffs; fault cannot manifest")
	}

	var rep obs.Report
	rep.CheckResponses(reg.Histogram("predctl_response_vtime"), 5, 20, j)
	if rep.Ok() {
		t.Fatal("delayed-grant fault not detected")
	}
	v := rep.Violations[0]
	if !strings.Contains(v.Detail, "allowed {0} ∪ [10, 30]") {
		t.Errorf("violation detail lacks the bound: %q", v.Detail)
	}
	if len(v.Events) == 0 {
		t.Error("violation carries no journal slice")
	}
	if !strings.Contains(rep.Err().Error(), "invariant") {
		t.Errorf("Err() not descriptive: %v", rep.Err())
	}

	// The chain itself is still sound — only the timing bound broke.
	var chain obs.Report
	chain.CheckScapegoatChain(j)
	if err := chain.Err(); err != nil {
		t.Fatalf("chain should survive a timing fault: %v", err)
	}
}

// TestJournalRecordsProtocolEvents: the journal of an instrumented run
// contains the control-message and scapegoat-transfer annotations the
// checker and the Chrome exporter consume.
func TestJournalRecordsProtocolEvents(t *testing.T) {
	j, reg := instrumentedRun(t, 3, 6, 9)
	var inits, acquires, ctl int
	for _, e := range j.Events() {
		if e.Kind != obs.KindControl {
			continue
		}
		switch {
		case e.Name == obs.EvScapegoatInit:
			inits++
		case e.Name == obs.EvScapegoatAcquire:
			acquires++
		case strings.HasPrefix(e.Name, obs.EvCtlPrefix):
			ctl++
		}
	}
	if inits != 1 {
		t.Errorf("scapegoat.init count = %d, want 1", inits)
	}
	handoffs := reg.Counter("predctl_handoffs_total").Value()
	if int64(acquires) != handoffs {
		t.Errorf("journal acquires = %d, registry handoffs = %d", acquires, handoffs)
	}
	if msgs := reg.Counter("predctl_ctl_messages_total").Value(); int64(ctl) != msgs {
		t.Errorf("journal ctl events = %d, registry ctl messages = %d", ctl, msgs)
	}
	if obs.ChainLength(j) != handoffs {
		t.Errorf("ChainLength = %d, want %d", obs.ChainLength(j), handoffs)
	}
}
