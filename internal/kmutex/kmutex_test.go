package kmutex

import (
	"testing"
	"testing/quick"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/sim"
)

func wl(n int, seed int64) Workload {
	return Workload{
		N:        n,
		Rounds:   5,
		ThinkMax: 60,
		CS:       20,
		Delay:    8,
		Seed:     seed,
		Trace:    true,
	}
}

// atMostK checks the traced computation never admits a consistent cut
// with more than k application processes in their critical sections.
// Exhaustive over the lattice; keep workloads small.
func atMostK(t *testing.T, tr *sim.Trace, n, k int, name string) {
	t.Helper()
	inCS := func(p, kk int) bool {
		if p >= n {
			return false
		}
		v, ok := tr.D.Var(deposet.StateID{P: p, K: kk}, "cs")
		return ok && v == 1
	}
	violated := false
	tr.D.ForEachConsistentCut(func(g deposet.Cut) bool {
		c := 0
		for p := 0; p < n; p++ {
			if inCS(p, g[p]) {
				c++
			}
		}
		if c > k {
			violated = true
			return false
		}
		return true
	})
	if violated {
		t.Fatalf("%s: more than %d processes in CS on a consistent cut", name, k)
	}
}

// allInCSImpossible is the fast (non-exhaustive) check used on bigger
// runs: k = n−1 safety is exactly "the all-in-CS cut is impossible".
func allInCSImpossible(t *testing.T, tr *sim.Trace, n int, name string) {
	t.Helper()
	if cut, ok := detect.PossiblyTruth(tr.D, func(p, kk int) bool {
		if p >= n {
			return true
		}
		v, found := tr.D.Var(deposet.StateID{P: p, K: kk}, "cs")
		return found && v == 1
	}); ok {
		t.Fatalf("%s: all processes in CS at %v", name, cut)
	}
}

func TestCentralSafety(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		tr, m, err := RunCentral(wl(n, int64(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		atMostK(t, tr, n, n-1, "central")
		if m.Entries != n*5 {
			t.Errorf("n=%d: entries = %d", n, m.Entries)
		}
		// 3 messages per entry: request, grant, release.
		if m.CtlMessages != 3*m.Entries {
			t.Errorf("n=%d: messages = %d, want %d", n, m.CtlMessages, 3*m.Entries)
		}
		// Uncontended response is exactly 2T.
		for _, r := range m.Responses {
			if r < 2*wl(n, 0).Delay {
				t.Errorf("n=%d: response %d < 2T", n, r)
			}
		}
	}
}

func TestTokenSafety(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		tr, m, err := RunToken(wl(n, int64(n)*7))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		atMostK(t, tr, n, n-1, "token")
		if m.Entries != n*5 {
			t.Errorf("n=%d: entries = %d", n, m.Entries)
		}
	}
}

func TestScapegoatAdapter(t *testing.T) {
	tr, m, err := RunScapegoat(wl(3, 5), false)
	if err != nil {
		t.Fatal(err)
	}
	allInCSImpossible(t, tr, 3, "scapegoat")
	if m.Entries != 15 {
		t.Errorf("entries = %d", m.Entries)
	}
	if _, _, err := RunScapegoat(Workload{N: 4, K: 2}, false); err == nil {
		t.Error("k≠n-1 accepted by scapegoat adapter")
	}
}

func TestUncontrolledAdmitsViolation(t *testing.T) {
	w := wl(3, 9)
	w.ThinkMax = 2
	w.CS = 500 // long overlapping critical sections
	tr, m, err := RunUncontrolled(w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries != 15 || m.CtlMessages != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if _, ok := detect.PossiblyTruth(tr.D, func(p, kk int) bool {
		v, found := tr.D.Var(deposet.StateID{P: p, K: kk}, "cs")
		return found && v == 1
	}); !ok {
		t.Fatal("uncontrolled run should admit the all-in-CS cut")
	}
}

func TestSmallerK(t *testing.T) {
	w := wl(4, 13)
	w.K = 2
	tr, _, err := RunCentral(w)
	if err != nil {
		t.Fatal(err)
	}
	atMostK(t, tr, 4, 2, "central k=2")
	tr2, _, err := RunToken(w)
	if err != nil {
		t.Fatal(err)
	}
	atMostK(t, tr2, 4, 2, "token k=2")
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{CtlMessages: 10, Entries: 4, Responses: []sim.Time{0, 6, 2}}
	if m.MessagesPerEntry() != 2.5 {
		t.Error("MessagesPerEntry wrong")
	}
	if m.Responses.Max() != 6 {
		t.Error("MaxResponse wrong")
	}
	if got := m.Responses.Mean(); got < 2.6 || got > 2.7 {
		t.Errorf("MeanResponse = %v", got)
	}
	empty := &Metrics{}
	if empty.MessagesPerEntry() != 0 || empty.Responses.Mean() != 0 {
		t.Error("empty metrics wrong")
	}
}

// TestOverheadComparison reproduces the shape of the paper's §6
// comparison on a common workload: the anti-token strategy uses fewer
// control messages per CS entry than both baselines.
func TestOverheadComparison(t *testing.T) {
	w := Workload{N: 6, Rounds: 20, ThinkMax: 200, CS: 15, Delay: 5, Seed: 77}
	_, mc, err := RunCentral(w)
	if err != nil {
		t.Fatal(err)
	}
	_, mt, err := RunToken(w)
	if err != nil {
		t.Fatal(err)
	}
	_, ms, err := RunScapegoat(w, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("messages/entry: central=%.2f token=%.2f scapegoat=%.2f",
		mc.MessagesPerEntry(), mt.MessagesPerEntry(), ms.MessagesPerEntry())
	if !(ms.MessagesPerEntry() < mt.MessagesPerEntry() &&
		ms.MessagesPerEntry() < mc.MessagesPerEntry()) {
		t.Errorf("anti-token should be cheapest: central=%.2f token=%.2f scapegoat=%.2f",
			mc.MessagesPerEntry(), mt.MessagesPerEntry(), ms.MessagesPerEntry())
	}
	// And roughly 2 messages per n entries, i.e. 2/n per entry.
	want := 2.0 / float64(w.N)
	if got := ms.MessagesPerEntry(); got > 4*want {
		t.Errorf("scapegoat messages/entry = %.3f, expected near %.3f", got, want)
	}
}

// Property: all three protocols maintain k = n−1 safety across seeds.
func TestProtocolsSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%3)
		w := Workload{
			N: n, Rounds: 3, ThinkMax: 40, CS: sim.Time(5 + uint64(seed>>8)%30),
			Delay: sim.Time(1 + uint64(seed>>16)%10), Seed: seed, Trace: true,
		}
		check := func(tr *sim.Trace, err error) bool {
			if err != nil {
				return false
			}
			_, bad := detect.PossiblyTruth(tr.D, func(p, kk int) bool {
				if p >= n {
					return true
				}
				v, found := tr.D.Var(deposet.StateID{P: p, K: kk}, "cs")
				return found && v == 1
			})
			return !bad
		}
		trc, _, errc := RunCentral(w)
		trt, _, errt := RunToken(w)
		trs, _, errs := RunScapegoat(w, seed%2 == 0)
		return check(trc, errc) && check(trt, errt) && check(trs, errs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
