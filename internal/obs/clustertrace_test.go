package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"predctl/internal/kmutex"
	"predctl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// instrumentedMutexRun is the fixed-seed simulated workload the sim
// golden file pins: small enough to review by hand, large enough to
// journal every event kind (sends, receives, blocks, work, predicate
// flips, control annotations).
func instrumentedMutexRun(t *testing.T) *obs.Journal {
	t.Helper()
	j := obs.NewJournal(0)
	w := kmutex.Workload{
		N: 3, Rounds: 2, ThinkMax: 200, CS: 20, Delay: 5,
		Seed: 1998, Journal: j,
	}
	if _, _, err := kmutex.RunScapegoat(w, false); err != nil {
		t.Fatal(err)
	}
	return j
}

// simTrace exports the simulated run the way `pctl trace -o` does:
// three nodes, virtual time 1:1 onto trace microseconds.
func simTrace(t *testing.T) []byte {
	t.Helper()
	doc, err := obs.ClusterTrace(instrumentedMutexRun(t), obs.ClusterTraceOptions{N: 3, PerMicro: 1})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// clusterJournal hand-builds a deterministic two-node merged journal —
// the shape a coordinator assembles from capture streams — exercising
// every cluster-trace feature: causal flow pairs across nodes, a
// critical-section slice, per-node and run-level instants, and an
// in-flight message with no receive anchor.
func clusterJournal() *obs.Journal {
	j := obs.NewJournal(0)
	for _, e := range []obs.Event{
		// Run-level chaos annotations (Proc -1 → cluster row).
		{At: 1_200_000, Proc: -1, Kind: obs.KindControl, Name: obs.EvChaosCrash, A: 1},
		{At: 1_300_000, Proc: -1, Kind: obs.KindControl, Name: obs.EvPartitionOpen, A: 0, B: 1},
		{At: 4_000_000, Proc: -1, Kind: obs.KindControl, Name: obs.EvPartitionHeal, A: 0, B: 1},
		// ctl0 (proc 2) requests the anti-token from node 1; ctl1's
		// acquire is the first event whose clock dominates the send.
		{At: 1_000_000, Proc: 2, Kind: obs.KindControl, Name: "ctl.req", A: 1, C: 1, VC: []int32{1, 0}},
		{At: 2_000_000, Proc: 3, Kind: obs.KindControl, Name: obs.EvScapegoatAcquire, A: 1, B: 0, C: 1, VC: []int32{1, 1}},
		// The ack flows back: ctl0's confirm dominates it.
		{At: 2_500_000, Proc: 3, Kind: obs.KindControl, Name: "ctl.ack", A: 0, C: 1, VC: []int32{1, 2}},
		{At: 3_000_000, Proc: 2, Kind: obs.KindControl, Name: "ctl.confirm", A: 1, C: 1, VC: []int32{2, 2}},
		// The confirm itself is never observed before journal end — a
		// flow start with no finish must not be emitted for it.
		// App 0's critical section (cs=1 … cs=0) plus its candidate.
		{At: 1_500_000, Proc: 0, Kind: obs.KindSet, Name: "cs", A: 1},
		{At: 1_600_000, Proc: 0, Kind: obs.KindControl, Name: "monitor.candidate", A: 3, B: 5, VC: []int32{1, 0}},
		{At: 1_800_000, Proc: 0, Kind: obs.KindSet, Name: "cs", A: 0},
		// Node 1's controller marks the re-execution epoch.
		{At: 2_200_000, Proc: 3, Kind: obs.KindControl, Name: obs.EvEpochRestart, A: 1, C: 1},
		// App 1 tears down mid-critical-section: unclosed slice.
		{At: 3_500_000, Proc: 1, Kind: obs.KindSet, Name: "cs", A: 1},
	} {
		j.Append(e)
	}
	return j
}

// TestClusterTraceGolden locks the exporter's byte-exact output.
// Regenerate with:
//
//	go test ./internal/obs -run TestClusterTraceGolden -update
func TestClusterTraceGolden(t *testing.T) {
	doc, err := obs.ClusterTrace(clusterJournal(), obs.ClusterTraceOptions{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "cluster_trace_n2.json")
	if *update {
		if err := os.WriteFile(golden, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(doc))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("cluster trace drifted from %s (regenerate with -update if intended);\ngot %d bytes, want %d", golden, len(doc), len(want))
	}
}

// TestClusterTraceWellFormed checks structure independently of the
// golden bytes: valid JSON, every flow finish paired with a start, the
// expected causal arrows present (req and ack, not the unobserved
// confirm), rows confined to the n+1 trace processes, and chaos
// annotations global-scoped on the cluster row.
func TestClusterTraceWellFormed(t *testing.T) {
	const n = 2
	doc, err := obs.ClusterTrace(clusterJournal(), obs.ClusterTraceOptions{N: n})
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			ID   int64  `json:"id"`
			S    string `json:"s"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	flows := map[int64][2]int{}
	var crossNode int
	for _, e := range parsed.TraceEvents {
		if e.Pid < 0 || e.Pid > n {
			t.Fatalf("event %q on unknown pid %d", e.Name, e.Pid)
		}
		switch e.Ph {
		case "s":
			f := flows[e.ID]
			f[0]++
			flows[e.ID] = f
		case "f":
			f := flows[e.ID]
			f[1]++
			flows[e.ID] = f
			crossNode++
		case "i":
			if (e.Name == obs.EvChaosCrash || e.Name == obs.EvPartitionOpen) &&
				(e.Pid != n || e.S != "g") {
				t.Errorf("chaos instant %q not global on the cluster row: pid=%d s=%q", e.Name, e.Pid, e.S)
			}
		}
	}
	for id, f := range flows {
		if f[0] != 1 || f[1] != 1 {
			t.Errorf("flow %d has %d starts, %d finishes; want 1/1", id, f[0], f[1])
		}
	}
	// ctl.req (node0→node1) and ctl.ack (node1→node0) pair up; the
	// never-observed ctl.confirm must not produce a dangling arrow.
	if crossNode != 2 {
		t.Errorf("got %d cross-node flow arrows, want 2", crossNode)
	}
	for _, name := range []string{"ctl.req n0→n1", "ctl.ack n1→n0"} {
		found := false
		for _, e := range parsed.TraceEvents {
			if e.Name == name && e.Ph == "s" {
				found = true
			}
		}
		if !found {
			t.Errorf("missing causal flow %q", name)
		}
	}
	// The unclosed critical section degrades to an instant.
	sawUnclosed := false
	for _, e := range parsed.TraceEvents {
		if e.Name == "cs (unclosed)" && e.Ph == "i" && e.Pid == 1 {
			sawUnclosed = true
		}
	}
	if !sawUnclosed {
		t.Error("torn-down critical section not rendered as an unclosed instant")
	}
}

// TestClusterTraceDeterministic: same journal, same bytes.
func TestClusterTraceDeterministic(t *testing.T) {
	a, err := obs.ClusterTrace(clusterJournal(), obs.ClusterTraceOptions{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.ClusterTrace(clusterJournal(), obs.ClusterTraceOptions{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cluster trace export is not deterministic")
	}
}

// TestChromeTraceGolden locks the export of a simulated run byte for
// byte. Regenerate with:
//
//	go test ./internal/obs -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	doc := simTrace(t)
	golden := filepath.Join("testdata", "chrome_kmutex_n3.json")
	if *update {
		if err := os.WriteFile(golden, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(doc))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("Chrome trace drifted from %s (regenerate with -update if intended);\ngot %d bytes, want %d", golden, len(doc), len(want))
	}
}

// TestChromeTraceWellFormed checks both journal shapes, the simulated
// run and the cluster's merged journal, independently of the golden
// bytes: the JSON parses, every flow finish has a start with its id,
// every event sits on a node or the cluster row in an app or ctl
// thread, and the simulated run keeps every message, work span and
// block of its journal at its virtual time.
func TestChromeTraceWellFormed(t *testing.T) {
	sim := instrumentedMutexRun(t)
	for _, tc := range []struct {
		name string
		j    *obs.Journal
		opts obs.ClusterTraceOptions
	}{
		{"sim", sim, obs.ClusterTraceOptions{N: 3, PerMicro: 1}},
		{"cluster", clusterJournal(), obs.ClusterTraceOptions{N: 2}},
	} {
		doc, err := obs.ClusterTrace(tc.j, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Ts   int64  `json:"ts"`
				Dur  int64  `json:"dur"`
				Pid  int    `json:"pid"`
				Tid  int    `json:"tid"`
				ID   int64  `json:"id"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(doc, &parsed); err != nil {
			t.Fatalf("%s: invalid JSON: %v", tc.name, err)
		}
		starts := map[int64]bool{}
		drawn := map[string]int{}
		var work [][2]int64
		for _, e := range parsed.TraceEvents {
			if e.Pid < 0 || e.Pid > tc.opts.N || e.Tid < 0 || e.Tid > 1 {
				t.Errorf("%s: event %q on pid %d tid %d", tc.name, e.Name, e.Pid, e.Tid)
			}
			switch e.Ph {
			case "s":
				starts[e.ID] = true
			case "f":
				if !starts[e.ID] {
					t.Errorf("%s: flow %d finishes with no start", tc.name, e.ID)
				}
				drawn["flow"]++
			case "X":
				drawn[e.Name]++
				if e.Name == "work" {
					work = append(work, [2]int64{e.Ts, e.Dur})
				}
			case "i":
				if e.Name == "blocked on recv (unclosed)" {
					drawn["blocked on recv"]++
				}
			}
		}
		if tc.j != sim {
			continue
		}
		// Every send, block and work span the run journaled is drawn,
		// each work span at its own virtual time.
		want := map[string]int{}
		var wantWork [][2]int64
		for _, e := range sim.Events() {
			switch e.Kind {
			case obs.KindSend:
				want["flow"]++
			case obs.KindBlock:
				want["blocked on recv"]++
			case obs.KindWork:
				wantWork = append(wantWork, [2]int64{e.At, e.B})
			case obs.KindSet:
				if e.A != 0 {
					want["cs"]++
				}
			}
		}
		for _, name := range []string{"flow", "blocked on recv", "cs"} {
			if want[name] == 0 || drawn[name] != want[name] {
				t.Errorf("sim: %d %q, want %d (> 0)", drawn[name], name, want[name])
			}
		}
		if len(wantWork) == 0 || !slices.Equal(work, wantWork) {
			t.Errorf("sim: work slices (ts, dur) %v, journaled %v", work, wantWork)
		}
	}
}

// TestChromeTraceDeterministic: same seed, same bytes — the property
// the sim golden file relies on.
func TestChromeTraceDeterministic(t *testing.T) {
	if !bytes.Equal(simTrace(t), simTrace(t)) {
		t.Fatal("export is not deterministic across identical runs")
	}
}
