package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const contractPath = "../BENCHMARK.json"

// inTempDir runs the test from a scratch directory, so the store
// directories the ops create land there and not in the package.
func inTempDir(t *testing.T) {
	t.Helper()
	abs, err := filepath.Abs(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	// -compare and the contract tests read the contract by relative path.
	buf, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// knownDefect reports whether a workload's failed ops are the relay
// tree's cold-start defect README.md records: a run that errors or
// times out, never one that returns a wrong trace. The harness counted
// and printed it, which is its whole job; the fix belongs to the
// program.
func knownDefect(t *testing.T, w workloadReport) bool {
	t.Helper()
	if w.Name != "capture-tree-store" || !w.Correct {
		return false
	}
	t.Logf("%s: %d of %d ops failed without a wrong output (known relay-tree defect, see README.md): %v",
		w.Name, w.Failed, w.Attempted, w.Failures)
	return true
}

func metricValue(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	m := find(ms, name)
	if m == nil {
		t.Fatalf("metric %s not reported", name)
	}
	return m.Value
}

// TestQuick keeps the harness and every output check live in tier-1:
// all five workloads at 1/50 size, untraced then traced, must come out
// correct, name exactly the metrics the contract lists, and show each
// workload leaving the layers it bypasses at zero.
func TestQuick(t *testing.T) {
	inTempDir(t)
	var c contractFile
	if err := readJSON("BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("contract workload %d is %q, the benchmark's is %q", i, c.Workloads[i].Name, w.name)
		}
	}

	rep, err := runAll(workloads, options{seed: 1998, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workloads {
		if !w.Correct || w.Attempted == 0 || w.Failed != 0 && !knownDefect(t, w) {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if len(w.EndToEnd) != len(c.EndToEnd) {
			t.Fatalf("%s reports %d end-to-end metrics, the contract lists %d", w.Name, len(w.EndToEnd), len(c.EndToEnd))
		}
		for i, def := range c.EndToEnd {
			m := w.EndToEnd[i]
			if m.Name != def.Name || m.Unit != def.Unit {
				t.Errorf("%s: end-to-end metric %d is %s [%s], the contract says %s [%s]", w.Name, i, m.Name, m.Unit, def.Name, def.Unit)
			}
			if m.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.Name, m.Name, m.Value)
			}
		}
	}

	traced, err := runAll(workloads, options{seed: 1998, quick: true, trace: true, traceOut: "trace.json"})
	if err != nil {
		t.Fatal(err)
	}
	zero := map[string][]string{
		"capture-flat":  {"store.", "livedetect.", "offline.", "replay.", "trace.", "node.relay_ingest"},
		"offline-cycle": {"node.", "wire.", "store.", "livedetect.", "slice."},
	}
	busy := map[string][]string{
		"capture-flat":       {"node.ingest_ns_per_item", "node.assemble_ns_per_event", "wire.decode_ns_per_item"},
		"capture-tree-store": {"node.relay_ingest_ns_per_item", "store.append_mb_per_s", "store.verify_ms", "store.segments"},
		"capture-live":       {"livedetect.offer_ns", "livedetect.confirm_ms", "livedetect.confirm_growth", "slice.compute_ms"},
		"live-loop":          {"livedetect.offer_ns", "node.app_phase_s"},
		"offline-cycle":      {"trace.decode_ns_per_state", "offline.control_ms", "offline.edges", "replay.events_per_s"},
	}
	for _, w := range traced.Workloads {
		if !w.Correct {
			t.Errorf("%s traced: %v", w.Name, w.Failures)
		}
		if w.Failed != 0 {
			if !knownDefect(t, w) {
				t.Errorf("%s traced: %d ops failed: %v", w.Name, w.Failed, w.Failures)
			}
			continue // its layer numbers are incomplete
		}
		if len(w.PerLayer) != len(c.PerLayer) {
			t.Fatalf("%s reports %d per-layer metrics, the contract lists %d", w.Name, len(w.PerLayer), len(c.PerLayer))
		}
		for i, def := range c.PerLayer {
			if m := w.PerLayer[i]; m.Name != def.Name || m.Unit != def.Unit {
				t.Errorf("%s: per-layer metric %d is %s [%s], the contract says %s [%s]", w.Name, i, m.Name, m.Unit, def.Name, def.Unit)
			}
		}
		for _, m := range w.PerLayer {
			for _, prefix := range zero[w.Name] {
				if strings.HasPrefix(m.Name, prefix) && m.Value != 0 {
					t.Errorf("%s bypasses %s yet reports %s = %g", w.Name, prefix, m.Name, m.Value)
				}
			}
		}
		for _, name := range busy[w.Name] {
			if metricValue(t, w.PerLayer, name) <= 0 {
				t.Errorf("%s exercises %s yet reports 0", w.Name, name)
			}
		}
		buf, err := os.ReadFile(w.Name + ".trace.json")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := readJSON(w.Name+".trace.json", &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace of %d bytes does not load: %v", w.Name, len(buf), err)
		}
	}
}

// TestOfflineInputsRepeat: the same seed must give a byte-identical
// trace and the same control relation size, or offline.edges is no
// count a later change could be held to.
func TestOfflineInputsRepeat(t *testing.T) {
	var edges []int
	var encoded [][]byte
	for i := 0; i < 2; i++ {
		o, err := newOffline(7, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.op(0, nil); err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, o.encoded)
		edges = append(edges, o.edges[0])
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Error("one seed produced two different traces")
	}
	if edges[0] != edges[1] || edges[0] == 0 {
		t.Errorf("offline.edges = %v, want two equal non-zero counts", edges)
	}
	other, err := newOffline(8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.encoded, encoded[0]) {
		t.Error("two seeds produced the same trace")
	}
}

// TestStageReplay: the recorded bundle, re-encoded and pushed through
// the root's ingest path, must stage exactly the ops the capture
// reported, on both framings. stageReplay makes those comparisons
// itself and fails on a mismatch; here it has to pass and leave the
// spans and counts the per-layer metrics are computed from.
func TestStageReplay(t *testing.T) {
	inTempDir(t)
	for _, c := range []*capture{
		{n: 4, rounds: 40, seed: 3, deadline: warmDeadline},
		{n: 4, rounds: 40, seed: 3, deadline: warmDeadline, relays: 2, store: true},
		{n: 4, rounds: 40, seed: 3, deadline: warmDeadline, live: true},
	} {
		tr := newTracer()
		if err := c.layers(tr); err != nil {
			t.Fatalf("%+v: %v", *c, err)
		}
		ingest := "stage/node.IngestBench"
		if c.relays > 0 {
			ingest = "stage/node.IngestRelayBench"
		}
		if tr.seconds(ingest) <= 0 || tr.counted("wire.items") <= 0 {
			t.Errorf("%+v: no ingest stage recorded", *c)
		}
		// 8 states a round and node, plus one initial state per process.
		if got, want := tr.counted("stage.states"), float64(8*c.n*c.rounds+2*c.n); got < want {
			t.Errorf("%+v: replayed %g states, want at least %g", *c, got, want)
		}
		if c.store != (tr.counted("store.segments") > 0) {
			t.Errorf("%+v: store stages ran = %v", *c, !c.store)
		}
		if c.live != (tr.seconds("stage/livedetect.ConfirmPrefix@100") > 0) {
			t.Errorf("%+v: live stages ran = %v", *c, !c.live)
		}
	}
}

// failing is an instance whose op always fails its check.
type failing struct{}

func (failing) op(int, *tracer) (sample, error) { return sample{}, checkf("one candidate too many") }
func (failing) layers(*tracer) error            { return nil }
func (failing) verify([]sample) error           { return nil }

// errored is an instance whose op never completes.
type errored struct{ failing }

func (errored) op(int, *tracer) (sample, error) { return sample{}, errors.New("coordinator timed out") }

// TestFailedCheckFailsTheRun: a failed check is a failed op, and a
// failed op makes the report incorrect (main then exits non-zero).
func TestFailedCheckFailsTheRun(t *testing.T) {
	r := &runner{w: &workload{name: "broken", deadline: liveDeadline}, inst: failing{}}
	r.step(false)
	wr := r.result(options{})
	if wr.Correct || wr.Failed != 1 || wr.Attempted != 1 || wr.FailRatio != 1 {
		t.Errorf("failed op reported as correct=%v failed=%d attempted=%d ratio=%g", wr.Correct, wr.Failed, wr.Attempted, wr.FailRatio)
	}
	if (&report{Workloads: []workloadReport{wr}}).correct() {
		t.Error("report with a wrong output counts as correct")
	}
	// An op that errors without a wrong output fails without making the
	// run incorrect: the known relay-tree wedges are reported that way.
	r = &runner{w: &workload{name: "wedged", deadline: liveDeadline}, inst: errored{}}
	r.step(false)
	if wr := r.result(options{}); !wr.Correct || wr.Failed != 1 {
		t.Errorf("errored op reported as correct=%v failed=%d", wr.Correct, wr.Failed)
	}

	// The real check, broken the way the issue suggests.
	c := &capture{n: 4, rounds: 10, seed: 1, deadline: warmDeadline}
	res, err := runCluster(c.config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRun(res, c.n, c.rounds, 8*c.n*c.rounds); err != nil {
		t.Fatal(err)
	}
	if err := checkRun(res, c.n, c.rounds+1, 0); err == nil {
		t.Error("checkRun accepted a run one round of candidates short")
	}
}

// TestCompare: identical reports pass the gate; a 20% loss on one
// metric of one workload fails it and is named.
func TestCompare(t *testing.T) {
	var c contractFile
	if err := readJSON(contractPath, &c); err != nil {
		t.Fatal(err)
	}
	base := func() *report {
		rep := &report{}
		for _, w := range workloads {
			wr := workloadReport{Name: w.name}
			for _, def := range c.EndToEnd {
				wr.EndToEnd = append(wr.EndToEnd, metric{Name: def.Name, Value: 100, Unit: "x"})
			}
			rep.Workloads = append(rep.Workloads, wr)
		}
		return rep
	}
	if !compareReports(io.Discard, c, base(), base()) {
		t.Error("identical reports fail the gate")
	}
	for _, def := range c.EndToEnd {
		if def.Bound >= 0.2 {
			continue // a 20% move is inside this metric's bound
		}
		worse := base()
		m := find(worse.Workloads[1].EndToEnd, def.Name)
		if def.Better == "higher" {
			m.Value = 80
		} else {
			m.Value = 120
		}
		var out bytes.Buffer
		if compareReports(&out, c, base(), worse) {
			t.Errorf("a 20%% regression of %s passes the gate", def.Name)
		}
		want := "REGRESSION " + workloads[1].name
		if !strings.Contains(out.String(), want) || !strings.Contains(out.String(), def.Name) {
			t.Errorf("gate output does not name %s × %s:\n%s", def.Name, workloads[1].name, out.String())
		}
		better := base()
		m = find(better.Workloads[1].EndToEnd, def.Name)
		if def.Better == "higher" {
			m.Value = 120
		} else {
			m.Value = 80
		}
		if !compareReports(io.Discard, c, base(), better) {
			t.Errorf("a 20%% gain of %s fails the gate", def.Name)
		}
	}
	failing := base()
	failing.Workloads[0].FailRatio = 0.1
	if compareReports(io.Discard, c, base(), failing) {
		t.Error("a risen fail_ratio passes the gate")
	}
}

// TestQuieter: the faster half is kept, the middle op with it, and a
// burst that doubles the time of fewer than half the ops moves nothing.
func TestQuieter(t *testing.T) {
	id := func(x float64) float64 { return x }
	calm := []float64{1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.15}
	burst := []float64{1.0, 2.2, 0.9, 2.4, 1.05, 0.95, 1.15}
	if got := quieter(calm, id); len(got) != 4 || got[3] != 1.05 {
		t.Errorf("quieter half of %v = %v, want the four fastest", calm, got)
	}
	if a, b := median(quieter(calm, id)), median(quieter(burst, id)); a != b {
		t.Errorf("a burst over 2 of 7 ops moved the quieter half's median from %g to %g", a, b)
	}
	if got := quieter([]float64{3}, id); len(got) != 1 {
		t.Errorf("quieter half of one op = %v", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.9); got != 180 {
		t.Errorf("p90 of 1..200 = %g, want 180", got)
	}
	// Five samples support no tail percentile: the median stands in.
	if got := tail(xs[:5], 0.9); got != 3 {
		t.Errorf("tail of 5 samples = %g, want their median 3", got)
	}
	// Fifty samples have ten beyond p80 at the most.
	if got := tail(xs[:50], 0.9); got != 40 {
		t.Errorf("tail of 50 samples = %g, want p80 = 40", got)
	}
}
