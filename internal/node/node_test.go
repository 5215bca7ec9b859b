package node

import (
	"bytes"
	"testing"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sim"
	"predctl/internal/trace"
)

func runTestCluster(t *testing.T, cfg ClusterConfig) (*Result, *obs.Journal, *obs.Registry) {
	t.Helper()
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	cfg.Journal = j
	cfg.Reg = reg
	cfg.Logf = t.Logf
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return res, j, reg
}

// checkControlled asserts the captured trace upholds the controlled
// property: no consistent cut has every application in its critical
// section (¬B = ∧ᵢ csᵢ must be impossible).
func checkControlled(t *testing.T, d *deposet.Deposet, n int) {
	t.Helper()
	dj, ok := predicate.AsDisjunction(CSMutexPredicate(n), d.NumProcs())
	if !ok {
		t.Fatalf("%v is not a disjunction", CSMutexPredicate(n))
	}
	if cut, ok := detect.PossiblyConjunctive(d, dj.Negate()); ok {
		t.Fatalf("captured trace violates B: all processes in CS at cut %v", cut)
	}
}

func TestClusterNoFaults(t *testing.T) {
	const n, rounds = 3, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: testTimeouts(),
	})
	d := res.Deposet
	if d.NumProcs() != 2*n {
		t.Fatalf("captured %d processes, want %d", d.NumProcs(), 2*n)
	}
	totalReq := 0
	for i, s := range res.Stats {
		if s.Requests != rounds {
			t.Errorf("node %d made %d requests, want %d", i, s.Requests, rounds)
		}
		totalReq += s.Requests
	}
	if res.Candidates != n*rounds {
		t.Errorf("%d candidate reports, want %d", res.Candidates, n*rounds)
	}
	checkControlled(t, d, n)

	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Every handoff recorded by a releasing controller has its matching
	// acquisition in the merged journal.
	handoffs := 0
	for _, s := range res.Stats {
		handoffs += s.Handoffs
	}
	if got := int(obs.ChainLength(j)); got != handoffs {
		t.Errorf("journal records %d acquisitions, stats %d handoffs", got, handoffs)
	}
	if handoffs == 0 && totalReq > 0 {
		t.Error("no handoffs at all: the anti-token never moved")
	}
}

// TestClusterFaults is the headline robustness test: drops, duplicates
// and delays on every protocol link, and the run must still complete
// with the controlled property, the chain invariant, and the paper's
// response window intact.
func TestClusterFaults(t *testing.T) {
	const n, rounds = 3, 3
	const delay = 2 * time.Millisecond
	res, j, reg := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Seed: 7, Timeouts: testTimeouts(),
		Faults: Faults{Drop: 0.25, Dup: 0.25, Delay: delay, Jitter: time.Millisecond, Seed: 7},
	})
	checkControlled(t, res.Deposet, n)

	// The chain, and every grant that required an anti-token handoff
	// paying two shimmed network hops: response ≥ 2×Delay.
	var rep obs.Report
	rep.CheckNetRun(j, reg, delay)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Checked) != 2 {
		t.Fatalf("expected 2 invariants checked, got %d", len(rep.Checked))
	}
	// Without an injected delay there is no window to hold responses to.
	var bare obs.Report
	bare.CheckNetRun(j, reg, 0)
	if len(bare.Checked) != 1 {
		t.Fatalf("expected the chain check alone without a delay, got %v", bare.Checked)
	}
}

func TestClusterBroadcast(t *testing.T) {
	const n, rounds = 3, 2
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Broadcast: true, Seed: 3, Timeouts: testTimeouts(),
		Faults: Faults{Drop: 0.15, Delay: time.Millisecond, Seed: 11},
	})
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTraceReplay closes the loop the ISSUE promises: a captured
// networked run, round-tripped through the trace file format, replays
// on the sim kernel and every consistent cut of the replay satisfies B.
func TestClusterTraceReplay(t *testing.T) {
	const n, rounds = 3, 2
	res, _, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Seed: 2024, Timeouts: testTimeouts(),
		Faults: Faults{Drop: 0.2, Delay: time.Millisecond, Seed: 5},
	})

	// Round-trip through the pctl file format.
	var buf bytes.Buffer
	if err := trace.Encode(&buf, res.Deposet, nil); err != nil {
		t.Fatalf("encode: %v", err)
	}
	d, _, err := trace.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	rr, err := replay.Run(d, nil, replay.Config{Seed: 3, Delay: sim.UniformDelay(1, 5)})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	dj, ok := predicate.AsDisjunction(CSMutexPredicate(n), d.NumProcs())
	if !ok {
		t.Fatalf("%v is not a disjunction", CSMutexPredicate(n))
	}
	if cut, ok := replay.VerifyDisjunction(rr, d, dj); !ok {
		t.Fatalf("replayed run violates B at cut %v", cut)
	}
}
