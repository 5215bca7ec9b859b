package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"predctl/internal/node"
	"predctl/internal/obs"
)

// chaos.go is the chaos soak: seeded crash/partition schedules against
// real in-process clusters, repeated until both a wall-clock budget and
// minimum injection counts are met. Every iteration must complete with
// zero lost capture and the paper-bound invariants green — a crash is
// recovered by the coordinator's §8 controlled re-execution, so the
// final trace of a chaotic run carries exactly the event counts of a
// fault-free one, and the soak asserts precisely that, run after run.
// `pcbench chaos` serializes the totals to BENCH_chaos.json; `pcbench
// chaos-smoke`, the CI job, runs a seconds-long slice of the same loop.

// ChaosOptions sizes a soak; cmd/pcbench holds the two values in use.
type ChaosOptions struct {
	Seed int64
	// N is the cluster size per iteration.
	N int
	// Duration is the minimum soak wall time; iterations repeat until it
	// has elapsed AND the minimums below are met.
	Duration time.Duration
	// MinCrashes is the minimum number of crash-rejoin recoveries
	// (coordinator-ordered restarts) the soak must accumulate.
	MinCrashes int
	// MinPartitions is the minimum number of partition windows; the
	// schedule alternates mesh and coordinator-stream windows, so about
	// half of these sever capture streams.
	MinPartitions int
}

// chaosRounds is the per-iteration workload length: short enough that a
// run completes between injected crashes (a controlled re-execution
// restarts the whole workload, so a workload longer than the crash
// spacing would never finish), long enough to move the anti-token.
const chaosRounds = 4

// chaosDelay is the injected mesh latency, the floor under the
// response-window invariant (a handoff grant pays two shimmed hops).
const chaosDelay = 200 * time.Microsecond

// ChaosBaseline is the serializable soak outcome (BENCH_chaos.json).
type ChaosBaseline struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	N          int    `json:"n"`
	Rounds     int    `json:"rounds"`
	Note       string `json:"note"`

	WallS      float64 `json:"wallS"`
	Iterations int     `json:"iterations"`

	// CrashesScheduled counts injected kills; Restarts the controlled
	// re-executions the coordinator ordered in response (a kill landing
	// in a run's final teardown instants may not need one).
	CrashesScheduled int `json:"crashesScheduled"`
	Restarts         int `json:"restarts"`
	// Partitions counts injected windows; CoordPartitions the subset
	// severing coordinator capture streams.
	Partitions      int `json:"partitions"`
	CoordPartitions int `json:"coordPartitions"`
	MaxEpoch        int `json:"maxEpoch"` // deepest re-execution any iteration needed

	// LostCaptureEvents is the shortfall between fault-free and captured
	// app-process event counts, summed over all iterations. Zero or the
	// soak failed.
	LostCaptureEvents  int `json:"lostCaptureEvents"`
	InvariantsChecked  int `json:"invariantsChecked"`
	InvariantsViolated int `json:"invariantsViolated"`

	Verdict string `json:"verdict"`
}

// chaosTimeouts keeps recovery snappy at soak scale without making the
// race window artificial: real RTO-driven retransmission, partition
// probing at 25ms, and a coordinator redial deadline that outlasts any
// scheduled window by orders of magnitude.
func chaosTimeouts() node.Timeouts {
	return node.Timeouts{
		RTO: 5 * time.Millisecond, IdleTimeout: 25 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		CoordDeadline: 15 * time.Second,
	}
}

// chaosSchedule derives iteration it's crash and partition schedule
// from the soak seed: three kills in the run's first ~16ms and one
// partition window, alternating a mesh split (one node cut off from
// the rest) with a coordinator-stream sever.
func chaosSchedule(rng *rand.Rand, it, n int) ([]node.Crash, []node.Partition) {
	crashes := make([]node.Crash, 3)
	for i := range crashes {
		crashes[i] = node.Crash{
			At:   4*time.Millisecond + time.Duration(rng.Int63n(int64(12*time.Millisecond))),
			Node: rng.Intn(n),
			Down: time.Duration(rng.Int63n(int64(4 * time.Millisecond))),
		}
	}
	p := node.Partition{
		Start: 6*time.Millisecond + time.Duration(rng.Int63n(int64(8*time.Millisecond))),
		Dur:   8 * time.Millisecond,
		A:     []int{rng.Intn(n)},
	}
	if it%2 == 1 {
		// Coordinator-stream sever: B == A makes the mesh clause vacuous,
		// so only the capture stream is cut (the harder recovery path —
		// buffered frames must ride the session-resume replay).
		p.B = p.A
		p.Coord = true
	}
	return crashes, []node.Partition{p}
}

// chaosIteration runs one seeded chaotic cluster and verifies it: the
// run completes, the capture carries the fault-free event counts, and
// the scapegoat-chain and response-window invariants hold.
func chaosIteration(rng *rand.Rand, it int, o ChaosOptions, b *ChaosBaseline) error {
	crashes, parts := chaosSchedule(rng, it, o.N)
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	res, err := node.RunCluster(node.ClusterConfig{
		N: o.N, Rounds: chaosRounds, Think: 2 * time.Millisecond, CS: 500 * time.Microsecond,
		Seed:     o.Seed + int64(it),
		Faults:   node.Faults{Drop: 0.05, Delay: chaosDelay, Seed: o.Seed + int64(it), Partitions: parts},
		Crashes:  crashes,
		Timeouts: chaosTimeouts(),
		Batching: node.Batching{},
		Journal:  j, Reg: reg,
		WaitTimeout: time.Minute,
	})
	if err != nil {
		return fmt.Errorf("iteration %d: %w", it, err)
	}

	b.CrashesScheduled += len(crashes)
	b.Restarts += res.Restarts
	b.Partitions += len(parts)
	for _, p := range parts {
		if p.Coord {
			b.CoordPartitions++
		}
	}
	if int(res.Epoch) > b.MaxEpoch {
		b.MaxEpoch = int(res.Epoch)
	}

	// Zero lost capture: the final epoch must carry exactly what a
	// fault-free run would — app traces are deterministic (init plus
	// five ops per round), and every node reports every round.
	wantApp := 1 + 5*chaosRounds
	for p := 0; p < o.N; p++ {
		if got := res.Deposet.Len(p); got != wantApp {
			b.LostCaptureEvents += wantApp - got
		}
	}
	for i, s := range res.Stats {
		if s.Requests != chaosRounds {
			return fmt.Errorf("iteration %d: node %d reports %d/%d requests", it, i, s.Requests, chaosRounds)
		}
	}
	if res.Candidates != o.N*chaosRounds {
		return fmt.Errorf("iteration %d: %d candidates, want %d", it, res.Candidates, o.N*chaosRounds)
	}

	var rep obs.Report
	rep.CheckNetRun(j, reg, chaosDelay)
	b.InvariantsChecked += len(rep.Checked)
	b.InvariantsViolated += len(rep.Violations)
	if err := rep.Err(); err != nil {
		return fmt.Errorf("iteration %d: %w", it, err)
	}
	return nil
}

// measureChaos runs the soak until o.Duration has elapsed and the
// crash/partition minimums are met. Any lost capture or invariant
// violation fails the whole soak.
func measureChaos(o ChaosOptions) (*ChaosBaseline, error) {
	b := &ChaosBaseline{
		Schema:     1,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       o.Seed,
		N:          o.N,
		Rounds:     chaosRounds,
		Note: "seeded chaos soak over in-process loopback clusters: per iteration, 3 node kills " +
			"(relaunch + rejoin + coordinator-ordered §8 controlled re-execution) and one partition " +
			"window (alternating mesh split / coordinator-stream sever), on top of 5% frame drop and " +
			"200µs injected delay; every iteration must complete with zero lost capture events (the " +
			"final epoch equals a fault-free run) and the scapegoat-chain and response-window " +
			"invariants green; wall time depends on the host",
	}
	rng := rand.New(rand.NewSource(o.Seed))
	begin := time.Now()
	for it := 0; ; it++ {
		if time.Since(begin) >= o.Duration &&
			b.Restarts >= o.MinCrashes && b.Partitions >= o.MinPartitions {
			break
		}
		if err := chaosIteration(rng, it, o, b); err != nil {
			b.Verdict = fmt.Sprintf("FAILED: %v", err)
			return b, err
		}
		b.Iterations++
	}
	b.WallS = time.Since(begin).Seconds()
	if b.LostCaptureEvents > 0 {
		b.Verdict = fmt.Sprintf("FAILED: %d capture events lost", b.LostCaptureEvents)
		return b, fmt.Errorf("chaos soak lost %d capture events", b.LostCaptureEvents)
	}
	b.Verdict = fmt.Sprintf("invariants ok: %d checked, 0 violated across %d iterations "+
		"(%d restarts from %d scheduled crashes, %d partitions of which %d coordinator-stream)",
		b.InvariantsChecked, b.Iterations, b.Restarts, b.CrashesScheduled, b.Partitions, b.CoordPartitions)
	return b, nil
}

// ChaosJSON renders a soak as the committed BENCH_chaos.json.
func ChaosJSON(o ChaosOptions) ([]byte, string, error) {
	b, err := measureChaos(o)
	if err != nil {
		return nil, b.Verdict, err
	}
	doc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, b.Verdict, err
	}
	return append(doc, '\n'), b.Verdict, nil
}
