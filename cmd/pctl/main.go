// Command pctl is the predicate-control workbench: inspect traced
// computations, detect global predicate violations, synthesize off-line
// controllers, and verify controlled replays.
//
// Usage:
//
//	pctl gen     -n 3 -events 24 -seed 7 -o trace.json
//	pctl info    trace.json
//	pctl detect  -pred pred.json trace.json
//	pctl control -pred pred.json -o controlled.json trace.json
//	pctl replay  -pred pred.json [-seed 3] controlled.json
//	pctl sgsd    -pred pred.json trace.json
//	pctl trace   -n 3 -rounds 4 -o run-chrome.json
//	pctl cluster -n 5 -drop 0.2 -delay 2ms -o run.json -pred-o pred.json
//	pctl cluster -n 32 -http 127.0.0.1:7070 -trace-o cluster-chrome.json
//	pctl cluster -n 3 -rogues 1 -live-predicate cs -on-detect reexec
//	pctl cluster -n 64 -relays 4 -store-dir run-bundle
//	pctl node    -id 0 -n 3 -addrs :7001,:7002,:7003 -coord host:7000
//	pctl top     -coord 127.0.0.1:7070 -interval 1s
//	pctl bundle  verify run-bundle
//	pctl bundle  export -o trace.json run-bundle
//
// Trace files are the JSON format of predctl's trace package; predicate
// files describe B = l1 ∨ … ∨ ln over state variables:
//
//	{"locals": [{"p":0,"var":"avail","op":"eq","value":1},
//	            {"p":1,"var":"avail","op":"eq","value":1}]}
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/kmutex"
	"predctl/internal/obs"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sim"
	"predctl/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: pctl <gen|info|detect|control|replay|sgsd|trace|cluster|node|top|bundle> [flags] [trace.json]")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "detect":
		return cmdDetect(args[1:])
	case "control":
		return cmdControl(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "sgsd":
		return cmdSGSD(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	case "node":
		return cmdNode(args[1:])
	case "top":
		return cmdTop(args[1:])
	case "bundle":
		return cmdBundle(args[1:])
	}
	return fmt.Errorf("unknown command %q", args[0])
}

func loadTrace(path string) (*deposet.Deposet, control.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return trace.Decode(f)
}

func loadPredicate(path string, d *deposet.Deposet) (*predicate.Disjunction, error) {
	if path == "" {
		return nil, errors.New("-pred is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	locals, err := trace.DecodeDisjunction(f)
	if err != nil {
		return nil, err
	}
	return predicate.VarDisjunction(d, locals)
}

func writeTrace(path string, d *deposet.Deposet, rel control.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.Encode(f, d, rel)
}

func traceArg(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", errors.New("expected exactly one trace file argument")
	}
	return fs.Arg(0), nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	n := fs.Int("n", 3, "processes")
	events := fs.Int("events", 24, "total events")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "trace.json", "output file")
	varDensity := fs.Float64("density", 0.6, "probability a state has ok=1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *n < 1:
		return fmt.Errorf("gen: -n must be at least 1, got %d", *n)
	case *events < 0:
		return fmt.Errorf("gen: -events must not be negative, got %d", *events)
	case !(*varDensity >= 0 && *varDensity <= 1):
		return fmt.Errorf("gen: -density must be in [0, 1], got %g", *varDensity)
	}
	r := rand.New(rand.NewSource(*seed))
	d := deposet.Random(r, deposet.DefaultGen(*n, *events))
	// Attach a boolean variable "ok" so generated traces are usable with
	// variable-based predicates out of the box.
	truth := deposet.RandomTruth(r, d, *varDensity)
	raw := d.Raw()
	raw.Vars = make([][]map[string]int, *n)
	for p := range raw.Vars {
		raw.Vars[p] = make([]map[string]int, d.Len(p))
		for k := range raw.Vars[p] {
			v := 0
			if truth[p][k] {
				v = 1
			}
			raw.Vars[p][k] = map[string]int{"ok": v}
		}
	}
	d2, err := deposet.FromRaw(raw)
	if err != nil {
		return err
	}
	if err := writeTrace(*out, d2, nil); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d processes, %d states, %d messages\n",
		*out, d2.NumProcs(), d2.NumStates(), len(d2.Messages()))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	lattice := fs.Bool("lattice", false, "count consistent global states (exponential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	d, rel, err := loadTrace(path)
	if err != nil {
		return err
	}
	fmt.Printf("processes:  %d\n", d.NumProcs())
	for p := 0; p < d.NumProcs(); p++ {
		fmt.Printf("  P%-3d %d states\n", p, d.Len(p))
	}
	received := 0
	for _, m := range d.Messages() {
		if m.Received() {
			received++
		}
	}
	fmt.Printf("messages:   %d (%d received, %d in flight)\n",
		len(d.Messages()), received, len(d.Messages())-received)
	fmt.Printf("variables:  %v\n", d.HasVars())
	if rel != nil {
		fmt.Printf("control:    %d edges\n", len(rel))
		for _, e := range rel {
			fmt.Printf("  %v\n", e)
		}
	}
	if *lattice {
		fmt.Printf("lattice:    %d consistent global states\n", d.CountConsistentCuts())
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	predPath := fs.String("pred", "", "predicate file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	d, _, err := loadTrace(path)
	if err != nil {
		return err
	}
	dj, err := loadPredicate(*predPath, d)
	if err != nil {
		return err
	}
	bug := dj.Negate()
	fmt.Printf("predicate B: %s\n", dj)
	if cut, ok := detect.PossiblyConjunctive(d, bug); ok {
		fmt.Printf("possibly(¬B):   yes — e.g. at %v\n", cut)
	} else {
		fmt.Println("possibly(¬B):   no — the trace satisfies B everywhere")
	}
	if ivs, ok := detect.DefinitelyConjunctive(d, bug); ok {
		fmt.Printf("definitely(¬B): yes — every interleaving hits the bug; witness %v\n", ivs)
		fmt.Println("                (B is infeasible: no controller exists)")
	} else {
		fmt.Println("definitely(¬B): no — a controller can avoid the bug")
	}
	return nil
}

func cmdControl(args []string) error {
	fs := flag.NewFlagSet("control", flag.ContinueOnError)
	predPath := fs.String("pred", "", "predicate file (required)")
	out := fs.String("o", "", "write trace + control relation here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	d, _, err := loadTrace(path)
	if err != nil {
		return err
	}
	dj, err := loadPredicate(*predPath, d)
	if err != nil {
		return err
	}
	res, err := offline.Control(d, dj, offline.Options{})
	if errors.Is(err, offline.ErrInfeasible) {
		fmt.Println("no controller exists: the predicate is infeasible for this trace")
		fmt.Printf("overlapping false-intervals: %v\n", res.Witness)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("controller found: %d control messages (%d handoffs)\n",
		len(res.Relation), res.Iterations)
	for _, e := range res.Relation {
		fmt.Printf("  %v\n", e)
	}
	if *out != "" {
		if err := writeTrace(*out, d, res.Relation); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	predPath := fs.String("pred", "", "predicate file to verify (optional)")
	seed := fs.Int64("seed", 0, "delay randomization seed")
	maxDelay := fs.Int64("maxdelay", 10, "uniform delay upper bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxDelay < 1 {
		return fmt.Errorf("replay: -maxdelay must be at least 1, got %d", *maxDelay)
	}
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	d, rel, err := loadTrace(path)
	if err != nil {
		return err
	}
	res, err := replay.Run(d, rel, replay.Config{
		Seed:  *seed,
		Delay: sim.UniformDelay(1, sim.Time(*maxDelay)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("replayed: %d events, %d messages, finished at t=%d\n",
		res.Trace.Stats.Events, res.Trace.Stats.Messages, res.Trace.Stats.End)
	if *predPath != "" {
		dj, err := loadPredicate(*predPath, d)
		if err != nil {
			return err
		}
		if cut, ok := replay.VerifyDisjunction(res, d, dj); !ok {
			return fmt.Errorf("replay: VERIFY FAILED: B violated at replayed cut %v", cut)
		}
		fmt.Println("verified: every consistent cut of the replay satisfies B")
	}
	return nil
}

func cmdSGSD(args []string) error {
	fs := flag.NewFlagSet("sgsd", flag.ContinueOnError)
	predPath := fs.String("pred", "", "predicate file (required)")
	simultaneous := fs.Bool("simultaneous", false, "allow simultaneous advances (paper semantics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := traceArg(fs)
	if err != nil {
		return err
	}
	d, _, err := loadTrace(path)
	if err != nil {
		return err
	}
	dj, err := loadPredicate(*predPath, d)
	if err != nil {
		return err
	}
	seq, stats, err := detect.SGSD(d, dj.Expr(), *simultaneous)
	if err != nil {
		return err
	}
	fmt.Printf("explored %d cuts (%d discovered)\n", stats.NodesExplored, stats.NodesQueued)
	if seq == nil {
		fmt.Println("no satisfying global sequence exists")
		return nil
	}
	fmt.Printf("satisfying global sequence (%d steps):\n", len(seq))
	for _, g := range seq {
		fmt.Printf("  %v\n", g)
	}
	return nil
}

// cmdTrace runs a fixed-seed instrumented (n−1)-mutex workload under the
// on-line anti-token controller and exports its observability artifacts:
// a human-readable timeline, Chrome trace_event JSON for
// chrome://tracing / Perfetto, a Prometheus metrics dump, and the
// paper-bound invariant checks (response window, single scapegoat
// chain).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	n := fs.Int("n", 3, "processes")
	rounds := fs.Int("rounds", 4, "critical sections per process")
	seed := fs.Int64("seed", 1998, "workload seed")
	broadcast := fs.Bool("broadcast", false, "use the broadcast handoff variant")
	out := fs.String("o", "", "write Chrome trace_event JSON here (load in chrome://tracing or Perfetto)")
	timeline := fs.Int("timeline", 30, "print the last N journal events (0 disables)")
	metrics := fs.Bool("metrics", false, "dump protocol metrics in Prometheus text format")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return errors.New("trace takes no trace-file argument: it generates its own run")
	}
	if *rounds < 1 {
		return fmt.Errorf("trace: -rounds must be at least 1, got %d", *rounds)
	}

	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	w := kmutex.Workload{
		N: *n, Rounds: *rounds, ThinkMax: 200, CS: 20, Delay: 5,
		Seed: *seed, Journal: j, Reg: reg,
	}
	_, m, err := kmutex.RunScapegoat(w, *broadcast)
	if err != nil {
		return err
	}
	fmt.Printf("run: n=%d rounds=%d seed=%d broadcast=%v — %d CS entries, %d ctl messages, end t=%d\n",
		*n, *rounds, *seed, *broadcast, m.Entries, m.CtlMessages, m.End)
	fmt.Printf("journal: %d events (%d dropped)\n", j.Len(), j.Dropped())

	if *timeline > 0 {
		fmt.Print(obs.Timeline(j, *timeline))
	}
	if *metrics {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if *out != "" {
		doc, err := obs.ClusterTrace(j, obs.ClusterTraceOptions{N: *n, PerMicro: 1})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d journal events)\n", *out, j.Len())
	}

	proto := "scapegoat"
	if *broadcast {
		proto = "scapegoat-broadcast"
	}
	var rep obs.Report
	rep.CheckResponses(reg.Histogram("predctl_response_vtime", obs.L("proto", proto)),
		int64(w.Delay), int64(w.CS), j)
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		return err
	}
	fmt.Printf("invariants ok: %d checked, 0 violated\n", len(rep.Checked))
	return nil
}
