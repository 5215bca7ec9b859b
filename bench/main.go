// Command bench is the repository's benchmark: five workloads over
// capture, live detection and offline control, each op checked, with a
// traced mode that replays a recorded root stream one layer at a time.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory defines every metric.
//
//	go run ./bench -seed 1998                       every workload, end-to-end metrics
//	go run ./bench -workload capture-flat -trace 1  one workload, per-layer metrics
//	go run ./bench -quick                           seconds-long smoke run
//	go run ./bench -compare a.json b.json           gate b against a with the recorded bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// quickDiv scales every input down for -quick; each workload's quickOps
// replaces the time budget there.
const quickDiv = 50

type options struct {
	seed     int64
	seconds  float64
	quick    bool
	trace    bool
	traceOut string
}

func main() {
	var opt options
	var name, out string
	var trace int
	var compare bool
	flag.StringVar(&name, "workload", "", "run only this workload (default: all, reps interleaved)")
	flag.Int64Var(&opt.seed, "seed", 1998, "seed of every generator and of ClusterConfig.Seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measuring time per workload")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1, write the spans here as Chrome trace_event JSON")
	flag.StringVar(&out, "out", "", "write the full report here as JSON, the input of -compare")
	flag.BoolVar(&opt.quick, "quick", false, "inputs ÷ 50 and two ops per workload: a smoke run, not a measurement")
	flag.BoolVar(&compare, "compare", false, "compare two reports: bench -compare old.json new.json")
	flag.Parse()
	opt.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{*w}
	}
	rep, err := runAll(selected, opt)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := writeFile(out, append(buf, '\n')); err != nil {
			fatal(err)
		}
	}
	// The last line is the machine-read result: one object per run when
	// a single workload was asked for.
	for _, w := range rep.Workloads {
		line, err := json.Marshal(w.contract(opt.trace))
		if err != nil {
			fatal(err)
		}
		if name == "" {
			fmt.Printf("%s ", w.Name)
		}
		fmt.Printf("%s\n", line)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// writeFile writes a report or trace, creating its directory: the
// README points both at the git-ignored .bench_out/.
func writeFile(path string, buf []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runner is one workload's state across the interleaved loop.
type runner struct {
	w    *workload
	inst instance
	tr   *tracer

	setup        []float64
	warmupFailed int
	samples      []sample
	// untraced and traced hold op walls by mode; with tracing off every
	// op is untraced.
	untraced, traced []float64
	failed           int
	incorrect        int // failed ops and checks whose output was wrong
	failures         []string
	ops              int // ops attempted; the next op's index
	spent            time.Duration
	stopped          bool
}

// fail prints and books one failure. A wrong output makes the run
// incorrect; an op that returned an error or ran out of time is a
// failed op of a correct run.
func (r *runner) fail(err error, what string) {
	msg := fmt.Sprintf("%s: %v", what, err)
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.w.name, msg)
	r.failures = append(r.failures, msg)
	var wrong *checkError
	if errors.As(err, &wrong) {
		r.incorrect++
	}
}

// runAll sets every workload up, then runs their ops round-robin so
// host drift lands on all of them alike, then the stage replays.
func runAll(selected []workload, opt options) (*report, error) {
	div := 1
	if opt.quick {
		div = quickDiv
	}
	defer os.Remove(tmpRoot) // succeeds only if the ops left it empty

	runners := make([]*runner, len(selected))
	for i := range selected {
		r := &runner{w: &selected[i]}
		if opt.trace {
			r.tr = newTracer()
		}
		if err := r.setUp(opt.seed, div); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", r.w.name, err)
		}
		runners[i] = r
	}

	for busy := true; busy; {
		busy = false
		for _, r := range runners {
			if r.done(opt) {
				continue
			}
			busy = true
			// In a traced run ops alternate untraced, traced, so both
			// medians come from the same minutes of the same process.
			r.step(opt.trace && r.ops%2 == 1)
		}
	}

	rep := &report{Schema: 1, Seed: opt.seed, Quick: opt.quick, Trace: opt.trace, Host: fingerprint(".")}
	for _, r := range runners {
		if opt.trace && !r.stopped {
			var err error
			r.tr.nextOp()
			r.tr.span("stage-replay", func() { err = r.inst.layers(r.tr) })
			if err != nil {
				r.fail(err, "stage replay")
				r.failed++
				r.ops++
			}
		}
		if err := r.inst.verify(r.samples); err != nil {
			r.fail(err, "series")
		}
		rep.Workloads = append(rep.Workloads, r.result(opt))
		if opt.trace && opt.traceOut != "" {
			path := opt.traceOut
			if len(runners) > 1 {
				// One file per workload: name.<file> beside the named one.
				path = filepath.Join(filepath.Dir(path), r.w.name+"."+filepath.Base(path))
			}
			if err := r.tr.writeChrome(path); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// setUp builds the inputs and runs the checked warm-up ops, setUps
// times over so setup_s is a median, keeping the last full-size inputs.
// Warm-up runs at reduced size: it is there to fill pools and page in
// code, and a full-size op per set-up would be most of the run.
func (r *runner) setUp(seed int64, div int) error {
	for i := 0; i < setUps; i++ {
		start := time.Now()
		inst, err := r.w.prepare(seed, div)
		if err != nil {
			return err
		}
		warm, err := r.w.prepare(seed, div*r.w.warmDiv)
		if err != nil {
			return err
		}
		for k := 0; k < r.w.warmOps; k++ {
			// Negative indices keep warm-up inputs apart from timed ones.
			// A failed warm-up is reported and the run goes on: the
			// cold-start defects README.md lists land here, and hiding
			// them behind a retry or an abort would both be wrong.
			_, err := withDeadline(warmDeadline+10*time.Second, func() error {
				_, err := warm.op(-1-k-i*r.w.warmOps, nil)
				return err
			})
			if err != nil {
				r.warmupFailed++
				r.fail(err, "warm-up")
			}
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		r.inst = inst
	}
	return nil
}

func (r *runner) done(opt options) bool {
	if r.stopped {
		return true
	}
	if opt.quick {
		return r.ops >= r.w.quickOps
	}
	return r.spent.Seconds() >= opt.seconds
}

// step runs one op under its deadline and books it.
func (r *runner) step(traced bool) {
	begin := time.Now()
	defer func() { r.spent += time.Since(begin) }()
	var tr *tracer
	if traced {
		tr = r.tr
		tr.nextOp()
	}
	i := r.ops
	r.ops++

	runtime.GC()
	var s sample
	timedOut, err := withDeadline(r.w.deadline+10*time.Second, func() error {
		var err error
		// The root span: its self time is what the harness and its checks
		// cost beside the calls into the program.
		tr.span("op", func() { s, err = r.inst.op(i, tr) })
		return err
	})
	if timedOut {
		// The op may still be running; nothing measured beside it would
		// mean anything, so the workload ends here.
		r.stopped = true
	}
	if err != nil {
		r.failed++
		r.fail(err, fmt.Sprintf("op %d", i))
		return
	}
	r.samples = append(r.samples, s)
	if traced {
		r.traced = append(r.traced, s.wall.Seconds())
	} else {
		r.untraced = append(r.untraced, s.wall.Seconds())
	}
}
