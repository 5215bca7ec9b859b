// Command pcbench regenerates the paper's evaluation artifacts (see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured)
// and runs the correctness harnesses no benchmark workload replaces.
// What the capture pipeline costs is measured by ./bench, not here.
//
// Usage:
//
//	pcbench                             # every table, e1..e10
//	pcbench -seed 42 e4 e6              # the named entries, in order
//	pcbench metrics                     # instrumented protocol sweep, Prometheus text
//	pcbench slice-smoke                 # also relay-smoke, chaos-smoke: seconds-long gates
//	pcbench -out BENCH_slice.json slice # record the computation-slicing sweep
//	pcbench -out BENCH_chaos.json chaos # record the 60 s crash/partition soak
//	pcbench -cpuprofile cpu.pprof e10   # profile any of the above with pprof
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"predctl/internal/expt"
)

// harness is one thing pcbench can run. The names in records write their
// JSON to -out and need it; every other name prints to stdout and
// refuses it.
type harness func(seed int64, out string) error

var tables = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}

var records = map[string]bool{"slice": true, "chaos": true}

var registry = map[string]harness{
	"metrics": func(seed int64, _ string) error {
		reg, err := expt.MetricsRegistry(seed)
		if err != nil {
			return err
		}
		return reg.WritePrometheus(os.Stdout)
	},
	"slice": func(seed int64, out string) error {
		doc, err := expt.SliceBaselineJSON(seed)
		return writeRecord(out, doc, err)
	},
	"slice-smoke": func(seed int64, _ string) error { return say(expt.SliceSmoke(seed)) },
	"relay-smoke": func(seed int64, _ string) error { return say(expt.RelaySmoke(seed)) },
	// The two soak sizes in use: the committed record and the CI slice.
	"chaos":       chaos(expt.ChaosOptions{N: 8, Duration: 60 * time.Second, MinCrashes: 100, MinPartitions: 12}),
	"chaos-smoke": chaos(expt.ChaosOptions{N: 4, Duration: 2 * time.Second, MinCrashes: 4, MinPartitions: 2}),
}

func init() {
	for _, id := range tables {
		registry[id] = func(seed int64, _ string) error { return say(expt.ByID(id, seed).String(), nil) }
	}
}

// say prints a harness's summary unless the harness failed.
func say(line string, err error) error {
	if err == nil {
		fmt.Println(line)
	}
	return err
}

func chaos(o expt.ChaosOptions) harness {
	return func(seed int64, out string) error {
		o.Seed = seed
		doc, verdict, err := expt.ChaosJSON(o)
		return writeRecord(out, doc, say("chaos soak "+verdict, err))
	}
}

// writeRecord writes what a harness measured, if it succeeded and the
// name is one that keeps a record.
func writeRecord(out string, doc []byte, err error) error {
	if err != nil || out == "" {
		return err
	}
	return say("wrote "+out, os.WriteFile(out, doc, 0o644))
}

func names[V any](of map[string]V) string {
	return strings.Join(slices.Sorted(maps.Keys(of)), " ")
}

// resolve checks a whole command line before anything runs: every name
// is registered, a record has its -out, and -out is not silently ignored
// by names that write nothing. No name means every table.
func resolve(args []string, out string) ([]harness, error) {
	if len(args) == 0 {
		args = tables
	}
	todo := make([]harness, len(args))
	for i, name := range args {
		h, ok := registry[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("unknown name %q (want one of: %s)", name, names(registry))
		case records[name] && out == "":
			return nil, fmt.Errorf("%s writes a record: give -out FILE", name)
		case out != "" && (!records[name] || len(args) > 1):
			return nil, fmt.Errorf("-out %s takes exactly one record name (one of: %s)", out, names(records))
		}
		todo[i] = h
	}
	return todo, nil
}

var (
	flags      = flag.NewFlagSet("pcbench", flag.ExitOnError)
	seed       = flags.Int64("seed", 1998, "workload seed")
	out        = flags.String("out", "", "file the slice / chaos record is written to")
	cpuprofile = flags.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile = flags.String("memprofile", "", "write a pprof heap profile at exit to this file")
)

func main() {
	flags.Usage = func() {
		fmt.Fprintf(flags.Output(), "usage: pcbench [flags] [name ...]\nnames: %s\n", names(registry))
		flags.PrintDefaults()
	}
	flags.Parse(os.Args[1:]) // ExitOnError: exits 2 itself, 0 on -h
	todo, err := resolve(flags.Args(), *out)
	code := 2 // usage error; 1 is a failed harness
	if err == nil {
		code, err = 1, execute(todo)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
		os.Exit(code)
	}
}

// execute returns a failure instead of exiting so the CPU profile is kept.
func execute(todo []harness) error {
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, run := range todo {
		if err := run(*seed, *out); err != nil {
			return err
		}
	}
	if *memprofile == "" {
		return nil
	}
	f, err := os.Create(*memprofile)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live objects
	return pprof.WriteHeapProfile(f)
}
