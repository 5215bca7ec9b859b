// Command pcbench regenerates the paper's evaluation artifacts (see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	pcbench                                # run every experiment
//	pcbench e4 e6                          # run selected experiments
//	pcbench -seed 42                       # change the workload seed
//	pcbench -membaseline BENCH_memory.json # record the allocation baseline
//	pcbench -cluster BENCH_cluster.json    # record the networked-runtime sweep
//	                                       # (real loopback clusters, 8..128 nodes
//	                                       # flat, plus 256/512 through a 2-level
//	                                       # relay tree and an on-disk-store row)
//	pcbench -chaos BENCH_chaos.json        # 60s crash/partition soak with controlled
//	                                       # re-execution recovery; exits 1 unless every
//	                                       # run ends with zero lost capture and the
//	                                       # invariants green. -chaos-n / -chaos-duration /
//	                                       # -chaos-crashes / -chaos-partitions scale it
//	                                       # (the CI smoke job runs a seconds-long slice)
//	pcbench -obs BENCH_obs.json            # measure live-observability overhead:
//	                                       # the same loopback cluster with snapshots
//	                                       # off vs MetricsSnapshot frames + HTTP
//	                                       # introspection under a polling load.
//	                                       # -obs-n / -obs-reps scale it
//	pcbench -live BENCH_live.json          # measure the live-detection subsystem:
//	                                       # checker dark vs lit ingest overhead on a
//	                                       # violation-free cluster, plus the
//	                                       # candidate-send→confirmed-fire latency on
//	                                       # planted-violation runs. -live-n / -live-reps /
//	                                       # -live-latency-runs scale it
//	pcbench -slice BENCH_slice.json        # record the computation-slicing sweep:
//	                                       # slice vs exhaustive violation enumeration,
//	                                       # ns/op and states explored
//	pcbench -slice-smoke                   # slice-vs-exhaustive cross-validation on
//	                                       # seeded traces; exits 1 on any mismatch
//	pcbench -relay-smoke                   # hierarchical-ingest smoke: 64 nodes
//	                                       # through a 2-level relay tree with one
//	                                       # relay killed mid-run; full capture,
//	                                       # invariants, and live-verdict agreement
//	                                       # required; exits 1 on any failure
//	pcbench -compare BENCH_memory.json     # diff a fresh sweep against the file;
//	                                       # exits 1 on allocs/op or ns/op regression
//	pcbench -compare OLD.json NEW.json     # diff two recorded sweeps
//	pcbench -metrics                       # instrumented protocol sweep, Prometheus
//	                                       # text format on stdout
//	pcbench -cpuprofile cpu.pprof e10      # profile any of the above with pprof
//	pcbench -memprofile mem.pprof e2       # ... heap profile at exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"predctl/internal/expt"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
	os.Exit(1)
}

func readMemBaseline(path string) *expt.MemBaseline {
	doc, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var b expt.MemBaseline
	if err := json.Unmarshal(doc, &b); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return &b
}

func main() {
	seed := flag.Int64("seed", 1998, "workload seed")
	membaseline := flag.String("membaseline", "", "write the allocation baseline (allocs/op sweep) as JSON to this file and exit")
	cluster := flag.String("cluster", "", "write the cluster baseline (loopback TCP sweep, flat vs relay tree, plus the ingest micro-benchmark) as JSON to this file and exit")
	chaos := flag.String("chaos", "", "run the crash/partition chaos soak, write its totals as JSON to this file and exit (nonzero on any lost capture or invariant violation)")
	chaosN := flag.Int("chaos-n", 8, "chaos soak: cluster size per iteration")
	chaosDur := flag.Duration("chaos-duration", 60*time.Second, "chaos soak: minimum wall time")
	chaosCrashes := flag.Int("chaos-crashes", 100, "chaos soak: minimum crash-recovery count")
	chaosParts := flag.Int("chaos-partitions", 12, "chaos soak: minimum partition-window count")
	obsOut := flag.String("obs", "", "write the live-observability overhead measurement (snapshots+HTTP on vs off) as JSON to this file and exit")
	obsN := flag.Int("obs-n", 32, "obs bench: cluster size")
	obsReps := flag.Int("obs-reps", 8, "obs bench: repetitions per mode (median wall compared)")
	liveOut := flag.String("live", "", "write the live-detection measurement (dark-vs-lit ingest overhead + detection latency) as JSON to this file and exit")
	liveN := flag.Int("live-n", 32, "live bench: overhead cluster size")
	liveReps := flag.Int("live-reps", 16, "live bench: repetitions per mode (min wall compared)")
	liveLatRuns := flag.Int("live-latency-runs", 12, "live bench: planted-violation runs for the latency distribution")
	compare := flag.String("compare", "", "compare this baseline JSON against a fresh sweep (or a second file argument); exit 1 on regression")
	sliceOut := flag.String("slice", "", "write the computation-slicing sweep (slice vs exhaustive detection) as JSON to this file and exit")
	sliceSmoke := flag.Bool("slice-smoke", false, "cross-validate sliced detection against the exhaustive oracle on seeded traces; exit 1 on any mismatch")
	relaySmoke := flag.Bool("relay-smoke", false, "run the hierarchical-ingest smoke: a 2-level relay tree with a mid-run relay kill, gated on full capture, invariants, and live-verdict agreement; exit 1 on any failure")
	metrics := flag.Bool("metrics", false, "run the instrumented protocol sweep and dump its metrics in Prometheus text format")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	if *metrics {
		reg, err := expt.MetricsRegistry(*seed)
		if err != nil {
			fatal(err)
		}
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *sliceSmoke {
		verdict, err := expt.SliceSmoke(*seed)
		if err != nil {
			fatal(fmt.Errorf("slice smoke: %w", err))
		}
		fmt.Println(verdict)
		return
	}
	if *relaySmoke {
		verdict, err := expt.RelaySmoke(*seed)
		if err != nil {
			fatal(fmt.Errorf("relay smoke: %w", err))
		}
		fmt.Println(verdict)
		return
	}
	if *sliceOut != "" {
		doc, err := expt.SliceBaselineJSON(*seed)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*sliceOut, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *sliceOut)
		return
	}
	if *chaos != "" {
		doc, verdict, err := expt.ChaosJSON(expt.ChaosOptions{
			Seed: *seed, N: *chaosN, Duration: *chaosDur,
			MinCrashes: *chaosCrashes, MinPartitions: *chaosParts,
		})
		if err != nil {
			fatal(fmt.Errorf("chaos soak: %w", err))
		}
		if err := os.WriteFile(*chaos, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("chaos soak %s\n", verdict)
		fmt.Printf("wrote %s\n", *chaos)
		return
	}
	if *obsOut != "" {
		doc, err := expt.ObsJSON(expt.ObsOptions{Seed: *seed, N: *obsN, Reps: *obsReps})
		if err != nil {
			fatal(fmt.Errorf("obs bench: %w", err))
		}
		if err := os.WriteFile(*obsOut, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *obsOut)
		return
	}
	if *liveOut != "" {
		doc, err := expt.LiveJSON(expt.LiveOptions{
			Seed: *seed, N: *liveN, Reps: *liveReps, LatencyRuns: *liveLatRuns,
		})
		if err != nil {
			fatal(fmt.Errorf("live bench: %w", err))
		}
		if err := os.WriteFile(*liveOut, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *liveOut)
		return
	}
	if *cluster != "" {
		doc, err := expt.ClusterJSON(*seed)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*cluster, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *cluster)
		return
	}
	if *membaseline != "" {
		doc, err := expt.MemoryJSON(*seed)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*membaseline, doc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *membaseline)
		return
	}
	if *compare != "" {
		old := readMemBaseline(*compare)
		var cur *expt.MemBaseline
		if rest := flag.Args(); len(rest) > 0 {
			cur = readMemBaseline(rest[0])
		} else {
			cur = expt.MeasureMemory(*seed)
		}
		report, err := expt.CompareMem(old, cur)
		fmt.Print(report)
		if err != nil {
			fatal(err)
		}
		fmt.Println("no regression")
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		for _, t := range expt.All(*seed) {
			fmt.Println(t)
		}
		return
	}
	for _, id := range ids {
		t := expt.ByID(id, *seed)
		if t == nil {
			fmt.Fprintf(os.Stderr, "pcbench: unknown experiment %q (want e1..e10)\n", id)
			os.Exit(1)
		}
		fmt.Println(t)
	}
}
