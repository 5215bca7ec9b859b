package main

import (
	"fmt"
	"io"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full result of one invocation: what -out writes and
// -compare reads.
type report struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick"`
	Trace     bool             `json:"trace"`
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name string `json:"name"`
	// Correct is false when any op, warm-up op or series produced a wrong
	// output. An op that returned an error or ran out of time is counted
	// in Failed (WarmupFailed for a warm-up) and leaves Correct alone.
	Correct      bool `json:"correct"`
	Attempted    int  `json:"attempted"`
	Failed       int  `json:"failed"`
	WarmupFailed int  `json:"warmup_failed"`
	// Samples is the op count behind every median: the ops that
	// succeeded, or their quieter half where every op repeats one input.
	// VerdictSamples is the latency count behind detect_latency_*.
	Samples        int `json:"samples"`
	VerdictSamples int `json:"verdict_samples"`
	// OpWallAll and OpWallKept are the median op wall time over every
	// successful op and over the Samples kept: how much the trim hides.
	OpWallAll  float64  `json:"op_wall_all_s"`
	OpWallKept float64  `json:"op_wall_kept_s"`
	FailRatio  float64  `json:"fail_ratio"`
	EndToEnd   []metric `json:"end_to_end,omitempty"`
	PerLayer   []metric `json:"per_layer,omitempty"`
	Failures   []string `json:"failures,omitempty"`
}

func (rep *report) correct() bool {
	for _, w := range rep.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (rep *report) print(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "# seed %d  nproc %d  GOMAXPROCS %d  %s  kernel %s  store on tmpfs: %v\n",
		rep.Seed, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.StoreTmpfs)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "# %s: %d ops attempted, %d failed, %d warm-up ops failed, %d samples, %d verdict samples\n",
			wr.Name, wr.Attempted, wr.Failed, wr.WarmupFailed, wr.Samples, wr.VerdictSamples)
		fmt.Fprintf(w, "# %s: median op wall %.4g s over all ops, %.4g s over the samples\n", wr.Name, wr.OpWallAll, wr.OpWallKept)
		printTable(w, wr.Name, wr.EndToEnd)
		printTable(w, wr.Name, wr.PerLayer)
		printTable(w, wr.Name, []metric{{"fail_ratio", wr.FailRatio, "ratio"}})
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "# %s: FAILED: %s\n", wr.Name, f)
		}
	}
}

// printTable writes one aligned row per metric.
func printTable(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-20s %-34s %16.6g %s\n", workload, m.Name, m.Value, m.Unit)
	}
}

// contractResult is the object the driver reads off the last line.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (w workloadReport) contract(traced bool) contractResult {
	ms := w.EndToEnd
	if traced {
		ms = w.PerLayer
	}
	out := contractResult{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]contractValue{}}
	for _, m := range ms {
		out.Metrics[m.Name] = contractValue{m.Value, m.Unit}
	}
	return out
}

func (r *runner) result(opt options) workloadReport {
	wr := workloadReport{
		Name:         r.w.name,
		Correct:      r.incorrect == 0,
		Attempted:    r.ops,
		Failed:       r.failed,
		WarmupFailed: r.warmupFailed,
		Failures:     r.failures,
	}
	if r.ops > 0 {
		wr.FailRatio = float64(r.failed) / float64(r.ops)
	}
	kept := r.samples
	if r.w.repeats {
		kept = quieter(kept, func(s sample) float64 { return s.wall.Seconds() })
	}
	wr.Samples = len(kept)
	wall := func(ss []sample) float64 {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, s.wall.Seconds())
		}
		return median(xs)
	}
	wr.OpWallAll, wr.OpWallKept = wall(r.samples), wall(kept)
	var rate, commit, verdict, alloc []float64
	for _, s := range kept {
		rate = append(rate, float64(s.states)/s.wall.Seconds())
		commit = append(commit, s.commit.Seconds()*1e3)
		alloc = append(alloc, float64(s.alloc)/float64(s.states))
		for _, v := range s.verdict {
			verdict = append(verdict, v.Seconds()*1e3)
		}
	}
	wr.VerdictSamples = len(verdict)
	if opt.trace {
		wr.PerLayer = r.perLayer(median(commit) / 1e3)
		return wr
	}
	wr.EndToEnd = []metric{
		{"setup_s", median(quieter(r.setup, func(s float64) float64 { return s })), "s"},
		{"events_per_s", median(rate), "1/s"},
		{"commit_latency_ms", median(commit), "ms"},
		{"detect_latency_p50_ms", median(verdict), "ms"},
		{"detect_latency_p90_ms", tail(verdict, 0.9), "ms"},
		{"alloc_bytes_per_event", median(alloc), "B"},
	}
	return wr
}

// div is a/b, and 0 where the layer did no work in this workload.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns the tracer's spans and counts into the per-layer
// metrics. Spans named stage/… come from the stage replay, the others
// from the traced ops; a layer the workload does not use has no span
// and reads 0. commitSeconds is the ops' median commit latency.
func (r *runner) perLayer(commitSeconds float64) []metric {
	tr := r.tr
	sec, n := tr.seconds, tr.counted
	items, states := n("wire.items"), n("stage.states")
	usesStore := n("store.segments") > 0

	verify, replayBundle := sec("stage/store.Verify"), sec("stage/store.ReplayBundle")
	assemble := max(0, sec("stage/node.AssembleBundle")-verify-replayBundle)
	ingest := sec("stage/node.IngestBench") + sec("stage/node.IngestRelayBench")
	stageSum := sec("stage/wire.DecodeBody") + ingest + assemble + sec("stage/livedetect.ConfirmPrefix@100")
	if !usesStore {
		verify, replayBundle = 0, 0
	}
	stageSum += sec("stage/store.Append") + sec("stage/store.Seal") + verify + replayBundle
	// offline-cycle's stages are its op's own spans.
	for _, name := range []string{"trace.Decode", "detect.PossiblyTruth", "detect.DefinitelyTruth",
		"offline.Control", "control.Extend", "replay.Run", "replay.VerifyDisjunction"} {
		stageSum += sec(name)
	}
	overhead := 0.0
	if len(r.traced) > 0 && len(r.untraced) > 0 {
		overhead = 100 * (median(r.traced)/median(r.untraced) - 1)
	}

	ms := func(name string) float64 { return sec(name) * 1e3 }
	return []metric{
		{"node.app_phase_s", n("node.app_phase_s"), "s"},
		{"node.root_frames_per_kevent", n("node.root_frames_per_kevent"), "count"},
		{"node.root_bytes_per_event", n("node.root_bytes_per_event"), "B"},
		{"node.root_conns", n("node.root_conns"), "count"},
		{"node.coord_batch_mean", n("node.coord_batch_mean"), "count"},
		{"node.ingest_ns_per_item", div(sec("stage/node.IngestBench")*1e9, items), "ns"},
		{"node.ingest_allocs_per_item", n("node.ingest_allocs_per_item"), "count"},
		{"node.relay_ingest_ns_per_item", div(sec("stage/node.IngestRelayBench")*1e9, items), "ns"},
		{"node.assemble_ns_per_event", div(assemble*1e9, states), "ns"},
		{"node.retransmits", n("node.retransmits"), "count"},
		{"node.peak_heap_mb", n("node.peak_heap_mb"), "MB"},

		{"wire.encode_ns_per_item", div(sec("stage/wire.Marshal")*1e9, items), "ns"},
		{"wire.decode_ns_per_item", div(sec("stage/wire.DecodeBody")*1e9, items), "ns"},
		{"wire.bytes_per_event", n("wire.bytes_per_event"), "B"},

		{"store.append_mb_per_s", div(n("store.append_mb"), sec("stage/store.Append")), "MB/s"},
		{"store.seal_ms", ms("stage/store.Seal"), "ms"},
		{"store.verify_ms", verify * 1e3, "ms"},
		{"store.replay_ns_per_event", div(replayBundle*1e9, states), "ns"},
		{"store.bundle_bytes_per_event", n("store.bundle_bytes_per_event"), "B"},
		{"store.segments", n("store.segments"), "count"},

		{"livedetect.offer_ns", div(sec("stage/livedetect.Offer")*1e9, n("livedetect.offered")), "ns"},
		{"livedetect.assemble_prefix_ms", ms("stage/livedetect.AssemblePrefix@100"), "ms"},
		{"livedetect.confirm_ms", ms("stage/livedetect.ConfirmPrefix@100"), "ms"},
		{"livedetect.confirm_growth", div(sec("stage/livedetect.ConfirmPrefix@100"), sec("stage/livedetect.ConfirmPrefix@10")), "ratio"},

		{"slice.compute_ms", ms("stage/slice.Compute"), "ms"},
		{"detect.possibly_general_ms", ms("stage/detect.PossiblyGeneral"), "ms"},
		{"detect.possibly_ms", ms("detect.PossiblyTruth"), "ms"},
		{"detect.definitely_ms", ms("detect.DefinitelyTruth"), "ms"},

		{"trace.decode_ns_per_state", div(sec("trace.Decode")*1e9, n("trace.states")), "ns"},
		{"trace.encode_ns_per_state", div(n("trace.encode_s")*1e9, n("trace.states")), "ns"},
		{"trace.bytes_per_state", div(n("trace.bytes"), n("trace.states")), "B"},
		{"deposet.build_ns_per_state", div(n("deposet.build_s")*1e9, n("trace.states")), "ns"},

		{"offline.control_ms", ms("offline.Control"), "ms"},
		{"offline.edges", n("offline.edges"), "count"},
		{"control.extend_ms", ms("control.Extend"), "ms"},
		{"replay.run_ms", ms("replay.Run"), "ms"},
		{"replay.events_per_s", div(n("replay.events"), sec("replay.Run")), "1/s"},
		{"replay.verify_ms", ms("replay.VerifyDisjunction"), "ms"},

		{"bench.trace_overhead_pct", overhead, "%"},
		{"bench.stage_sum_over_commit", div(stageSum, commitSeconds), "ratio"},
		{"bench.warmup_failed", float64(r.warmupFailed), "count"},
	}
}
