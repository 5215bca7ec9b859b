package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/trace"
	"predctl/internal/wire"
)

// cluster.go measures the networked runtime at scale: real in-process
// clusters over loopback TCP at n ∈ {8, 32, 64, 128} nodes flat, the
// tree sizes flat vs relayed, and a socket-free micro-benchmark of the
// coordinator's decode-and-stage ingest path, direct and relayed.
// cmd/pcbench -cluster serializes the sweep to BENCH_cluster.json.

// ClusterMeasurement is one cluster run's row. Coord* count the
// capture-stream traffic (what batching targets); Mesh* the node↔node
// protocol traffic, whose frame count is latency-bound and does not
// batch, but whose writes coalesce. Root* meter the coordinator's own
// ingest load — with a relay tree they diverge from Coord* (which sums
// every capture stream, node→relay hops included).
type ClusterMeasurement struct {
	N    int    `json:"n"`
	Mode string `json:"mode"` // "batched" | "tree" | "tree+store"
	// Relays is the aggregation-tree width (0 = flat, every node dials
	// the root directly).
	Relays int `json:"relays,omitempty"`

	WallMs float64 `json:"wallMs"`

	CoordFrames    int64   `json:"coordFrames"`
	CoordBytes     int64   `json:"coordBytes"`
	CoordBatchMean float64 `json:"coordBatchMean"` // capture items per coord frame
	MeshFrames     int64   `json:"meshFrames"`
	MeshBytes      int64   `json:"meshBytes"`
	MeshBatchMean  float64 `json:"meshBatchMean"` // frames per coalesced link write

	// RootConns counts stream handshakes the root accepted (O(relays)
	// in a tree, O(n) flat); RootFrames/RootBytes what it read off them.
	RootConns  int64 `json:"rootConns"`
	RootFrames int64 `json:"rootFrames"`
	RootBytes  int64 `json:"rootBytes"`

	// HeapHighKB is the process heap high-water (HeapInuse sampled
	// through the run, post-GC baseline subtracted) — what the store
	// rows bound by spilling staged capture to disk.
	HeapHighKB int64 `json:"heapHighKB"`
	// StoreSegments/StoreBytes describe the sealed bundle (store rows).
	StoreSegments int   `json:"storeSegments,omitempty"`
	StoreBytes    int64 `json:"storeBytes,omitempty"`
	// BundleTraceIdentical reports that reassembling the sealed bundle
	// from disk reproduced the run's trace byte-for-byte (store rows).
	BundleTraceIdentical bool `json:"bundleTraceIdentical,omitempty"`

	Requests   int `json:"requests"`
	Handoffs   int `json:"handoffs"`
	Candidates int `json:"candidates"`
	States     int `json:"states"` // captured deposet states

	InvariantsChecked  int `json:"invariantsChecked"`
	InvariantsViolated int `json:"invariantsViolated"`
}

// IngestMeasurement is the coordinator ingest micro-benchmark: capture
// items decoded and staged from batch frames, direct or relay-
// enveloped, normalized per item.
type IngestMeasurement struct {
	Mode          string  `json:"mode"`
	N             int     `json:"n"`
	Items         int     `json:"items"`
	Frames        int     `json:"frames"`
	NsPerItem     float64 `json:"nsPerItem"`
	AllocsPerItem float64 `json:"allocsPerItem"`
	BytesPerItem  float64 `json:"bytesPerItem"`
}

// ClusterBaseline is the serializable cluster sweep (BENCH_cluster.json).
type ClusterBaseline struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Note       string `json:"note"`

	Results []ClusterMeasurement `json:"results"`
	// TreeConnReduction/TreeFrameReduction map "n=<N>" to flat/tree
	// ratios of root connections and root-ingested frames — what the
	// aggregation tree takes off the coordinator.
	TreeConnReduction  map[string]float64  `json:"treeConnReduction,omitempty"`
	TreeFrameReduction map[string]float64  `json:"treeFrameReduction,omitempty"`
	Ingest             []IngestMeasurement `json:"ingest"`
}

// clusterSizes is the sweep's node counts. 128 in-process nodes means a
// 16k-link mesh in one OS process; lazy dialing keeps the live
// connection count proportional to actual protocol traffic.
var clusterSizes = []int{8, 32, 64, 128}

// treeSizes is the hierarchical-ingest sweep: each n runs flat and
// through a 2-level relay tree (width treeRelays(n)), and at the
// largest size additionally with the on-disk trace store, so one sweep
// shows the root's connection/frame cut and the RSS bound. Rounds
// shrink as n grows — the sweep measures ingest shape, not workload
// throughput, and n·rounds critical sections serialize.
var treeSizes = []int{256, 512}

// treeRelays is the tree width for a cluster of n nodes: 64-way fan-in
// per relay, at least 4.
func treeRelays(n int) int {
	r := n / 64
	if r < 4 {
		r = 4
	}
	return r
}

// treeRounds keeps the big-n rows tractable on small hosts.
func treeRounds(n int) int {
	if n >= 512 {
		return 1
	}
	return 4
}

// clusterWait is the coordinator deadline for one measured run. The
// big-n rows serialize hundreds of nodes' shimmed frame delays through
// however many cores the host has, so their tail node can legitimately
// need far longer than the flat sweep's.
func clusterWait(n int) time.Duration {
	if n >= 256 {
		return 20 * time.Minute
	}
	return 5 * time.Minute
}

// clusterDelay is the injected per-frame mesh latency: it stands in for
// the paper's message delay T and gives CheckResponsesWindow a
// non-trivial floor (a handoff grant pays at least two shimmed hops).
const clusterDelay = 200 * time.Microsecond

// clusterFlush is the bench's capture flush interval. The 2ms default
// targets view staleness; the bench widens it so the measured ratio
// reflects batch occupancy rather than near-empty interval flushes on
// a microbenchmark-sized workload.
const clusterFlush = 5 * time.Millisecond

// clusterRun parameterizes one measured run.
type clusterRun struct {
	n, rounds, relays int
	seed              int64
	store             bool
}

func (rc clusterRun) mode() string {
	switch {
	case rc.store:
		return "tree+store"
	case rc.relays > 0:
		return "tree"
	default:
		return "batched"
	}
}

// sampleHeapHigh watches HeapInuse until stop closes and reports the
// high-water mark (bytes).
func sampleHeapHigh(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > peak {
					peak = ms.HeapInuse
				}
			}
		}
	}()
	return out
}

// runClusterOnce executes one measured cluster run.
func runClusterOnce(rc clusterRun) (ClusterMeasurement, error) {
	mode := rc.mode()
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	cfg := node.ClusterConfig{
		N: rc.n, Rounds: rc.rounds, Think: 500 * time.Microsecond, CS: 200 * time.Microsecond,
		Seed: rc.seed, Faults: node.Faults{Delay: clusterDelay, Seed: rc.seed},
		Batching: node.Batching{Interval: clusterFlush},
		Relays:   rc.relays,
		Journal:  j, Reg: reg,
		WaitTimeout: clusterWait(rc.n),
	}
	var storeDir string
	if rc.store {
		dir, err := os.MkdirTemp("", "pcbench-store-*")
		if err != nil {
			return ClusterMeasurement{}, err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
		cfg.StoreDir = dir
	}

	// Heap high-water: settle to a post-GC baseline, sample through the
	// run, report the delta — the number the store rows bound.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stopSampler := make(chan struct{})
	peakCh := sampleHeapHigh(stopSampler)

	start := time.Now()
	res, err := node.RunCluster(cfg)
	wall := time.Since(start)
	close(stopSampler)
	peak := <-peakCh
	if err != nil {
		return ClusterMeasurement{}, fmt.Errorf("cluster n=%d %s: %w", rc.n, mode, err)
	}

	m := ClusterMeasurement{
		N: rc.n, Mode: mode, Relays: rc.relays,
		WallMs:         float64(wall.Nanoseconds()) / 1e6,
		CoordFrames:    reg.Counter("predctl_wire_frames_total", obs.L("stream", "coord")).Value(),
		CoordBytes:     reg.Counter("predctl_wire_bytes_total", obs.L("stream", "coord")).Value(),
		CoordBatchMean: reg.Histogram("predctl_wire_batch_size", obs.L("stream", "coord")).Mean(),
		MeshFrames:     reg.Counter("predctl_wire_frames_total", obs.L("stream", "mesh")).Value(),
		MeshBytes:      reg.Counter("predctl_wire_bytes_total", obs.L("stream", "mesh")).Value(),
		MeshBatchMean:  reg.Histogram("predctl_wire_batch_size", obs.L("stream", "mesh")).Mean(),
		RootConns:      res.RootConns,
		RootFrames:     res.RootFrames,
		RootBytes:      res.RootBytes,
		Candidates:     res.Candidates,
		States:         res.Deposet.NumStates(),
	}
	if peak > base.HeapInuse {
		m.HeapHighKB = int64(peak-base.HeapInuse) / 1024
	}
	for _, s := range res.Stats {
		m.Requests += s.Requests
		m.Handoffs += s.Handoffs
	}
	if rc.store {
		// The whole point of the bundle: it verifies, and reassembling
		// from disk reproduces the run's trace byte-for-byte.
		d, man, aerr := node.AssembleBundle(storeDir)
		if aerr != nil {
			return m, fmt.Errorf("cluster n=%d %s: bundle: %w", rc.n, mode, aerr)
		}
		m.StoreSegments = len(man.Segments)
		for _, sm := range man.Segments {
			m.StoreBytes += sm.Bytes
		}
		var live, disk bytes.Buffer
		if err := trace.Encode(&live, res.Deposet, nil); err != nil {
			return m, err
		}
		if err := trace.Encode(&disk, d, nil); err != nil {
			return m, err
		}
		m.BundleTraceIdentical = bytes.Equal(live.Bytes(), disk.Bytes())
		if !m.BundleTraceIdentical {
			return m, fmt.Errorf("cluster n=%d %s: bundle trace differs from the run's", rc.n, mode)
		}
	}

	var rep obs.Report
	rep.CheckScapegoatChainNet(j)
	rep.CheckResponsesWindow(reg.Histogram("predctl_response_handoff_ns"),
		2*clusterDelay.Nanoseconds(), (60 * time.Second).Nanoseconds(), j)
	m.InvariantsChecked = len(rep.Checked)
	m.InvariantsViolated = len(rep.Violations)
	if err := rep.Err(); err != nil {
		return m, fmt.Errorf("cluster n=%d %s: %w", rc.n, mode, err)
	}
	return m, nil
}

// ingestWorkload builds one synthetic node's capture traffic — items
// trace ops plus items/4 journal events carrying n-component vector
// clocks — encoded in 128-item batches, returning decoded-ready frame
// bodies.
func ingestWorkload(n, items int) [][]byte {
	ops := make([]wire.TraceOp, items)
	for i := range ops {
		op := wire.TraceOp{Proc: int32(n + i%4)} // runs of equal proc, like a real capture
		switch i % 3 {
		case 0:
			op.Op, op.MsgID = wire.TraceSend, uint64(n)<<40|uint64(i)
		case 1:
			op.Op, op.MsgID = wire.TraceRecv, uint64(n)<<40|uint64(i-1)
		default:
			op.Op, op.Name, op.Value = wire.TraceSet, "cs", int64(i%2)
		}
		ops[i] = op
	}
	events := make([]wire.JournalEvent, items/4)
	for i := range events {
		vc := make([]int32, n)
		vc[i%n] = int32(i)
		events[i] = wire.JournalEvent{
			At: int64(i), Proc: int32(n + i%n), Kind: 7, Name: "ctl.req", C: int64(i), VC: vc,
		}
	}
	var bodies [][]byte
	var seq uint64
	frame := func(m wire.Msg) {
		seq++
		bodies = append(bodies, wire.Marshal(seq, m)[4:])
	}
	const batch = 128
	for i := 0; i < len(ops); i += batch {
		frame(wire.TraceOpBatch{Ops: ops[i:min(i+batch, len(ops))]})
	}
	for i := 0; i < len(events); i += batch {
		frame(wire.JournalBatch{Events: events[i:min(i+batch, len(events))]})
	}
	return bodies
}

// relayWorkload re-wraps batched frame bodies into RelayBatch envelopes
// the way a relay's flusher does — several child frames coalesced per
// upstream frame — so the relayed row measures the root's
// unwrap-dedup-dispatch cost on top of the same decode-and-stage work.
func relayWorkload(bodies [][]byte) [][]byte {
	const coalesce = 8
	var out [][]byte
	var seq uint64
	for i := 0; i < len(bodies); i += coalesce {
		var frames []wire.RelayFrame
		for _, body := range bodies[i:min(i+coalesce, len(bodies))] {
			frames = append(frames, wire.RelayFrame{Origin: 0, Body: body})
		}
		seq++
		out = append(out, wire.Marshal(seq, wire.RelayBatch{Frames: frames})[4:])
	}
	return out
}

// measureIngest benchmarks the coordinator's decode-and-stage path over
// a workload, normalizing the runtime's allocation accounting per
// capture item. Modes: "batched" feeds the node framing directly;
// "relayed" feeds the same bodies re-wrapped in RelayBatch envelopes
// through the relay ingest path.
func measureIngest(n, items int, mode string) IngestMeasurement {
	bodies := ingestWorkload(n, items)
	ingest := func(j *obs.Journal) (int, error) { return node.IngestBench(n, j, bodies) }
	if mode == "relayed" {
		bodies = relayWorkload(bodies)
		ingest = func(j *obs.Journal) (int, error) { return node.IngestRelayBench(n, j, bodies) }
	}
	total := items + items/4
	j := obs.NewJournal(1 << 10)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ingest(j); err != nil {
				panic(err)
			}
		}
	})
	return IngestMeasurement{
		Mode: mode, N: n, Items: total, Frames: len(bodies),
		NsPerItem:     float64(res.NsPerOp()) / float64(total),
		AllocsPerItem: float64(res.AllocsPerOp()) / float64(total),
		BytesPerItem:  float64(res.AllocedBytesPerOp()) / float64(total),
	}
}

// clusterNote derives the sweep's description from the effective
// Batching config so it can never drift from what the runs actually
// used (the committed baseline once claimed a stale default interval).
func clusterNote() string {
	eff := node.Batching{Interval: clusterFlush}.WithDefaults()
	def := node.Batching{}.WithDefaults()
	return fmt.Sprintf("in-process clusters over loopback TCP, %v injected mesh delay; capture rides "+
		"the JournalBatch/TraceOpBatch/CandidateBatch flush policy "+
		"(≤%d items, %v bench interval vs the %v default); tree rows route capture through a "+
		"2-level relay tree (relays column) and tree+store additionally spills staged capture "+
		"to an on-disk segment store and re-assembles the trace from the sealed bundle; "+
		"coord* meters every capture stream (node→relay hops included), root* only what the "+
		"root coordinator accepted; every run must end with the scapegoat-chain and "+
		"response-window invariants green; wall times depend on the host",
		clusterDelay, eff.MaxItems, eff.Interval, def.Interval)
}

// MeasureCluster runs the full sweep: every flat size, the tree sizes
// flat vs relayed (plus the store row at the largest), then the ingest
// micro-benchmark at n = 64, direct and relayed.
func MeasureCluster(seed int64) (*ClusterBaseline, error) {
	const rounds = 16
	b := &ClusterBaseline{
		Schema:             3,
		GoVersion:          runtime.Version(),
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Seed:               seed,
		Rounds:             rounds,
		Note:               clusterNote(),
		TreeConnReduction:  map[string]float64{},
		TreeFrameReduction: map[string]float64{},
	}
	for _, n := range clusterSizes {
		m, err := runClusterOnce(clusterRun{n: n, rounds: rounds, seed: seed})
		if err != nil {
			return nil, err
		}
		b.Results = append(b.Results, m)
	}
	for _, n := range treeSizes {
		flat, err := runClusterOnce(clusterRun{n: n, rounds: treeRounds(n), seed: seed})
		if err != nil {
			return nil, err
		}
		tree, err := runClusterOnce(clusterRun{n: n, rounds: treeRounds(n), relays: treeRelays(n), seed: seed})
		if err != nil {
			return nil, err
		}
		b.Results = append(b.Results, flat, tree)
		key := fmt.Sprintf("n=%d", n)
		if tree.RootConns > 0 {
			b.TreeConnReduction[key] = float64(flat.RootConns) / float64(tree.RootConns)
		}
		if tree.RootFrames > 0 {
			b.TreeFrameReduction[key] = float64(flat.RootFrames) / float64(tree.RootFrames)
		}
		if n == treeSizes[len(treeSizes)-1] {
			st, err := runClusterOnce(clusterRun{n: n, rounds: treeRounds(n), relays: treeRelays(n), seed: seed, store: true})
			if err != nil {
				return nil, err
			}
			b.Results = append(b.Results, st)
		}
	}
	const ingestItems = 4096
	b.Ingest = []IngestMeasurement{
		measureIngest(64, ingestItems, "batched"),
		measureIngest(64, ingestItems, "relayed"),
	}
	return b, nil
}

// ClusterJSON renders the sweep as the committed BENCH_cluster.json.
func ClusterJSON(seed int64) ([]byte, error) {
	b, err := MeasureCluster(seed)
	if err != nil {
		return nil, err
	}
	doc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}
