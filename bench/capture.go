package main

import (
	"bytes"
	"os"
	"runtime"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/trace"
)

// capture is the three capture-* workloads: one zero-think cluster run
// per op, differing only in topology, staging backend and whether the
// live checker is lit.
type capture struct {
	n, rounds int
	seed      int64
	deadline  time.Duration // RunCluster's WaitTimeout
	relays    int
	store     bool
	live      bool
}

func (c *capture) config() node.ClusterConfig {
	cfg := node.ClusterConfig{
		N: c.n, Rounds: c.rounds, Seed: c.seed, Relays: c.relays,
		// The ring keeps the newest 64k events by design; commit latency
		// needs only the last one. The journal-replaying invariant
		// checkers would see a truncated history and are not run here.
		Journal:     obs.NewJournal(0),
		WaitTimeout: c.deadline,
	}
	if c.live {
		cfg.Live = node.LiveConfig{Predicate: node.CSMutexPredicate(c.n), OnDetect: node.OnDetectNote}
	}
	return cfg
}

// lastNodeEvent is the At of the newest journal event a node created
// (coordinator annotations carry Proc -1), relative to the run start.
func lastNodeEvent(j *obs.Journal) time.Duration {
	var last int64
	for _, e := range j.Events() {
		if e.Proc >= 0 && e.At > last {
			last = e.At
		}
	}
	return time.Duration(last)
}

// checkRun is the part of the output check every cluster op shares.
func checkRun(res *node.Result, n, rounds, minStates int) error {
	if res.Restarts != 0 || res.Epoch != 0 {
		return checkf("fault-free run restarted: restarts=%d epoch=%d", res.Restarts, res.Epoch)
	}
	if want := n * rounds; res.Candidates != want {
		return checkf("%d candidates, want %d", res.Candidates, want)
	}
	if got := res.Deposet.NumStates(); got < minStates {
		return checkf("%d states captured, want at least %d", got, minStates)
	}
	return nil
}

func requests(res *node.Result) int {
	total := 0
	for _, s := range res.Stats {
		total += s.Requests
	}
	return total
}

// heapPeak samples HeapInuse every 25ms until stop closes. All n nodes
// share the process with the root, so this is not the root's heap.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
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
				peak = max(peak, ms.HeapInuse)
			}
		}
	}()
	return out
}

// runCluster is one RunCluster call under a span, with the registry,
// heap sampler and boundary counts only a traced op carries.
func runCluster(cfg node.ClusterConfig, tr *tracer) (*node.Result, error) {
	var stop chan struct{}
	var peak <-chan uint64
	if tr != nil {
		cfg.Reg = obs.NewRegistry()
		stop = make(chan struct{})
		peak = heapPeak(stop)
	}
	var res *node.Result
	var err error
	tr.span("node.RunCluster", func() { res, err = node.RunCluster(cfg) })
	if tr != nil {
		close(stop)
		tr.count("node.peak_heap_mb", float64(<-peak)/(1<<20))
	}
	if err != nil || tr == nil {
		return res, err
	}
	states := float64(res.Deposet.NumStates())
	coord := obs.L("stream", "coord")
	tr.count("node.app_phase_s", lastNodeEvent(cfg.Journal).Seconds())
	tr.count("node.root_frames_per_kevent", 1e3*float64(res.RootFrames)/states)
	tr.count("node.root_bytes_per_event", float64(res.RootBytes)/states)
	tr.count("node.root_conns", float64(res.RootConns))
	tr.count("node.coord_batch_mean", cfg.Reg.Histogram("predctl_wire_batch_size", coord).Mean())
	tr.count("node.retransmits", float64(
		cfg.Reg.Counter("predctl_wire_retransmits_total", coord).Value()+
			cfg.Reg.Counter("predctl_wire_retransmits_total", obs.L("stream", "mesh")).Value()))
	return res, nil
}

func (c *capture) op(_ int, tr *tracer) (sample, error) {
	cfg := c.config()
	if c.store {
		dir, err := storeTemp()
		if err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(dir)
		cfg.StoreDir = dir
	}
	alloc0, start := allocated(), time.Now()
	res, err := runCluster(cfg, tr)
	if err != nil {
		return sample{}, err
	}
	var disk *deposet.Deposet
	if c.store {
		// What a user of the bundle does next: AssembleBundle verifies
		// every segment, then reassembles the final-epoch trace.
		tr.span("node.AssembleBundle", func() { disk, _, err = node.AssembleBundle(cfg.StoreDir) })
		if err != nil {
			return sample{}, err
		}
	}
	wall := time.Since(start)
	s := sample{wall: wall, states: res.Deposet.NumStates(), alloc: allocated() - alloc0}
	// RunCluster anchors event timestamps a few listener binds after
	// start, so this overstates commit latency by well under a millisecond.
	s.commit = wall - lastNodeEvent(cfg.Journal)

	// With the checker lit the verdict arrives with the commit. Dark,
	// the cheapest route to a verdict is offline detection on the
	// result, so that pass is the rest of the verdict latency there and
	// the reference the live verdict is checked against here.
	detectStart := time.Now()
	var possible bool
	tr.span("detect.PossiblyGeneral", func() {
		_, possible = detect.PossiblyGeneral(res.Deposet, predicate.Not(node.CSMutexPredicate(c.n)))
	})
	s.verdict = []time.Duration{s.commit}
	if !c.live {
		s.verdict[0] += time.Since(detectStart)
	}

	// A controlled round is 8 states: 5 at the app, 3 at its controller.
	if err := checkRun(res, c.n, c.rounds, 8*c.n*c.rounds); err != nil {
		return s, err
	}
	if got, want := requests(res), c.n*c.rounds; got != want {
		return s, checkf("%d requests granted, want %d", got, want)
	}
	if possible {
		return s, checkf("possibly(¬B) holds on a violation-free (n−1)-mutex run")
	}
	if c.live && res.LiveFired != possible {
		return s, checkf("live verdict %v, offline verdict %v", res.LiveFired, possible)
	}
	if c.store {
		if err := sameTrace(res.Deposet, disk); err != nil {
			return s, err
		}
	}
	return s, nil
}

// sameTrace requires the trace reassembled from disk to encode to the
// bytes the run's own trace encodes to.
func sameTrace(run, disk *deposet.Deposet) error {
	var a, b bytes.Buffer
	diskErr := make(chan error, 1)
	go func() { diskErr <- trace.Encode(&b, disk, nil) }()
	if err := trace.Encode(&a, run, nil); err != nil {
		return err
	}
	if err := <-diskErr; err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return checkf("bundle trace differs from the run's (%d vs %d bytes)", b.Len(), a.Len())
	}
	return nil
}

func (c *capture) verify([]sample) error { return nil }

// liveLoop is the planted-violation loop: each op is one short run with
// a rogue node, and its sample is the latency from the witness
// candidate leaving the node to the coordinator's confirmed detection.
type liveLoop struct {
	seed int64
}

func (l *liveLoop) config(i int) node.ClusterConfig {
	return node.ClusterConfig{
		N: liveLoopN, Rounds: liveLoopRounds, Think: time.Millisecond, CS: time.Millisecond,
		Seed: l.seed + 7919*int64(i), Rogues: []int{1},
		Batching:    node.Batching{SnapshotEvery: -1},
		Journal:     obs.NewJournal(0),
		Live:        node.LiveConfig{Predicate: node.CSMutexPredicate(liveLoopN), OnDetect: node.OnDetectNote},
		WaitTimeout: liveDeadline,
	}
}

func (l *liveLoop) op(i int, tr *tracer) (sample, error) {
	cfg := l.config(i)
	alloc0, start := allocated(), time.Now()
	res, err := runCluster(cfg, tr)
	if err != nil {
		return sample{}, err
	}
	wall := time.Since(start)
	s := sample{wall: wall, states: res.Deposet.NumStates(), alloc: allocated() - alloc0}
	s.commit = wall - lastNodeEvent(cfg.Journal)

	// The rogue's rounds are 2 states each: it skips the protocol.
	if err := checkRun(res, liveLoopN, liveLoopRounds, (8*(liveLoopN-1)+2)*liveLoopRounds); err != nil {
		return s, err
	}
	_, possible := detect.PossiblyGeneral(res.Deposet, predicate.Not(node.CSMutexPredicate(liveLoopN)))
	if res.LiveFired != possible {
		return s, checkf("live verdict %v, offline verdict %v", res.LiveFired, possible)
	}
	// Join the first mid-run detection to the journal twin of the
	// candidate that completed its witness, as internal/expt/live.go
	// does. A run whose rogue never overlapped everyone, or did so only
	// on its last candidates, has no mid-run sample; verify bounds how
	// many such runs a series may hold.
	for _, det := range res.Detections {
		if det.Final {
			continue
		}
		for _, ev := range cfg.Journal.Events() {
			if ev.Name == obs.EvCandidate && ev.Proc == det.Node && ev.B == det.WitnessHiIdx {
				s.verdict = []time.Duration{time.Duration(det.AtNs - ev.At)}
				return s, nil
			}
		}
		return s, checkf("detection at node %d (state %d) has no candidate event in the journal",
			det.Node, det.WitnessHiIdx)
	}
	return s, nil
}

// verify fails a series in which fewer than nine runs in ten were
// detected mid-run: streaming detection that only ever fires in the
// closing pass would otherwise pass every per-op check.
func (l *liveLoop) verify(samples []sample) error {
	detected := 0
	for _, s := range samples {
		detected += len(s.verdict)
	}
	if len(samples) >= 2*tailSamples && detected*10 < len(samples)*9 {
		return checkf("only %d of %d runs were detected mid-run", detected, len(samples))
	}
	if detected == 0 {
		return checkf("no run was detected mid-run")
	}
	return nil
}
