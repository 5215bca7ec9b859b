package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"

	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/slice"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// The stage replay gives each layer its own number from outside the
// program: record one run's root stream by spilling it to the trace
// store, read the sealed bundle back, and push the recorded frames
// through one layer at a time — wire, root ingest, a fresh store,
// bundle assembly, the live checker at growing prefixes, slice and
// detect — each call under its own span. What it cannot see is in
// README.md: hops inside RunCluster, and anything that depends on the
// frames arriving concurrently.

// record is one frame of the recorded root stream.
type record struct {
	origin int32
	seq    uint64
	msg    wire.Msg
	body   []byte
}

// stagePlan says which layers the workload's own op exercises; the
// others are left out of its replay so their metrics read 0.
type stagePlan struct {
	relayed bool // root ingest is the relayed path
	store   bool // the op stages through the store
	live    bool // the op runs the live checker
}

// coalesce is how many child frames one RelayBatch carries in the
// replay, the figure internal/expt's relayed ingest bench uses.
const coalesce = 8

func stageReplay(tr *tracer, cfg node.ClusterConfig, plan stagePlan) error {
	dir, err := storeTemp()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.StoreDir = dir
	cfg.Live = node.LiveConfig{}
	res, err := node.RunCluster(cfg)
	if err != nil {
		return fmt.Errorf("recording run: %w", err)
	}
	n := cfg.N
	states := float64(res.Deposet.NumStates())

	// Read the stream back. Only final-epoch records were ever live.
	var recs []record
	var man *store.Manifest
	tr.span("stage/store.ReplayBundle", func() {
		man, err = store.ReplayBundle(dir, func(rec wire.SegmentRecord, seq uint64, m wire.Msg) error {
			recs = append(recs, record{origin: rec.Origin, seq: seq, msg: m, body: rec.Body})
			return nil
		})
	})
	if err != nil {
		return err
	}
	items, ops, stateOps := 0, 0, 0
	var bundleBytes int64
	for _, sm := range man.Segments {
		bundleBytes += sm.Bytes
	}
	byProc := make([][]wire.TraceOp, 2*n)
	var journal []wire.JournalEvent
	for _, r := range recs {
		switch v := r.msg.(type) {
		case wire.TraceOpBatch:
			items += len(v.Ops)
			ops += len(v.Ops)
			for _, op := range v.Ops {
				if op.Op != wire.TraceInit && op.Op != wire.TraceLet {
					stateOps++
				}
				byProc[op.Proc] = append(byProc[op.Proc], op)
			}
		case wire.JournalBatch:
			items += len(v.Events)
			journal = append(journal, v.Events...)
		default:
			return fmt.Errorf("recorded stream holds a %T", r.msg)
		}
	}
	// Every process starts in one state and every op but Init/Let adds one.
	if got := stateOps + 2*n; got != res.Deposet.NumStates() {
		return checkf("bundle holds %d states, the run captured %d", got, res.Deposet.NumStates())
	}

	// wire: re-encode every recorded message, then decode every body.
	bodies := make([][]byte, len(recs))
	var wireBytes int
	tr.span("stage/wire.Marshal", func() {
		for i, r := range recs {
			bodies[i] = wire.Marshal(r.seq, r.msg)[4:]
		}
	})
	for i, r := range recs {
		if !bytes.Equal(bodies[i], r.body) {
			return checkf("frame %d of origin %d re-encodes to different bytes", r.seq, r.origin)
		}
		wireBytes += len(r.body)
	}
	tr.span("stage/wire.DecodeBody", func() {
		for _, b := range bodies {
			if _, _, derr := wire.DecodeBody(b); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return err
	}
	tr.count("wire.items", float64(items))
	tr.count("wire.bytes_per_event", float64(wireBytes)/states)

	// node: the root's decode-and-stage path over the same frames.
	ingest, ingestSpan := node.IngestBench, "stage/node.IngestBench"
	if plan.relayed {
		ingest, ingestSpan = node.IngestRelayBench, "stage/node.IngestRelayBench"
		bodies = relayWrap(recs)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var staged int
	tr.span(ingestSpan, func() { staged, err = ingest(n, obs.NewJournal(0), bodies) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if staged != ops {
		return checkf("%s staged %d ops, the capture holds %d", ingestSpan, staged, ops)
	}
	tr.count("node.ingest_allocs_per_item", float64(m1.Mallocs-m0.Mallocs)/float64(items))

	// store: the recorded bodies into a fresh store, sealed and verified.
	if plan.store {
		fresh, err := storeTemp()
		if err != nil {
			return err
		}
		defer os.RemoveAll(fresh)
		st, err := store.Open(store.Config{Dir: fresh})
		if err != nil {
			return err
		}
		defer st.Close()
		tr.span("stage/store.Append", func() {
			for _, r := range recs {
				if aerr := st.Append(r.origin, man.Epoch, r.body); aerr != nil {
					err = aerr
				}
			}
		})
		if err != nil {
			return err
		}
		tr.span("stage/store.Seal", func() { err = st.Seal(n, man.Epoch) })
		if err != nil {
			return err
		}
		segments, _ := st.Stats()
		tr.count("store.segments", float64(segments))
		tr.count("store.append_mb", float64(wireBytes)/1e6)
		tr.count("store.bundle_bytes_per_event", float64(bundleBytes)/states)
	}

	// node: bundle assembly. Verify and ReplayBundle run inside
	// AssembleBundle; timing them alone lets its self time be taken.
	tr.span("stage/store.Verify", func() { _, err = store.Verify(dir) })
	if err != nil {
		return err
	}
	tr.span("stage/node.AssembleBundle", func() { _, _, err = node.AssembleBundle(dir) })
	if err != nil {
		return err
	}
	tr.count("stage.states", states)

	violation := predicate.Not(node.CSMutexPredicate(n))
	if plan.live {
		if err := liveStages(tr, n, byProc, journal, violation); err != nil {
			return err
		}
	}

	// slice and detect on the captured computation.
	if tab, ok := predicate.RegularTable(violation, res.Deposet); ok {
		tr.span("stage/slice.Compute", func() { slice.Compute(res.Deposet, tab) })
	}
	tr.span("stage/detect.PossiblyGeneral", func() { detect.PossiblyGeneral(res.Deposet, violation) })
	return nil
}

// relayWrap packs the recorded frames into RelayBatch envelopes the way
// a relay's flusher forwards them: bodies verbatim, origin attached.
func relayWrap(recs []record) [][]byte {
	var out [][]byte
	var seq uint64
	for i := 0; i < len(recs); i += coalesce {
		var frames []wire.RelayFrame
		for _, r := range recs[i:min(i+coalesce, len(recs))] {
			frames = append(frames, wire.RelayFrame{Origin: r.origin, Body: r.body})
		}
		seq++
		out = append(out, wire.Marshal(seq, wire.RelayBatch{Frames: frames})[4:])
	}
	return out
}

// liveStages drives the live checker's two halves over the recording:
// the streaming stage over every candidate, and the prefix confirmation
// at 10%, 50% and 100% of each process's recorded ops.
func liveStages(tr *tracer, n int, byProc [][]wire.TraceOp, journal []wire.JournalEvent, violation predicate.Expr) error {
	// Candidates are consumed at ingest, not staged, so the bundle does
	// not hold them. Each is rebuilt from its journal twin: state
	// indices and Hi are exact; Lo is Hi with the node's own component
	// one tick earlier, exact unless the node's controller ticked during
	// the critical section.
	var ivs []livedetect.Interval
	for _, e := range journal {
		if e.Name != obs.EvCandidate || int(e.Proc) >= n || len(e.VC) != n {
			continue
		}
		lo := append([]int32(nil), e.VC...)
		lo[e.Proc]--
		ivs = append(ivs, livedetect.Interval{Proc: int(e.Proc), LoIdx: e.A, HiIdx: e.B, Lo: lo, Hi: e.VC})
	}
	if len(ivs) == 0 {
		return fmt.Errorf("recorded journal holds no candidate events")
	}
	chk := livedetect.New(n)
	tr.span("stage/livedetect.Offer", func() {
		for _, iv := range ivs {
			chk.Offer(0, iv)
		}
	})
	offered, _, _ := chk.Stats()
	tr.count("livedetect.offered", float64(offered))

	for _, pct := range []int{10, 50, 100} {
		prefix := make([][]wire.TraceOp, len(byProc))
		for p, ops := range byProc {
			prefix[p] = ops[:len(ops)*pct/100]
		}
		var err error
		tr.span(fmt.Sprintf("stage/livedetect.AssemblePrefix@%d", pct), func() {
			_, _, err = livedetect.AssemblePrefix(n, prefix)
		})
		if err != nil {
			return err
		}
		tr.span(fmt.Sprintf("stage/livedetect.ConfirmPrefix@%d", pct), func() {
			_, _, err = livedetect.ConfirmPrefix(n, prefix, violation)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *capture) layers(tr *tracer) error {
	return stageReplay(tr, c.config(), stagePlan{relayed: c.relays > 0, store: c.store, live: c.live})
}

func (l *liveLoop) layers(tr *tracer) error {
	return stageReplay(tr, l.config(0), stagePlan{live: true})
}
