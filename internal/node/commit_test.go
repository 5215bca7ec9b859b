package node

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// commit_test.go pins the commit path: whichever route a capture takes
// to its deposet — Wait's own strict assembly from RAM staging, dark or
// with the live checker taking its closing verdict on that same
// deposet, or AssembleBundle reading the sealed bundle back — the trace
// is the same bytes, and a committed run assembles its capture exactly
// once.

func commitAssemblies(reg *obs.Registry) int64 {
	return reg.Counter("predctl_coord_commit_assemblies_total").Value()
}

func TestCommitPathEquivalence(t *testing.T) {
	const n = 3
	withReg := func(reg *obs.Registry) func(*CoordConfig) {
		return func(c *CoordConfig) { c.Reg = reg }
	}
	// The scripted apps enter their critical sections concurrently, so
	// with the checker lit the closing verdict also confirms a detection
	// and computes a strategy on the deposet Wait assembled.
	lit := func(c *CoordConfig) {
		c.Live = LiveConfig{Predicate: CSMutexPredicate(n), OnDetect: OnDetectNote}
	}
	bundle := func(dir string) []byte {
		d, man, err := AssembleBundle(dir)
		if err != nil {
			t.Fatalf("AssembleBundle: %v", err)
		}
		if man.N != n {
			t.Fatalf("bundle manifest n=%d, want %d", man.N, n)
		}
		return encodeTrace(t, &Result{Deposet: d})
	}

	flatReg := obs.NewRegistry()
	flat, jFlat := runScripted(t, n, false, false, "", withReg(flatReg))
	want := encodeTrace(t, flat)

	treeDir, treeReg := t.TempDir(), obs.NewRegistry()
	tree, _ := runScripted(t, n, true, false, treeDir, withReg(treeReg))

	liveReg := obs.NewRegistry()
	live, jLive := runScripted(t, n, false, false, "", withReg(liveReg), lit)

	liveDir, liveTreeReg := t.TempDir(), obs.NewRegistry()
	liveTree, _ := runScripted(t, n, true, false, liveDir, withReg(liveTreeReg), lit)

	for name, got := range map[string][]byte{
		"tree+store Wait":        encodeTrace(t, tree),
		"tree+store bundle":      bundle(treeDir),
		"live Wait":              encodeTrace(t, live),
		"live tree+store Wait":   encodeTrace(t, liveTree),
		"live tree+store bundle": bundle(liveDir),
	} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s: trace differs from the flat run's", name)
		}
	}
	for name, reg := range map[string]*obs.Registry{
		"flat": flatReg, "tree+store": treeReg, "live": liveReg, "live tree+store": liveTreeReg,
	} {
		if got := commitAssemblies(reg); got != 1 {
			t.Errorf("%s: %d whole-capture assemblies on the commit path, want 1", name, got)
		}
	}
	if !live.LiveFired || len(live.Detections) != 1 || !live.Detections[0].Final {
		t.Errorf("lit scripted run: fired=%v detections=%+v, want one closing-verdict detection",
			live.LiveFired, live.Detections)
	}
	// The merged journal is the flat run's plus the detection's annotation.
	var events []obs.Event
	for _, e := range jLive.Events() {
		if e.Name != obs.EvDetect {
			e.Seq = uint64(len(events))
			events = append(events, e)
		}
	}
	if !reflect.DeepEqual(events, jFlat.Events()) {
		t.Error("lit run's journal differs from the flat run's beyond the detection annotation")
	}
}

// TestLiveRunAssemblesOnce is the same claim on real clusters: with the
// checker lit on a violation-free run, Wait's assembly is the only one
// on the commit path — the closing verdict is taken on the deposet Wait
// returns — and that deposet is what the sealed bundle reassembles to.
func TestLiveRunAssemblesOnce(t *testing.T) {
	const n, rounds = 4, 3
	for _, relays := range []int{0, 2} {
		dir := t.TempDir()
		res, _, reg := runTestCluster(t, ClusterConfig{
			N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
			Seed: 1998, Timeouts: testTimeouts(), Relays: relays, StoreDir: dir,
			Live: LiveConfig{Predicate: CSMutexPredicate(n), OnDetect: OnDetectNote},
		})
		checkFullCapture(t, res, n, rounds)
		if res.LiveFired {
			t.Fatalf("relays=%d: live checker fired on a controlled run", relays)
		}
		if got := commitAssemblies(reg); got != 1 {
			t.Errorf("relays=%d: %d whole-capture assemblies on the commit path, want 1", relays, got)
		}
		disk, _, err := AssembleBundle(dir)
		if err != nil {
			t.Fatalf("relays=%d: AssembleBundle: %v", relays, err)
		}
		if !bytes.Equal(encodeTrace(t, res), encodeTrace(t, &Result{Deposet: disk})) {
			t.Errorf("relays=%d: Wait's trace differs from the bundle's", relays)
		}
	}
}

// TestAssembleErrors pins the strict mode's messages as callers of the
// node package see them.
func TestAssembleErrors(t *testing.T) {
	for _, tc := range []struct {
		ops  [][]wire.TraceOp
		want string
	}{
		{[][]wire.TraceOp{{{Op: wire.TraceRecv, MsgID: 99}}, {}},
			"node: assemble: process 0 wedged at op 0 (recv of unknown message 0x63)"},
		{[][]wire.TraceOp{{{Op: wire.TraceSend, MsgID: 5}, {Op: wire.TraceSend, MsgID: 5}}, {}},
			"node: assemble: duplicate trace id 0x5"},
		{[][]wire.TraceOp{{{Op: 99}}, {}},
			"node: assemble: unknown trace op 99"},
		{[][]wire.TraceOp{{}},
			"node: assemble: 1 op streams for 2 processes"},
	} {
		if _, err := assemble(1, tc.ops); err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

// TestOutOfRangeProcDropped pins the one behaviour an op naming a
// process outside the run gets — dropped and counted at staging — on
// the live ingest path and on the bundle path alike.
func TestOutOfRangeProcDropped(t *testing.T) {
	frame := wire.TraceOpBatch{Ops: []wire.TraceOp{
		{Op: wire.TraceStep, Proc: 0},
		{Op: wire.TraceStep, Proc: 2}, // n=1: processes 0 and 1 only
		{Op: wire.TraceStep, Proc: -1},
		{Op: wire.TraceStep, Proc: 1},
		{Op: wire.TraceStep, Proc: 1},
	}}
	var ops procOps
	stageFrame(1, frame, &ops, nil)
	if ops.staged != 3 || ops.dropped != 2 || len(ops.byProc[0]) != 1 || len(ops.byProc[1]) != 2 {
		t.Fatalf("staged %d dropped %d streams %d/%d, want 3, 2, 1/2",
			ops.staged, ops.dropped, len(ops.byProc[0]), len(ops.byProc[1]))
	}

	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(0, 0, wire.Marshal(1, frame)[4:]); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(1, 0); err != nil {
		t.Fatal(err)
	}
	st.Close()
	d, _, err := AssembleBundle(dir)
	if err != nil {
		t.Fatalf("AssembleBundle: %v", err)
	}
	if d.Len(0) != 2 || d.Len(1) != 3 {
		t.Fatalf("bundle assembled %d/%d states, want 2/3", d.Len(0), d.Len(1))
	}
}

// synthCapture is an n-node capture of about ops trace ops in the shape
// the mutex workload produces: every round each app asks its controller
// (request, grant), toggles cs and releases — eight states a round, as
// in a real capture — and every handoffEvery rounds a controller passes
// a token to its ring neighbour, so the sweep crosses node streams too.
func synthCapture(n, ops int) [][]wire.TraceOp {
	const perNodeRound, handoffEvery = 8, 16
	streams := make([][]wire.TraceOp, 2*n)
	minted := make([]uint64, 2*n)
	send := func(p int) uint64 {
		minted[p]++
		id := uint64(p)<<40 | minted[p]
		streams[p] = append(streams[p], wire.TraceOp{Op: wire.TraceSend, Proc: int32(p), MsgID: id})
		return id
	}
	recv := func(p int, id uint64) {
		streams[p] = append(streams[p], wire.TraceOp{Op: wire.TraceRecv, Proc: int32(p), MsgID: id})
	}
	for i := 0; i < n; i++ {
		streams[i] = append(streams[i], wire.TraceOp{Op: wire.TraceInit, Proc: int32(i), Name: "cs"})
	}
	for round := 0; round*perNodeRound*n < ops; round++ {
		for i := 0; i < n; i++ {
			app, ctl := i, n+i
			recv(ctl, send(app))
			recv(app, send(ctl))
			streams[app] = append(streams[app],
				wire.TraceOp{Op: wire.TraceSet, Proc: int32(app), Name: "cs", Value: 1},
				wire.TraceOp{Op: wire.TraceSet, Proc: int32(app), Name: "cs", Value: 0})
			recv(ctl, send(app))
			if round%handoffEvery == 0 {
				recv(n+(i+1)%n, send(ctl))
			}
		}
	}
	return streams
}

// BenchmarkAssemble times the strict assembly of a 256k-op, n=8
// capture: the single-threaded tail of Wait and of AssembleBundle.
func BenchmarkAssemble(b *testing.B) {
	const n = 8
	streams := synthCapture(n, 256_000)
	ops := 0
	for _, s := range streams {
		ops += len(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := assemble(n, streams)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && d.NumStates() < ops*3/4 {
			b.Fatalf("%d states from %d ops", d.NumStates(), ops)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/traceop")
}

// TestAssembleAllocBound keeps the assembly allocation-light: objects
// allocated grow with the number of processes, with slices doubling and
// with the send map's tables (one per ~thousand sends), never with the
// number of ops — a map per state, a map entry per send grown one at a
// time or a snapshot per update would each blow the bound by two orders
// of magnitude.
func TestAssembleAllocBound(t *testing.T) {
	const n = 4
	allocs := func(ops int) float64 {
		streams := synthCapture(n, ops)
		return testing.AllocsPerRun(3, func() {
			if _, err := assemble(n, streams); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("assemble allocates %.0f objects at 2k ops, %.0f at 20k", small, large)
	if limit := float64(40*2*n + 64); large > limit {
		t.Errorf("assembling 20k ops allocates %.0f objects, want at most %.0f", large, limit)
	}
	if large > small+64 {
		t.Errorf("allocations grew from %.0f to %.0f objects with 10x the ops", small, large)
	}
}

// TestAssembleChunkedAllocBound is TestAssembleAllocBound's twin for
// an assembler fed the way the epoch's is, while the run runs: 20k ops
// in 200 slices, then a strict finish and one build. The builder's
// tables and the send map regrow as the slices come, but a table that
// must grow at least doubles, so the objects allocated grow with the
// doublings — a handful per table — and never with the slices.
func TestAssembleChunkedAllocBound(t *testing.T) {
	if raceEnabled {
		// Instrumented, a slice's growth allocates about twice over;
		// make bench-mem runs this bound without the detector.
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 4
	streams := synthCapture(n, 20_000)
	allocs := func(chunks int) float64 {
		parts := make([][][]wire.TraceOp, chunks)
		for k := range parts {
			parts[k] = make([][]wire.TraceOp, 2*n)
			for p, s := range streams {
				parts[k][p] = s[:len(s)*(k+1)/chunks]
			}
		}
		return testing.AllocsPerRun(3, func() {
			a := livedetect.NewAssembler(n)
			for k, part := range parts {
				if err := a.Feed(part, k == chunks-1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	whole, twenty, chunked := allocs(1), allocs(20), allocs(200)
	t.Logf("20k ops allocate %.0f objects in one slice, %.0f in 20, %.0f in 200", whole, twenty, chunked)
	// Each process's send, receive and clock-anchor tables, each app's
	// snapshot row, and the message table, clock rows, snapshot values
	// and flags and the send map, doubling log2(200) times at most.
	tables := 3*2*n + n + 5
	if limit := whole + float64(tables*8); chunked > limit {
		t.Errorf("feeding 20k ops in 200 slices allocates %.0f objects, want at most %.0f", chunked, limit)
	}
	if chunked > twenty+float64(tables*7/2) {
		t.Errorf("allocations grew from %.0f to %.0f objects with 10x the slices", twenty, chunked)
	}
}

// TestMergeJournalIsStableSort checks the journal merge — the streams
// sorted, then appended with the annotations merged in — against the
// definition: a stable sort by time of the concatenation of the streams
// and the annotations, on streams with ties across and within them,
// events out of time order inside a stream, and annotations out of
// order among themselves and at the streams' times, where they must
// follow the stream events of their time.
func TestMergeJournalIsStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for round := 0; round < 200; round++ {
		streams := make([][]obs.Event, 1+r.Intn(6))
		var want []obs.Event
		for s := range streams {
			at := int64(0)
			for i := r.Intn(40); i > 0; i-- {
				at += int64(r.Intn(3)) - int64(r.Intn(8)/7) // mostly rising, ties, a few steps back
				streams[s] = append(streams[s], obs.Event{At: at, Proc: s, A: int64(len(streams[s]))})
			}
			want = append(want, streams[s]...)
		}
		annots := make([]obs.Event, r.Intn(8))
		for i := range annots {
			annots[i] = obs.Event{At: int64(r.Intn(50)) - 2, Proc: -1, A: int64(i)}
		}
		want = append(want, annots...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		j := obs.NewJournal(512)
		appendJournal(j, streams, sortJournal(streams), slices.Clone(annots))
		got := j.Events()
		for i := range got {
			got[i].Seq = 0
		}
		if len(want) == 0 {
			want = got
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merged journal is not the stable sort of its streams and annotations", round)
		}
	}
}

// TestBundleEqualsWait is the regression loop for "bundle holds N−1
// states, the run captured N": the capture ends at the bye, so the
// deposet Wait returns and the one reassembled from the sealed bundle
// are the same computation, run after run. A parked controller can
// still receive a peer's last protocol message after its final flush;
// flushing that op after Commit put it in Wait's deposet (collect reads
// the live store) but not under the manifest — about 1 run in 150. One
// pass is 60 runs; the race-detector soak repeats it with -count.
func TestBundleEqualsWait(t *testing.T) {
	const runs = 60
	root := t.TempDir()
	for i := 0; i < runs; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		res, err := RunCluster(ClusterConfig{N: 8, Rounds: 80, Seed: int64(1000 + i), StoreDir: dir})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		d, _, err := AssembleBundle(dir)
		if err != nil {
			t.Fatalf("run %d: bundle: %v", i, err)
		}
		if bs, ws := d.NumStates(), res.Deposet.NumStates(); bs != ws {
			t.Fatalf("run %d: bundle %d states, wait %d", i, bs, ws)
		}
		if bm, wm := len(d.Messages()), len(res.Deposet.Messages()); bm != wm {
			t.Fatalf("run %d: bundle %d messages, wait %d", i, bm, wm)
		}
		os.RemoveAll(dir)
	}
}

// TestStoreFollowsEveryDiscard drives a RAM-staging coordinator
// through a relayed (nil-conn) frame sequence, every phase's capture
// tagged with its own value: first Hellos; a relaunch Hello from node 1
// (the cluster restarts at epoch 1) while both nodes still capture at
// epoch 0; EpochMark{1} from both; then EpochMark{2}, which the
// coordinator adopts, first from node 0 and then node 1. After every
// step, the script so far is replayed into a fresh coordinator writing
// through to a store of 128-byte segments, sealed at its epoch: the
// bundle must hold exactly what collect hands over at the cluster epoch,
// and only the current phase's capture — each discard RAM staging
// makes, the bundle's epoch filter makes too.
func TestStoreFollowsEveryDiscard(t *testing.T) {
	const n = 2
	ram := newCoordinator(n, nil, t.Logf)
	type frame struct {
		id   int
		body []byte
	}
	var script []frame
	seqs := make([]uint64, n)
	ingest := func(c *Coordinator, f frame) {
		t.Helper()
		if _, err := c.ingest(c.sessions[f.id], nil, nil, f.body); err != nil {
			t.Fatalf("node %d: %v", f.id, err)
		}
	}
	send := func(id int, m wire.Msg) {
		t.Helper()
		if _, ok := m.(wire.Hello); ok {
			seqs[id] = 0 // a new process numbers its log afresh
		}
		seqs[id]++
		f := frame{id, wire.AppendBody(nil, seqs[id], m)}
		script = append(script, f)
		ingest(ram, f)
	}
	capture := func(id int, tag int64) {
		send(id, wire.TraceOpBatch{Ops: []wire.TraceOp{
			{Op: wire.TraceSet, Proc: int32(id), Name: "phase", Value: tag},
			{Op: wire.TraceSet, Proc: int32(n + id), Name: "phase", Value: tag},
		}})
		send(id, wire.JournalBatch{Events: []wire.JournalEvent{{At: 10*tag + int64(id), Proc: int32(id), Name: "phase", A: tag}}})
	}
	segs := 0
	check := func(step string, tag int64, sessions int) {
		t.Helper()
		ram.mu.Lock()
		e := ram.core.dec.epoch
		ram.mu.Unlock()
		want := ram.collect(e, staged{})
		want.gens = nil // the bundle has no sessions

		dir := t.TempDir()
		disk, err := store.Open(store.Config{Dir: dir, SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		c := newCoordinator(n, nil, t.Logf)
		c.store = disk
		for _, f := range script {
			ingest(c, f)
		}
		c.mu.Lock()
		sealAt := c.core.dec.epoch
		c.mu.Unlock()
		if err := disk.Seal(n, sealAt); err != nil {
			t.Fatal(err)
		}
		segs, _ = disk.Stats()
		got := bundleStaged(t, dir)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the bundle holds %+v, staging %+v", step, got, want)
		}
		ops := 0
		for _, stream := range want.byProc {
			for _, op := range stream {
				if ops++; op.Value != tag {
					t.Fatalf("%s: collected an op of phase %d, want only phase %d", step, op.Value, tag)
				}
			}
		}
		if ops != 2*sessions || len(want.journal) != sessions {
			t.Fatalf("%s: collected %d ops in %d journals, want %d sessions' worth", step, ops, len(want.journal), sessions)
		}
	}

	for id := 0; id < n; id++ {
		send(id, wire.Hello{From: int32(id), N: n, Inc: 1})
		capture(id, 1)
	}
	check("first Hellos", 1, n)
	send(1, wire.Hello{From: 1, N: n, Inc: 2})
	capture(0, 2)
	capture(1, 2)
	check("relaunch", 2, 0) // epoch 1, which neither stream has entered
	for id := 0; id < n; id++ {
		send(id, wire.EpochMark{Epoch: 1})
		capture(id, 3)
	}
	check("EpochMark{1}", 3, n)
	send(0, wire.EpochMark{Epoch: 2})
	capture(0, 4)
	check("adopted EpochMark{2}", 4, 1)
	send(1, wire.EpochMark{Epoch: 2})
	capture(1, 4)
	check("EpochMark{2}", 4, n)
	if segs < 4 {
		t.Fatalf("the store rotated into %d segments, want the replay to cross several", segs)
	}
}

// TestEpochAssemblerFollowsEveryDiscard drives a listener-free
// coordinator through a relayed (nil-conn) frame script with assembler
// passes between the frames, as the feeder runs them: first Hellos; a
// relaunch Hello from node 1, whose new incarnation re-stages a longer
// stream at epoch 0; EpochMark{1} from both; EpochMark{2} from node 0,
// which moves it forward; then node 1's, an op node 1 stages on node
// 0's process, and the byes. Two of the passes
// read the cluster epoch before the frame ahead of them moved it on —
// the feeder's race with a restart — and find the streams they fed
// discarded under them, at the epoch they fed. After every pass the
// assembler's prefix must encode to the bytes of a fresh prefix pass
// over what is staged at its epoch, and Wait's deposet to those of a
// batch assembly of the surviving capture.
func TestEpochAssemblerFollowsEveryDiscard(t *testing.T) {
	const n = 2
	c := newCoordinator(n, nil, t.Logf)
	seqs, minted := make([]uint64, n), uint64(0)
	send := func(id int, m wire.Msg) {
		t.Helper()
		if _, ok := m.(wire.Hello); ok {
			seqs[id] = 0 // a new process numbers its log afresh
		}
		seqs[id]++
		if _, err := c.ingest(c.sessions[id], nil, nil, wire.AppendBody(nil, seqs[id], m)); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	// capture stages k rounds of node id's app asking its controller,
	// which answers, each side setting phase to tag.
	capture := func(id int, tag int64, k int) {
		app, ctl := int32(id), int32(n+id)
		var ops []wire.TraceOp
		for ; k > 0; k-- {
			minted += 2
			ops = append(ops,
				wire.TraceOp{Op: wire.TraceSend, Proc: app, MsgID: minted},
				wire.TraceOp{Op: wire.TraceSet, Proc: app, Name: "phase", Value: tag},
				wire.TraceOp{Op: wire.TraceRecv, Proc: app, MsgID: minted + 1},
				wire.TraceOp{Op: wire.TraceRecv, Proc: ctl, MsgID: minted},
				wire.TraceOp{Op: wire.TraceSend, Proc: ctl, MsgID: minted + 1},
				wire.TraceOp{Op: wire.TraceSet, Proc: ctl, Name: "phase", Value: tag})
		}
		send(id, wire.TraceOpBatch{Ops: ops})
	}
	encode := func(d *deposet.Deposet) []byte { return encodeTrace(t, &Result{Deposet: d}) }
	// pass runs an assembler pass that read the cluster epoch as e.
	pass := func(step string, e uint32) {
		t.Helper()
		got, err := c.advance(e, false, true)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, _, err := livedetect.AssemblePrefix(n, c.collect(e, staged{}).byProc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("%s: the epoch-%d assembler built %d states, a fresh pass over its staging %d",
				step, e, got.NumStates(), want.NumStates())
		}
	}

	for id := 0; id < n; id++ {
		send(id, wire.Hello{From: int32(id), N: n, Inc: 1})
		capture(id, 1, 2)
	}
	pass("first Hellos", 0)
	capture(0, 1, 1)
	pass("more capture", 0)
	send(1, wire.Hello{From: 1, N: n, Inc: 2}) // the cluster restarts at epoch 1
	capture(1, 2, 4)
	pass("relaunch, epoch read before it", 0)
	pass("relaunch", 1)
	for id := 0; id < n; id++ {
		send(id, wire.EpochMark{Epoch: 1})
		capture(id, 3, 2)
	}
	pass("EpochMark{1}", 1)
	capture(1, 3, 1)
	pass("more capture at epoch 1", 1)
	send(0, wire.EpochMark{Epoch: 2}) // adopted: node 0 moves forward
	capture(0, 4, 2)
	pass("adopted EpochMark{2}, epoch read before it", 1)
	pass("adopted EpochMark{2}", 2)
	send(1, wire.EpochMark{Epoch: 2})
	capture(1, 4, 3)
	pass("EpochMark{2}", 2)
	// An op node 1 stages on node 0's app makes that process a
	// concatenation, whose middle node 0's next frame moves.
	send(1, wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceSet, Proc: 0, Name: "phase", Value: 4}}})
	pass("a process staged by two nodes", 2)
	capture(0, 4, 1)
	pass("the first of them stages more", 2)
	for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{Epoch: 2}} {
		for id := 0; id < n; id++ {
			send(id, m)
		}
	}
	res, err := c.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	survivors := c.collect(2, staged{}).byProc
	for _, stream := range survivors {
		for _, op := range stream {
			if op.Op == wire.TraceSet && op.Value != 4 {
				t.Fatalf("the final capture holds an op of phase %d, want only phase 4", op.Value)
			}
		}
	}
	want, err := assemble(n, survivors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 || !bytes.Equal(encode(res.Deposet), encode(want)) {
		t.Fatalf("Wait: epoch %d, %d states; a batch assembly of the surviving capture has %d at epoch 2",
			res.Epoch, res.Deposet.NumStates(), want.NumStates())
	}
}

// TestDroppedOpsReportedOncePerEpoch: an op naming a process outside
// the run is dropped at staging and reported once for its epoch, not
// by every pass that snapshots the staging.
func TestDroppedOpsReportedOncePerEpoch(t *testing.T) {
	var sink logSink
	c := newCoordinator(2, nil, sink.logf)
	c.ingestStored(c.sessions[0], wire.TraceOpBatch{Ops: []wire.TraceOp{
		{Op: wire.TraceStep, Proc: 0},
		{Op: wire.TraceStep, Proc: 9},
	}}, nil)
	for i := 0; i < 2; i++ {
		if _, err := c.advance(0, false, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{Epoch: 0}} {
		for _, st := range c.sessions {
			c.ingestStored(st, m, nil)
		}
	}
	if _, err := c.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, l := range sink.lines {
		if strings.Contains(l, "outside the run") {
			reports++
		}
	}
	if reports != 1 {
		t.Fatalf("log %q, want the dropped op reported once", sink.lines)
	}
}

// bundleStaged reads a sealed bundle back as collect hands staging
// over: the manifest epoch's records, staged per origin, the origins
// in order.
func bundleStaged(t *testing.T, dir string) staged {
	t.Helper()
	man, err := store.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	type origin struct {
		ops    procOps
		events []obs.Event
	}
	byOrigin := map[int32]*origin{}
	if _, err := store.ReplayBundle(dir, func(rec wire.SegmentRecord, _ uint64, m wire.Msg) error {
		if rec.Epoch != man.Epoch {
			return nil
		}
		o := byOrigin[rec.Origin]
		if o == nil {
			o = &origin{}
			byOrigin[rec.Origin] = o
		}
		stageFrame(man.N, m, &o.ops, &o.events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out := staged{byProc: make([][]wire.TraceOp, 2*man.N)}
	for _, id := range slices.Sorted(maps.Keys(byOrigin)) {
		byOrigin[id].ops.appendTo(out.byProc)
		out.journal = append(out.journal, byOrigin[id].events)
	}
	return out
}

// countingStore counts the frames a coordinator appends, by epoch, and
// its seals. The first append for origin failFor fails (-1: none does).
type countingStore struct {
	spillStore
	appends map[uint32]int
	failFor int32
	seals   int
}

func newCountingStore(failFor int32) *countingStore {
	return &countingStore{appends: map[uint32]int{}, failFor: failFor}
}

func (s *countingStore) Append(origin int32, epoch uint32, _ []byte) error {
	if origin == s.failFor {
		s.failFor = -1
		return errors.New("counting store: injected append failure")
	}
	s.appends[epoch]++
	return nil
}

func (s *countingStore) Seal(int, uint32) error { s.seals++; return nil }

// TestCaptureEndsAtBye is TestBundleEqualsWait's race without sockets:
// once a stream's bye is counted, a capture frame that follows it is
// neither staged nor appended (and is reported once); a bye that does
// not count — wrong epoch — closes nothing, and the stream's next epoch
// captures again. With a store, every staged frame is appended.
func TestCaptureEndsAtBye(t *testing.T) {
	batch := wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceSet, Proc: 0, Name: "cs", Value: 1}}}
	for _, spill := range []bool{false, true} {
		var sink logSink
		c := newCoordinator(2, nil, sink.logf)
		disk := newCountingStore(-1)
		if spill {
			c.store = disk
		}
		st := c.sessions[0]
		// check counts the frames staged at the stream's epoch and those
		// appended at it: with spilling on, the two must match.
		check := func(when string, want int) {
			t.Helper()
			staged, appended := st.ops.staged+len(st.events), disk.appends[st.epoch]
			if staged != want || spill && appended != want || !spill && appended != 0 {
				t.Fatalf("spill=%v: %s: %d frames staged and %d appended, want %d", spill, when, staged, appended, want)
			}
		}

		c.ingestStored(st, batch, nil)
		c.ingestStored(st, wire.Shutdown{Epoch: 1}, nil) // not the cluster epoch: not a bye
		c.ingestStored(st, batch, nil)
		check("before the bye", 2)
		c.ingestStored(st, wire.Shutdown{Epoch: 0}, nil)
		c.ingestStored(st, batch, nil)
		c.ingestStored(st, wire.JournalBatch{Events: []wire.JournalEvent{{Name: "late"}}}, nil)
		check("after the bye", 2)
		if !sink.contains("after its bye") || len(sink.lines) != 1 {
			t.Fatalf("spill=%v: log %q, want the refusal reported once", spill, sink.lines)
		}

		// A restart voids the bye with the rest of the epoch.
		c.ingestStored(st, wire.EpochMark{Epoch: 1}, nil)
		c.ingestStored(st, batch, nil)
		check("at epoch 1", 1)
	}
}

// TestFailedAppendStopsTheStore: one failed append stops the store for
// every session, not only for the one whose frame it lost — the store
// then has a hole, so nothing after it may land there — and seal leaves
// it unsealed. Staging in RAM carries on whole.
func TestFailedAppendStopsTheStore(t *testing.T) {
	batch := func(id int) wire.TraceOpBatch {
		return wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceSet, Proc: int32(id), Name: "cs", Value: 1}}}
	}
	var sink logSink
	c := newCoordinator(2, nil, sink.logf)
	disk := newCountingStore(0)
	c.store = disk
	sessions := []*nodeSession{c.sessions[0], c.sessions[1]}

	c.ingestStored(sessions[1], batch(1), nil) // appended
	c.ingestStored(sessions[0], batch(0), nil) // the append fails
	c.ingestStored(sessions[1], batch(1), nil) // staged, not appended
	c.ingestStored(sessions[0], batch(0), nil)
	for _, st := range sessions {
		if st.ops.staged != 2 {
			t.Fatalf("node %d staged %d frames, want 2", st.id, st.ops.staged)
		}
	}
	if disk.appends[0] != 1 {
		t.Fatalf("%d frames appended, want only the one before the failure", disk.appends[0])
	}
	if !sink.contains("store append") || len(sink.lines) != 1 {
		t.Fatalf("log %q, want the failure reported once", sink.lines)
	}

	// Finish the run: every Done, then every bye.
	for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{Epoch: 0}} {
		for _, st := range sessions {
			c.ingestStored(st, m, nil)
		}
	}
	select {
	case <-c.allByes:
	default:
		t.Fatal("the run did not commit")
	}
	if disk.seals != 0 {
		t.Fatal("the commit sealed a store that missed a frame")
	}
}
