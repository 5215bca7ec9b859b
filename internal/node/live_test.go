package node

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/wire"
)

// TestLiveDetectionPlantedViolation is the subsystem's headline test:
// a rogue node enters critical sections without permission, the live
// checker confirms possibly(¬B) strictly mid-run, the coordinator
// auto-drives a §8 controlled re-execution, and the re-executed run —
// the one the capture keeps — satisfies every invariant.
func TestLiveDetectionPlantedViolation(t *testing.T) {
	const n, rounds = 3, 6
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: 3 * time.Millisecond,
		Seed: 21, Scapegoat: 1, Rogues: []int{1}, Timeouts: testTimeouts(),
		Live: LiveConfig{Predicate: CSMutexPredicate(n)},
	})
	if len(res.Detections) == 0 {
		t.Fatal("planted violation produced no detection")
	}
	first := res.Detections[0]
	if first.Final {
		t.Fatal("detection only fired in the closing verdict, not mid-run")
	}
	if !first.ReExec || res.ReExecs != 1 {
		t.Fatalf("detection did not drive a re-execution: %+v (reexecs %d)", first, res.ReExecs)
	}
	if first.Epoch != 0 || res.Epoch != 1 {
		t.Fatalf("epochs: detection at %d, run completed at %d; want 0 and 1", first.Epoch, res.Epoch)
	}
	if len(first.Cut) != 2*n {
		t.Fatalf("detection cut spans %d processes, want %d", len(first.Cut), 2*n)
	}
	// The re-execution put the rogue back under control, so the final
	// trace and journal are a controlled run's: live detection must NOT
	// fire for the final epoch, offline detection must find nothing,
	// and the protocol invariants hold.
	if res.LiveFired {
		t.Fatal("live verdict still fired for the re-executed epoch")
	}
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The rogue behaved in the final epoch: full request tallies.
	for i, s := range res.Stats {
		if s.Requests != rounds {
			t.Errorf("node %d made %d requests in the final epoch, want %d", i, s.Requests, rounds)
		}
	}
	// The detection survives in the merged journal's annotations,
	// stamped with the moment it was confirmed — not with the end of the
	// strategy computation that follows the confirmation.
	found := 0
	for _, e := range j.Events() {
		if e.Name == obs.EvDetect {
			found++
			if e.At != first.AtNs {
				t.Errorf("%s annotation at %d ns, detection record at %d ns", obs.EvDetect, e.At, first.AtNs)
			}
		}
	}
	if found != 1 {
		t.Errorf("journal has %d %s annotations, want 1", found, obs.EvDetect)
	}
}

// TestLiveStreamFollowsEveryDiscard: the derived interval stream
// starts over with the epoch assembler. Between the frames of a run
// whose capture is discarded under it — a relaunch that voids node 0's
// epoch-0 interval, a process two nodes stage, whose concatenation node
// 0's next frame changes in the middle — a feeder pass must leave the
// checker holding exactly what a fresh derivation over the staging
// holds, and land the detection, once there is one, at the cut that
// derivation finds: an interval of a voided stream never completes a
// witness nor names a cut.
func TestLiveStreamFollowsEveryDiscard(t *testing.T) {
	const n = 2
	c := newCoordinator(n, nil, t.Logf)
	if err := c.light(LiveConfig{Predicate: CSMutexPredicate(n), OnDetect: OnDetectNote}); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, n)
	send := func(id int, m wire.Msg) {
		t.Helper()
		if _, ok := m.(wire.Hello); ok {
			seqs[id] = 0
		}
		seqs[id]++
		if err := c.ingest(c.sessions[id], nil, nil, wire.AppendBody(nil, seqs[id], m)); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	stage := func(id int, ops ...wire.TraceOp) { send(id, wire.TraceOpBatch{Ops: ops}) }
	initOp := func(p int32) wire.TraceOp { return wire.TraceOp{Op: wire.TraceInit, Proc: p, Name: "cs"} }
	cs := func(p int32, v int64) wire.TraceOp {
		return wire.TraceOp{Op: wire.TraceSet, Proc: p, Name: "cs", Value: v}
	}
	step := wire.TraceOp{Op: wire.TraceStep, Proc: 0}
	detections := func() []DetectionRecord {
		c.mu.Lock()
		defer c.mu.Unlock()
		return slices.Clone(c.core.detections)
	}
	// pass runs a feeder pass that read the cluster epoch as e, then
	// derives the staging at e afresh and compares.
	pass := func(what string, e uint32) {
		t.Helper()
		c.pass(e)
		fresh := livedetect.NewFor(c.locals)
		a := livedetect.NewAssembler(n)
		a.Derive(c.locals, func(iv livedetect.Interval) { fresh.Offer(0, iv) })
		if err := a.Feed(c.collect(e, staged{}).byProc, false); err != nil {
			t.Fatal(err)
		}
		if c.core.dec.epoch != e {
			return // a pass the restart overtook: the checker is past e
		}
		if got, want := c.ld.Depth(), fresh.Depth(); got != want {
			t.Fatalf("%s: the checker holds %d intervals, a fresh derivation %d", what, got, want)
		}
		var at []DetectionRecord
		for _, d := range detections() {
			if d.Epoch == e {
				at = append(at, d)
			}
		}
		cut, _, ok := fresh.Verdict(0)
		if len(at) != 0 != ok || ok && (len(at) != 1 || !slices.Equal(at[0].Cut, cutToInt64(cut))) {
			t.Fatalf("%s: detections at epoch %d %+v; a fresh derivation finds %t at %v", what, e, at, ok, cut)
		}
	}

	for id := 0; id < n; id++ {
		send(id, wire.Hello{From: int32(id), N: n, Inc: 1})
	}
	stage(0, initOp(0), cs(0, 1), cs(0, 0))
	pass("node 0's interval", 0)
	send(0, wire.Hello{From: 0, N: n, Inc: 2}) // the cluster restarts at epoch 1
	stage(1, initOp(1), cs(1, 1), cs(1, 0))    // staged before node 1's mark: voided by it
	pass("relaunch, epoch read before it", 0)
	for id := 0; id < n; id++ {
		send(id, wire.EpochMark{Epoch: 1})
	}
	stage(1, initOp(1), cs(1, 1), cs(1, 0))
	pass("node 1's interval, node 0's voided", 1)
	for id := 0; id < n; id++ {
		send(id, wire.EpochMark{Epoch: 2}) // adopted: the cluster moves on
	}
	// Node 1 stages node 0's critical section behind node 0's own Init:
	// a concatenation, whose middle node 0's next frame moves.
	stage(0, initOp(0))
	stage(1, cs(0, 1), cs(0, 0))
	pass("a process staged by two nodes", 2)
	stage(0, step, step)
	pass("the first of them stages more", 2)
	stage(1, initOp(1), cs(1, 1), cs(1, 0))
	pass("node 1's interval", 2)
	if len(detections()) != 1 {
		t.Fatal("no detection once both apps' intervals are staged")
	}
	for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{Epoch: 2}} {
		for id := 0; id < n; id++ {
			send(id, m)
		}
	}
	res, err := c.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := detect.PossiblyGeneral(res.Deposet, predicate.Not(CSMutexPredicate(n)))
	if !res.LiveFired || len(res.Detections) != 1 || !slices.Equal(res.Detections[0].Cut, cutToInt64(want)) {
		t.Fatalf("Wait: fired %t, detections %+v; the offline cut is %v", res.LiveFired, res.Detections, want)
	}
}

// TestStrayCandidateBatchDropped: no node sends a Candidate or a
// CandidateBatch any more, and the root reads one that arrives and drops
// it: nothing staged, offered to the checker, or counted.
func TestStrayCandidateBatchDropped(t *testing.T) {
	c := newCoordinator(2, nil, t.Logf)
	if err := c.light(LiveConfig{Predicate: CSMutexPredicate(2), OnDetect: OnDetectNote}); err != nil {
		t.Fatal(err)
	}
	st := c.sessions[0]
	cands := []wire.Candidate{
		{Proc: 0, LoIdx: 1, HiIdx: 2, Lo: []int32{1, 0}, Hi: []int32{2, 0}},
		{Proc: 1, LoIdx: 1, HiIdx: 2, Lo: []int32{0, 1}, Hi: []int32{0, 2}},
	}
	c.ingestStored(st, wire.CandidateBatch{Cands: cands}, nil)
	c.ingestStored(st, cands[0], nil)
	c.pass(0)
	checkNothingStaged(t, c)
}

// TestStrayCandidateBatchRelayedDropped is TestStrayCandidateBatchDropped
// behind a relay: a CandidateBatch forwarded in a RelayBatch is read and
// dropped by the origin's session, after the gate.
func TestStrayCandidateBatchRelayedDropped(t *testing.T) {
	c := newCoordinator(2, nil, t.Logf)
	if err := c.light(LiveConfig{Predicate: CSMutexPredicate(2), OnDetect: OnDetectNote}); err != nil {
		t.Fatal(err)
	}
	batch := wire.CandidateBatch{Cands: []wire.Candidate{
		{Proc: 0, LoIdx: 1, HiIdx: 2, Lo: []int32{1, 0}, Hi: []int32{2, 0}},
		{Proc: 1, LoIdx: 1, HiIdx: 2, Lo: []int32{0, 1}, Hi: []int32{0, 2}},
	}}
	c.unpackRelayed(c.relays[0], nil, wire.RelayBatch{Frames: []wire.RelayFrame{
		{Origin: 0, Body: wire.AppendBody(nil, 1, wire.Hello{From: 0, N: 2, Inc: 1})},
		{Origin: 0, Body: wire.AppendBody(nil, 2, batch)},
		{Origin: 1, Body: wire.AppendBody(nil, 1, wire.Hello{From: 1, N: 2, Inc: 1})},
		{Origin: 1, Body: wire.AppendBody(nil, 2, batch)},
	}})
	if got := c.sessions[0].lastSeq; got != 2 {
		t.Fatalf("origin 0's gate is at %d, want 2: the frame was not read", got)
	}
	c.pass(0)
	checkNothingStaged(t, c)
}

// checkNothingStaged requires c to have staged, offered and counted
// nothing.
func checkNothingStaged(t *testing.T, c *Coordinator) {
	t.Helper()
	for _, st := range c.sessions {
		st.mu.Lock()
		staged, events, cands := st.ops.staged, len(st.events), st.cands
		st.mu.Unlock()
		if staged != 0 || events != 0 || cands != 0 {
			t.Errorf("node %d staged %d ops, %d journal events, %d candidate twins; want none", st.id, staged, events, cands)
		}
	}
	if offered, _, stale := c.ld.Stats(); offered != 0 || stale != 0 || c.ld.Depth() != 0 {
		t.Errorf("the checker was offered %d intervals (%d stale, %d queued), want none", offered, stale, c.ld.Depth())
	}
	if len(c.core.detections) != 0 {
		t.Errorf("detections %+v from stray candidates", c.core.detections)
	}
}

// TestLiveVerdictMatchesOffline is the zero-divergence property test:
// across many seeded loopback runs — rogue and clean, with crashes and
// coordinator-stream partitions forcing session-resume replays — the
// live subsystem's verdict must coincide exactly with running the
// offline detector over the reassembled deposet. OnDetect is "note" so
// rogues stay rogue and the final-epoch trace is the one the checker
// judged.
func TestLiveVerdictMatchesOffline(t *testing.T) {
	const n = 3
	runs := 100
	if testing.Short() {
		runs = 25
	}
	violation := predicate.Not(CSMutexPredicate(n))
	for seed := 0; seed < runs; seed++ {
		cfg := ClusterConfig{
			N: n, Rounds: 2, Think: 800 * time.Microsecond, CS: 600 * time.Microsecond,
			Seed: int64(seed), Scapegoat: seed % n, Timeouts: chaosTimeouts(),
			Live: LiveConfig{Predicate: CSMutexPredicate(n), OnDetect: OnDetectNote},
		}
		// Roughly half the runs plant a rogue (sometimes two), so both
		// verdicts are exercised; the scapegoat rotates independently.
		switch seed % 4 {
		case 1:
			cfg.Rogues = []int{seed % n}
		case 3:
			cfg.Rogues = []int{seed % n, (seed + 1) % n}
		}
		// Every 5th run crashes a node (a controlled re-execution
		// restart resets the checker); every 7th severs a coordinator
		// stream (the resume replay re-sends capture frames).
		if seed%5 == 2 {
			cfg.Crashes = []Crash{{At: 2 * time.Millisecond, Node: (seed + 1) % n, Down: 2 * time.Millisecond}}
		}
		if seed%7 == 3 {
			cfg.Faults.Partitions = []Partition{{
				Start: time.Millisecond, Dur: 4 * time.Millisecond,
				A: []int{seed % n}, B: []int{seed % n}, Coord: true,
			}}
			cfg.Faults.Seed = int64(seed)
		}
		// A third of the runs go through a 2-level aggregation tree —
		// the live checker must reach the same verdict when the capture
		// arrives forwarded through relays — and some of those also
		// kill a relay mid-run (heals like a stream sever, no restart).
		if seed%3 == 0 {
			cfg.Relays = 2
			if seed%9 == 6 {
				cfg.RelayCrashes = []Crash{{At: 2 * time.Millisecond, Node: seed % 2, Down: 2 * time.Millisecond}}
			}
		}
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			res, _, _ := runTestCluster(t, cfg)
			cut, offline := detect.PossiblyGeneral(res.Deposet, violation)
			if res.LiveFired != offline {
				t.Errorf("seed %d (rogues %v, epoch %d): live verdict %v, offline %v",
					seed, cfg.Rogues, res.Epoch, res.LiveFired, offline)
			}
			// The final epoch's detection, mid-run or closing, names the
			// least cut where ¬B holds: the one offline detection finds.
			for _, det := range res.Detections {
				if det.Epoch == res.Epoch && !slices.Equal(det.Cut, cutToInt64(cut)) {
					t.Errorf("seed %d: the final epoch's detection (final %t) cut %v, offline %v", seed, det.Final, det.Cut, cut)
				}
			}
		})
	}
}

// roguePrefix hand-builds the capture of n nodes mid-run, node 0 a
// planted rogue: its app flips cs without asking; every other app asks
// its co-located controller (mayFalse → grant, then nowTrue) around each
// critical section. No handoff crosses nodes, so the nodes run
// concurrently and every app can be inside its section at once. The
// streams are cut where a prefix would cut them: the last app is still
// in its section, and the last nowTrue is sent but not yet received.
func roguePrefix(n, rounds int) [][]wire.TraceOp {
	byProc := make([][]wire.TraceOp, 2*n)
	for node := 0; node < n; node++ {
		app, ctl := int32(node), int32(n+node)
		next := map[int32]uint64{}
		msg := func(from, to int32) {
			next[from]++
			id := uint64(from)<<40 | next[from]
			byProc[from] = append(byProc[from], wire.TraceOp{Op: wire.TraceSend, Proc: from, MsgID: id})
			byProc[to] = append(byProc[to], wire.TraceOp{Op: wire.TraceRecv, Proc: to, MsgID: id})
		}
		set := func(v int64) {
			byProc[app] = append(byProc[app], wire.TraceOp{Op: wire.TraceSet, Proc: app, Name: "cs", Value: v})
		}
		byProc[app] = append(byProc[app], wire.TraceOp{Op: wire.TraceInit, Proc: app, Name: "cs", Value: 0})
		for r := 0; r < rounds; r++ {
			if node > 0 {
				msg(app, ctl)
				msg(ctl, app)
			}
			set(1)
			if node == n-1 && r == rounds-1 {
				break // still inside at the cut
			}
			set(0)
			if node > 0 {
				msg(app, ctl)
			}
		}
	}
	last := 2*n - 2 // a controller that has not yet seen its app's final nowTrue
	byProc[last] = byProc[last][:len(byProc[last])-1]
	return byProc
}

// TestLiveStrategyIsFigure2OnDisjunction: the strategy a confirmed live
// detection records for B = ∨(csᵢ = 0) is the paper's Figure 2 chain —
// offline.Control's relation, at most n(p+1) edges, valid for the prefix
// — and computing it never enters the exhaustive SGSD search, which
// evaluates B at every consistent cut it visits where the chain reads
// each local once per state. The confirm is no lattice walk either:
// possibly(¬B) factors into a per-state table and the Garg–Waldecker
// fixpoint, which reads each local a bounded number of times per state.
func TestLiveStrategyIsFigure2OnDisjunction(t *testing.T) {
	for _, n := range []int{3, 4, 6} {
		const rounds = 5
		byProc := roguePrefix(n, rounds)
		d, _, err := livedetect.AssemblePrefix(n, byProc)
		if err != nil {
			t.Fatal(err)
		}

		// B with counting locals: the work the strategy spends reading it.
		evals := 0
		b, _ := predicate.AsDisjunction(CSMutexPredicate(n), n)
		xs := make([]predicate.Expr, n)
		for i := range xs {
			xs[i] = predicate.Local(i, "cs=0", func(d *deposet.Deposet, k int) bool {
				evals++
				return b.Holds(d, i, k)
			})
		}
		rel, err := liveStrategy(d, predicate.Or(xs...))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if evals > 4*d.NumStates() {
			t.Errorf("n=%d: B's locals read %d times for %d states: an exhaustive search, not the Figure 2 chain", n, evals, d.NumStates())
		}
		evals = 0
		if _, found := detect.PossiblyGeneral(d, predicate.Not(predicate.Or(xs...))); !found {
			t.Fatalf("n=%d: the confirm finds no cut on a prefix where every app can be in its section", n)
		}
		if evals > 4*d.NumStates() {
			t.Errorf("n=%d: the confirm read B's locals %d times for %d states: a lattice walk, not the Garg–Waldecker fixpoint", n, evals, d.NumStates())
		}
		dj, ok := predicate.AsDisjunction(CSMutexPredicate(n), d.NumProcs())
		if !ok {
			t.Fatalf("n=%d: the cluster's own predicate is not recognised as a disjunction", n)
		}
		want, err := offline.Control(d, dj, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rel) != len(want.Relation) || len(rel) == 0 || len(rel) > n*(rounds+1) {
			t.Errorf("n=%d: %d strategy edges, Figure 2 gives %d, bound n(p+1) = %d", n, len(rel), len(want.Relation), n*(rounds+1))
		}
		if err := control.Check(d, rel); err != nil {
			t.Errorf("n=%d: strategy is not a valid control relation: %v", n, err)
		}

		// The same prefix through the coordinator's mid-run verdict: the
		// recorded detection carries that strategy's size.
		c := newCoordinator(n, nil, func(string, ...any) {})
		if err := c.light(LiveConfig{Predicate: CSMutexPredicate(n), OnDetect: OnDetectNote}); err != nil {
			t.Fatal(err)
		}
		for p, ops := range byProc {
			c.ingestStored(c.sessions[p%n], wire.TraceOpBatch{Ops: ops}, nil)
		}
		c.pass(0)
		if len(c.core.detections) != 1 {
			t.Fatalf("n=%d: %d detections recorded on a prefix where every app can be in its section", n, len(c.core.detections))
		}
		if got := c.core.detections[0].StrategyEdges; got != len(want.Relation) {
			t.Errorf("n=%d: detection records %d strategy edges, Figure 2 gives %d", n, got, len(want.Relation))
		}
	}
}

// TestConfirmWaitsForSettledStates: for a B the root derives no
// intervals for, the confirm on a fed prefix lands only a cut whose
// states ¬B reads are final. With only node 0's capture staged, every
// other app sits at its ⊥ with cs not yet set — the Init is still on its
// way — where ¬(cs = 0) reads true: a cut through those top states is no
// verdict, and none may land until the rest of the capture is fed. A
// pass that replays nothing new takes no confirm.
func TestConfirmWaitsForSettledStates(t *testing.T) {
	const n, rounds = 3, 2
	b, _ := predicate.AsDisjunction(CSMutexPredicate(n), n)
	xs := make([]predicate.Expr, n)
	var reads atomic.Int64
	for i := range xs {
		xs[i] = predicate.Local(i, "cs=0", func(d *deposet.Deposet, k int) bool {
			reads.Add(1)
			return b.Holds(d, i, k)
		})
	}
	c := newCoordinator(n, nil, t.Logf)
	if err := c.light(LiveConfig{Predicate: predicate.Or(xs...), OnDetect: OnDetectNote}); err != nil {
		t.Fatal(err)
	}
	if c.locals != nil {
		t.Fatal("opaque locals taken for variable ones")
	}
	byProc := roguePrefix(n, rounds)
	stage := func(ps ...int) {
		for _, p := range ps {
			c.ingestStored(c.sessions[p%n], wire.TraceOpBatch{Ops: byProc[p]}, nil)
		}
	}
	stage(0, n)
	c.pass(0)
	if len(c.core.detections) != 0 {
		t.Fatalf("a cut through apps whose Init is not staged landed: %+v", c.core.detections)
	}
	before := reads.Load()
	c.pass(0)
	if before == 0 || reads.Load() != before {
		t.Fatalf("B read %d times by the first confirm, %d more by a pass that replayed nothing", before, reads.Load()-before)
	}
	stage(1, 2, n+1, n+2)
	c.pass(0)
	if len(c.core.detections) != 1 {
		t.Fatalf("no detection once every app's capture is staged: %+v", c.core.detections)
	}
}

// slowGate holds every evaluation of a predicate's locals while it is
// shut, and reports the first one.
type slowGate struct {
	entered, release chan struct{}
	enter, open      sync.Once
}

func newSlowGate() *slowGate {
	return &slowGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *slowGate) wait() {
	g.enter.Do(func() { close(g.entered) })
	<-g.release
}

func (g *slowGate) openUp() { g.open.Do(func() { close(g.release) }) }

// TestSlowVerdictBlocksNoHandshake: the live verdict a pass owes — for
// a B over opaque locals, possibly(¬B) on the fed prefix, then the
// strategy — runs with no decision lock held, so a predicate that takes
// its time holds up neither a node's resume handshake nor a relaunch's
// restart decision. The verdict then lands as one decision,
// revalidated: the feeder's pass and two more over one prefix record
// exactly one detection, a verdict on an epoch a restart voided
// meanwhile records nothing and broadcasts no ReExec, and one that
// Commit overtook records nothing either — Wait's closing verdict
// records the detection instead.
func TestSlowVerdictBlocksNoHandshake(t *testing.T) {
	const n, rounds = 3, 2
	var gate atomic.Pointer[slowGate]
	b, _ := predicate.AsDisjunction(CSMutexPredicate(n), n)
	xs := make([]predicate.Expr, n)
	for i := range xs {
		xs[i] = predicate.Local(i, "cs=0", func(d *deposet.Deposet, k int) bool {
			gate.Load().wait()
			return b.Holds(d, i, k)
		})
	}
	c, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf,
		Live: LiveConfig{Predicate: predicate.Or(xs...)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close) // after every gate's cleanup has opened it
	shut := func() *slowGate {
		g := newSlowGate()
		gate.Store(g)
		t.Cleanup(g.openUp)
		return g
	}
	within := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	// verdict stages the rogue prefix at the current epoch, which kicks
	// the feeder, and runs k more passes at once; the channel closes
	// when those have returned.
	verdict := func(k int) <-chan struct{} {
		for p, ops := range roguePrefix(n, rounds) {
			c.ingestStored(c.sessions[p%n], wire.TraceOpBatch{Ops: ops}, nil)
		}
		c.mu.Lock()
		e := c.core.dec.epoch
		c.mu.Unlock()
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.pass(e)
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		return done
	}
	recorded := func() ([]DetectionRecord, int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return slices.Clone(c.core.detections), c.core.reexecs
	}

	for id := 0; id < n; id++ {
		helloNode(t, c.Addr(), n, id, 1)
	}
	for id, deadline := 0, time.Now().Add(10*time.Second); id < n; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		if c.core.inc[id] == 1 {
			id++
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("the root never took node %d's Hello", id)
		}
	}

	// Epoch 0: the feeder's pass and two more hold the verdict while
	// node 0 resumes.
	g := shut()
	done := verdict(2)
	within(g.entered, "the verdict to evaluate B")
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteFrame(conn, 0, wire.Resume{From: 0, N: n}); err != nil {
		t.Fatal(err)
	}
	node0 := &rawNode{t: t, conn: conn, br: bufReader(conn)}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, m, err := wire.ReadFrame(node0.br); err != nil {
		t.Fatalf("node 0's resume got no answer while the verdict ran: %v", err)
	} else if _, ok := m.(wire.ResumeAck); !ok {
		t.Fatalf("node 0's resume read %#v, want ResumeAck", m)
	}
	if m := node0.next(); m != (wire.Restart{Inc: 1}) {
		t.Fatalf("node 0's resume read %#v after its ResumeAck, want its answer again", m)
	}
	g.openUp()
	within(done, "the verdicts to land")
	dets, reexecs := recorded()
	if len(dets) != 1 || dets[0].Epoch != 0 || !dets[0].ReExec || reexecs != 1 {
		t.Fatalf("after three passes at epoch 0: detections %+v, %d re-executions; want one that re-executes", dets, reexecs)
	}
	if m := node0.next(); !reflect.DeepEqual(m, dets[0].frame()) {
		t.Fatalf("node 0 read %#v after the verdict, want its Detection %#v", m, dets[0].frame())
	}
	if m, ok := node0.next().(wire.ReExec); !ok || m.Epoch != 1 {
		t.Fatalf("node 0 read %#v after the Detection, want ReExec{1}", m)
	}

	// Epoch 1: a relaunch's restart decision lands while the verdict on
	// epoch 1 is held; the verdict then finds its epoch gone.
	g = shut()
	for p := 0; p < n; p++ {
		c.ingestStored(c.sessions[p], wire.EpochMark{Epoch: 1}, nil)
	}
	done = verdict(1)
	within(g.entered, "the epoch-1 verdict to evaluate B")
	relaunch := helloNode(t, c.Addr(), n, 2, 2)
	relaunch.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, m, err := wire.ReadFrame(relaunch.br); err != nil {
		t.Fatalf("node 2's relaunch got no answer while the verdict ran: %v", err)
	} else if _, ok := m.(wire.Detection); !ok {
		t.Fatalf("node 2's relaunch read %#v first, want the Detection it missed", m)
	}
	if m := relaunch.next(); !reflect.DeepEqual(m, wire.Restart{Epoch: 2, Inc: 2}) {
		t.Fatalf("node 2's relaunch read %#v, want its answer at epoch 2", m)
	}
	g.openUp()
	within(done, "the voided verdict to return")
	if dets, reexecs := recorded(); len(dets) != 1 || reexecs != 1 {
		t.Fatalf("a verdict on a voided epoch landed: detections %+v, %d re-executions", dets, reexecs)
	}
	fence := wire.EpochMark{Epoch: 99}
	c.broadcast(fence)
	var got []wire.Msg
	for m := node0.next(); !reflect.DeepEqual(m, fence); m = node0.next() {
		got = append(got, m)
	}
	if want := []wire.Msg{wire.Restart{Epoch: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node 0 was sent %#v after the re-execution, want only %#v", got, want)
	}

	// Epoch 2: the run commits while the verdict on it is held.
	g = shut()
	for p := 0; p < n; p++ {
		c.ingestStored(c.sessions[p], wire.EpochMark{Epoch: 2}, nil)
	}
	done = verdict(1)
	within(g.entered, "the epoch-2 verdict to evaluate B")
	for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{Epoch: 2}} {
		for p := 0; p < n; p++ {
			c.ingestStored(c.sessions[p], m, nil)
		}
	}
	if !c.Status().Committed {
		t.Fatal("the run did not commit while the verdict was held")
	}
	g.openUp()
	within(done, "the overtaken verdict to return")
	if dets, _ := recorded(); len(dets) != 1 {
		t.Fatalf("a mid-run verdict landed after Commit: detections %+v", dets)
	}
	res, err := c.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != 2 || !res.Detections[1].Final || res.Detections[1].Epoch != 2 || !res.LiveFired {
		t.Fatalf("after Commit: detections %+v, fired %t; want the closing verdict's at epoch 2", res.Detections, res.LiveFired)
	}
}
