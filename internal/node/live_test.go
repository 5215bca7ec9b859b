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

// TestLiveCandidateEpochDiscard pins the checker's epoch discipline at
// the ingest layer: a restart bumps the checker past the stream, the
// abandoned epoch's straggler candidates are dropped (they must not
// seed a detection in the re-execution), the EpochMark zeroes the
// session's bare candidate counter, and fresh-epoch candidates are
// believed again.
func TestLiveCandidateEpochDiscard(t *testing.T) {
	c := newCoordinator(2, nil, func(string, ...any) {})
	if err := c.light(LiveConfig{Predicate: CSMutexPredicate(2), OnDetect: OnDetectNote}); err != nil {
		t.Fatal(err)
	}
	st := c.sessions[0]
	cand := wire.Candidate{Proc: 0, LoIdx: 1, HiIdx: 2, Lo: []int32{1, 0}, Hi: []int32{2, 0}}
	if c.ingestStored(st, wire.CandidateBatch{Cands: []wire.Candidate{cand}}, nil) {
		t.Fatal("half a witness triggered the checker")
	}
	if st.cands != 1 || c.ld.Depth() != 1 {
		t.Fatalf("staged cands=%d depth=%d, want 1 and 1", st.cands, c.ld.Depth())
	}

	// A restart decision moves the cluster (and checker) to epoch 1
	// while the stream still runs epoch 0: its stragglers are stale.
	c.mu.Lock()
	c.carry(nil, out{all: c.core.decide(wire.Restart{Epoch: 1})})
	c.mu.Unlock()
	if c.ingestStored(st, wire.Candidate{Proc: 1, LoIdx: 1, HiIdx: 2, Lo: []int32{0, 1}, Hi: []int32{0, 2}}, nil) {
		t.Fatal("stale-epoch candidate triggered the checker")
	}
	if c.ld.Depth() != 0 {
		t.Fatalf("stale-epoch candidate leaked into the checker (depth %d)", c.ld.Depth())
	}
	if _, _, stale := c.ld.Stats(); stale != 1 {
		t.Fatalf("stale counter = %d, want 1", stale)
	}

	// The stream's EpochMark discards its staging — including the bare
	// candidate counter — and re-arms it for the new epoch.
	c.ingestStored(st, wire.EpochMark{Epoch: 1}, nil)
	if st.cands != 0 {
		t.Fatalf("EpochMark left st.cands = %d, want 0", st.cands)
	}
	if st.epoch != 1 {
		t.Fatalf("EpochMark left stream epoch %d, want 1", st.epoch)
	}
	// Fresh-epoch candidates count and are believed: a concurrent pair
	// completes the GW witness and demands confirmation.
	c.ingestStored(st, wire.CandidateBatch{Cands: []wire.Candidate{cand}}, nil)
	if !c.ingestStored(st, wire.Candidate{Proc: 1, LoIdx: 1, HiIdx: 2, Lo: []int32{0, 1}, Hi: []int32{0, 2}}, nil) {
		t.Fatal("fresh-epoch witness did not trigger the checker")
	}
	if st.cands != 2 {
		t.Fatalf("fresh-epoch cands = %d, want 2", st.cands)
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
		// stream (the resume replay re-offers candidate frames).
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
		// the live checker must reach the same verdict when candidates
		// arrive forwarded through relays — and some of those also
		// kill a relay mid-run (heals like a stream sever, no restart).
		if seed%3 == 0 {
			cfg.Relays = 2
			if seed%9 == 6 {
				cfg.RelayCrashes = []Crash{{At: 2 * time.Millisecond, Node: seed % 2, Down: 2 * time.Millisecond}}
			}
		}
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			res, _, _ := runTestCluster(t, cfg)
			_, offline := detect.PossiblyGeneral(res.Deposet, violation)
			if res.LiveFired != offline {
				t.Errorf("seed %d (rogues %v, epoch %d): live verdict %v, offline %v",
					seed, cfg.Rogues, res.Epoch, res.LiveFired, offline)
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

// triggerLive offers one candidate per node of c, pairwise concurrent,
// so the streaming checker triggers on the last, which obligates the
// mid-run verdict (fireDetection) on what c has staged.
func triggerLive(t *testing.T, c *Coordinator) {
	t.Helper()
	detected := false
	for p := 0; p < c.n; p++ {
		lo, hi := make([]int32, c.n), make([]int32, c.n)
		lo[p], hi[p] = 1, 2
		detected = c.ingestStored(c.sessions[p], wire.Candidate{Proc: int32(p), LoIdx: 1, HiIdx: 2, Lo: lo, Hi: hi}, nil)
	}
	if !detected {
		t.Fatalf("%d concurrent candidates did not trigger the checker", c.n)
	}
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
		triggerLive(t, c)
		c.fireDetection(n - 1)
		if len(c.core.detections) != 1 {
			t.Fatalf("n=%d: %d detections recorded on a prefix where every app can be in its section", n, len(c.core.detections))
		}
		if got := c.core.detections[0].StrategyEdges; got != len(want.Relation) {
			t.Errorf("n=%d: detection records %d strategy edges, Figure 2 gives %d", n, got, len(want.Relation))
		}
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

// TestSlowVerdictBlocksNoHandshake: the live verdict — prefix assembly,
// possibly(¬B), the strategy — runs with no decision lock held, so a
// predicate that takes its time holds up neither a node's resume
// handshake nor a relaunch's restart decision. The verdict then lands
// as one decision, revalidated: two confirmers of one trigger record
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
	// verdict stages the rogue prefix at the current epoch, triggers the
	// checker on it and runs the mid-run verdict from k ingest
	// goroutines at once; the channel closes when all have returned.
	verdict := func(k int) <-chan struct{} {
		for p, ops := range roguePrefix(n, rounds) {
			c.ingestStored(c.sessions[p%n], wire.TraceOpBatch{Ops: ops}, nil)
		}
		triggerLive(t, c)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.fireDetection(w)
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

	// Epoch 0: two confirmers hold the verdict while node 0 resumes.
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
		t.Fatalf("after two confirmers at epoch 0: detections %+v, %d re-executions; want one that re-executes", dets, reexecs)
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
