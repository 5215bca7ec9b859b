package node

import (
	"bufio"
	"bytes"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// flush_test.go: the capture stream's flush pass — a candidate kicks
// it, it carries journal → ops → candidates, it is one write, its
// buffers are reused — and the resume replay it shares the wire with.

// candidateToVerdict joins a run's first mid-run detection to the
// journal twin of the candidate that completed its witness, as the
// benchmark's live-loop does: the time from that candidate leaving its
// node to the coordinator's confirmed verdict.
func candidateToVerdict(res *Result, j *obs.Journal) (time.Duration, bool) {
	for _, det := range res.Detections {
		if det.Final {
			continue
		}
		for _, ev := range j.Events() {
			if ev.Name == obs.EvCandidate && ev.Proc == det.Node && ev.B == det.WitnessHiIdx {
				return time.Duration(det.AtNs - ev.At), true
			}
		}
	}
	return 0, false
}

// TestCandidateDoesNotWaitForTick: no timer sits between a witness
// candidate and its verdict, at a node or at a relay. With the flush
// interval at five seconds (a relay writes through) a planted-rogue
// run must still be confirmed mid-run, well inside 100 ms of the
// candidate (where a candidate waits for a tick, this one waits for the
// end of the run) — and must still drain and commit, since the closing
// flush is the capture's stop, not a tick. The default-interval series before it
// logs the latency percentiles a topology reads at this commit; the
// bound is loose on purpose: this is a "no timer in the path" test, not
// a benchmark.
func TestCandidateDoesNotWaitForTick(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, relays int
	}{{"flat", 3, 0}, {"relays2", 4, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(seed int64, rounds int, b Batching) (*Result, *obs.Journal) {
				j := obs.NewJournal(0)
				res, err := RunCluster(ClusterConfig{
					N: tc.n, Rounds: rounds, Think: time.Millisecond, CS: time.Millisecond,
					Seed: seed, Rogues: []int{1}, Relays: tc.relays, Timeouts: testTimeouts(),
					Batching: b, Journal: j,
					Live: LiveConfig{Predicate: CSMutexPredicate(tc.n), OnDetect: OnDetectNote},
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return res, j
			}

			var lats []time.Duration
			for seed := int64(1); seed <= 24; seed++ {
				res, j := run(seed, 16, Batching{SnapshotEvery: -1})
				if lat, ok := candidateToVerdict(res, j); ok {
					lats = append(lats, lat)
				}
			}
			slices.Sort(lats)
			if len(lats) > 0 {
				t.Logf("default interval, n=%d relays=%d: candidate → verdict p50 %v, p90 %v (%d of 24 runs detected mid-run)",
					tc.n, tc.relays, lats[len(lats)/2], lats[len(lats)*9/10], len(lats))
			}

			start := time.Now()
			// MaxItems out of reach too, so nothing but a candidate can start
			// a pass before the bye's; and a run long enough (≈200 ms) that
			// a witness left waiting for that one breaks the bound.
			const rounds = 80
			res, j := run(7, rounds, Batching{MaxItems: 1 << 16, Interval: 5 * time.Second, SnapshotEvery: -1})
			if wall := time.Since(start); wall > 4*time.Second {
				t.Errorf("the run took %v: something waited for the 5 s tick", wall)
			}
			lat, ok := candidateToVerdict(res, j)
			if !ok {
				t.Fatalf("no mid-run detection with the tick out of reach (detections: %+v)", res.Detections)
			}
			if lat > 100*time.Millisecond {
				t.Errorf("candidate → verdict took %v, want under 100ms", lat)
			}
			t.Logf("5 s interval: candidate → verdict %v", lat)
			// Drained and committed: every candidate and every state of the
			// run arrived (a rogue round is 2 states, a controlled one 8),
			// and the closing verdict agrees with the mid-run one.
			if want := tc.n * rounds; res.Candidates != want {
				t.Errorf("%d candidates staged, want %d", res.Candidates, want)
			}
			if got, min := res.Deposet.NumStates(), (8*(tc.n-1)+2)*rounds; got < min {
				t.Errorf("%d states captured, want at least %d", got, min)
			}
			if !res.LiveFired {
				t.Error("the committed run's live verdict did not fire")
			}
		})
	}
}

// hookedCluster is RunCluster's fault-free flat core with a test's
// ingest hook installed before any node dials.
func hookedCluster(t *testing.T, cfg ClusterConfig, hook func(*nodeSession, wire.Msg)) *Result {
	t.Helper()
	listeners := make([]net.Listener, cfg.N)
	addrs := make([]string, cfg.N)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	start := time.Now()
	coord, err := NewCoordinator(CoordConfig{
		N: cfg.N, Addr: "127.0.0.1:0", Timeouts: cfg.Timeouts, Start: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ingestHook = hook
	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Run(Config{
				ID: i, N: cfg.N, Addrs: addrs, Coord: coord.Addr(), Listener: listeners[i],
				Rounds: cfg.Rounds, Think: cfg.Think, CS: cfg.CS, Seed: cfg.Seed,
				Timeouts: cfg.Timeouts, Batching: cfg.Batching, Start: start,
			}); err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		}(i)
	}
	res, err := coord.Wait(30 * time.Second)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlushOpsBeforeCandidates: the pass order survives the kick. A
// candidate probes the prefix up to its HiIdx, so when one reaches root
// ingest the states it names must already be staged for its process —
// whether the pass that carried it was started by the tick, by the size
// threshold or by the candidate itself.
func TestFlushOpsBeforeCandidates(t *testing.T) {
	const n, rounds, runs = 3, 4, 200
	var mu sync.Mutex // streams ingest concurrently
	checked := 0
	hook := func(st *nodeSession, m wire.Msg) {
		var cands []wire.Candidate
		switch v := m.(type) {
		case wire.Candidate:
			cands = []wire.Candidate{v}
		case wire.CandidateBatch:
			cands = v.Cands
		}
		for _, c := range cands {
			st.mu.Lock()
			staged := int64(0)
			if int(c.Proc) < len(st.ops.byProc) {
				for _, op := range st.ops.byProc[c.Proc] {
					if op.Op != wire.TraceInit && op.Op != wire.TraceLet {
						staged++
					}
				}
			}
			st.mu.Unlock()
			if c.HiIdx > staged {
				t.Errorf("node %d: candidate up to state %d ingested with %d states staged", st.id, c.HiIdx, staged)
			}
			mu.Lock()
			checked++
			mu.Unlock()
		}
	}
	for i := 0; i < runs && !t.Failed(); i++ {
		res := hookedCluster(t, ClusterConfig{
			N: n, Rounds: rounds, Think: 200 * time.Microsecond, CS: 100 * time.Microsecond,
			Seed: int64(i), Timeouts: testTimeouts(), Batching: Batching{SnapshotEvery: -1},
		}, hook)
		if res.Candidates != n*rounds {
			t.Fatalf("run %d: %d candidates, want %d", i, res.Candidates, n*rounds)
		}
	}
	if want := runs * n * rounds; !t.Failed() && checked != want {
		t.Errorf("the hook saw %d candidates, want %d", checked, want)
	}
}

// looseClient is a coordClient that never connected, with an epoch-0
// capture on it: frames only ever reach the session log, which is what
// the pass tests read back.
func looseClient(b Batching) (*coordClient, *capture) {
	cc := newCoordClient("", 0, 2, newWireMeters(nil, "coord"), Timeouts{}.withDefaults(), nil, func(string, ...any) {})
	return cc, newCapture(cc, Config{Batching: b}, 0, time.Now())
}

// decodeLog decodes the session log, frame by frame, requiring the
// sequence numbers 1..len.
func decodeLog(t *testing.T, cc *coordClient) []wire.Msg {
	t.Helper()
	cc.out.mu.Lock()
	defer cc.out.mu.Unlock()
	var out []wire.Msg
	for i, b := range cc.out.frames {
		seq, m, err := wire.ReadFrame(bytes.NewReader(b.B))
		if err != nil {
			t.Fatalf("log frame %d: %v", i+1, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("log frame %d carries sequence %d", i+1, seq)
		}
		out = append(out, m)
	}
	return out
}

// TestFlushReuseNeverAliases: the swapped-out buffers go back into
// service the moment a pass ends, so a pass must have encoded every item
// it took before then. An app and a controller goroutine append ops,
// journal events and candidates numbered in order while the flusher is
// kicked continuously (every candidate, plus the size threshold, plus a
// fast tick); the decoded session log must hold exactly the appended
// sequence per process, in order — an item overwritten before it was
// encoded, or encoded twice from a recycled slice, breaks the count.
func TestFlushReuseNeverAliases(t *testing.T) {
	const perProc = 20000
	cc, c := looseClient(Batching{MaxItems: 32, Interval: 100 * time.Microsecond, SnapshotEvery: -1})
	c.start()
	var wg sync.WaitGroup
	for proc := int32(0); proc < 2; proc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= perProc; i++ {
				c.append(wire.TraceOp{Op: wire.TraceSet, Proc: proc, Name: "x", Value: i})
				c.journal(obs.Event{Proc: int(proc), Name: "e", A: i, VC: []int32{int32(i)}})
				if i%3 == 0 {
					c.candidate(wire.Candidate{Proc: proc, HiIdx: i, Hi: []int32{int32(i)}})
				}
			}
		}()
	}
	wg.Wait()
	c.stop(true)

	var ops, events, cands [2]int64
	for _, m := range decodeLog(t, cc) {
		switch v := m.(type) {
		case wire.TraceOpBatch:
			for _, op := range v.Ops {
				if ops[op.Proc]++; op.Value != ops[op.Proc] || op.Name != "x" {
					t.Fatalf("process %d: op %d decoded as %+v", op.Proc, ops[op.Proc], op)
				}
			}
		case wire.JournalBatch:
			for _, e := range v.Events {
				if events[e.Proc]++; e.A != events[e.Proc] || len(e.VC) != 1 || int64(e.VC[0]) != int64(int32(e.A)) {
					t.Fatalf("process %d: journal event %d decoded as %+v", e.Proc, events[e.Proc], e)
				}
			}
		case wire.CandidateBatch:
			for _, cd := range v.Cands {
				if cands[cd.Proc] += 3; cd.HiIdx != cands[cd.Proc] || len(cd.Hi) != 1 {
					t.Fatalf("process %d: candidate decoded as %+v, want HiIdx %d", cd.Proc, cd, cands[cd.Proc])
				}
			}
		default:
			t.Fatalf("unexpected %T on the log", m)
		}
	}
	for p := 0; p < 2; p++ {
		if ops[p] != perProc || events[p] != perProc || cands[p] != perProc/3*3 {
			t.Errorf("process %d: log holds %d ops, %d events, candidates to %d; want %d, %d, %d",
				p, ops[p], events[p], cands[p], perProc, perProc, perProc/3*3)
		}
	}
}

// TestFlushMarkEpochLeaksNothing: an epoch change with capture
// pending. The old epoch's capture stops with ops, journal events and
// candidates still pending, markEpoch voids the epoch, and a straggler
// then appends to the stopped capture; nothing of the old epoch may
// reach the log after the mark, while the new epoch's capture all does.
func TestFlushMarkEpochLeaksNothing(t *testing.T) {
	b := Batching{Interval: time.Hour, SnapshotEvery: -1}
	cc, old := looseClient(b)
	fill := func(c *capture, epoch int64, items int) {
		for i := 0; i < items; i++ {
			c.append(wire.TraceOp{Op: wire.TraceSet, Proc: 0, Name: "x", Value: epoch})
			c.journal(obs.Event{Name: "x", C: epoch, VC: []int32{1}})
			c.candidate(wire.Candidate{LoIdx: epoch, Hi: []int32{1}})
		}
	}
	old.start()
	fill(old, 0, 105) // the candidates kick passes as they go
	old.stop(false)   // what is still pending dies with the epoch
	before := len(decodeLog(t, cc))
	cc.markEpoch(1)
	fill(old, 0, 3) // stragglers: their kicks wake no flusher
	old.stop(true)  // and a stopped capture stays stopped: no drain sends them

	c := newCapture(cc, Config{Batching: b}, 1, time.Now())
	c.start()
	fill(c, 1, 7)
	c.stop(true)
	log := decodeLog(t, cc)
	if mark, ok := log[before].(wire.EpochMark); !ok || mark.Epoch != 1 {
		t.Fatalf("frame %d is %T, want EpochMark{1}", before+1, log[before])
	}
	items := 0
	for _, m := range log[before+1:] {
		switch v := m.(type) {
		case wire.TraceOpBatch:
			for _, op := range v.Ops {
				if items++; op.Value != 1 {
					t.Errorf("op of epoch %d after the mark", op.Value)
				}
			}
		case wire.JournalBatch:
			for _, e := range v.Events {
				if items++; e.C != 1 {
					t.Errorf("journal event of epoch %d after the mark", e.C)
				}
			}
		case wire.CandidateBatch:
			for _, cd := range v.Cands {
				if items++; cd.LoIdx != 1 {
					t.Errorf("candidate of epoch %d after the mark", cd.LoIdx)
				}
			}
		default:
			t.Errorf("unexpected %T after the mark", m)
		}
	}
	if items != 3*7 {
		t.Errorf("%d items after the mark, want %d", items, 3*7)
	}
}

// TestFlushSteadyStateReuse: after warm-up a pass grows nothing. Over
// 1,000 append → kick → flush cycles at a fixed burst size the ops,
// journal and candidate buffers must stay the two arrays per kind the
// warm-up left, and the cycle itself — take, encode, log, recycle —
// must allocate nothing that scales with the burst (the log is emptied
// into the pool between cycles, as a real run's buffers come out of it).
func TestFlushSteadyStateReuse(t *testing.T) {
	const burst = 100
	cc, c := looseClient(Batching{Interval: time.Hour, SnapshotEvery: -1})
	// No flusher goroutine: the test is the flusher.
	vc := []int32{1, 2}
	cycle := func() {
		for i := 0; i < burst; i++ {
			c.append(wire.TraceOp{Op: wire.TraceSet, Proc: 0, Name: "cs", Value: 1})
			c.journal(obs.Event{Name: "e", VC: vc})
		}
		for i := 0; i < burst/10; i++ {
			c.candidate(wire.Candidate{Lo: vc, Hi: vc})
		}
		select {
		case <-c.wake: // what the flusher goroutine would wake on
		default:
			t.Fatal("a burst with candidates left no kick pending")
		}
		c.flush()
		cc.out.mu.Lock()
		for _, b := range cc.out.frames {
			wire.PutBuffer(b)
		}
		cc.out.frames = cc.out.frames[:0]
		cc.out.mu.Unlock()
	}
	type arrays struct {
		ops             *wire.TraceOp
		journal         *wire.JournalEvent
		cands           *wire.Candidate
		nOps, nJ, nCand int
	}
	snapshot := func() [2]arrays {
		at := func(ops []wire.TraceOp, j []wire.JournalEvent, cd []wire.Candidate) arrays {
			return arrays{unsafe.SliceData(ops), unsafe.SliceData(j), unsafe.SliceData(cd), cap(ops), cap(j), cap(cd)}
		}
		return [2]arrays{at(c.ops, c.events, c.cands), at(c.spareOps, c.spareEvents, c.spareCands)}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	warm := snapshot()
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if got := snapshot(); got != warm {
		t.Errorf("the pass buffers moved or grew over 1,000 cycles:\n was %+v\n now %+v", warm, got)
	}
	// What is left is one boxed wire.Msg per frame logged (journal, ops,
	// candidates); a buffer regrown from nil would be a fourth.
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 3 && !raceEnabled {
		t.Errorf("a steady-state cycle allocates %.1f times, want at most 3 (one per frame)", allocs)
	}
}

// fakeRoot accepts a coordClient's connections one at a time. Each
// accepted connection is handed to the test with its handshake frame
// read; the test acks (or not) and reads what follows.
type fakeRoot struct {
	t  *testing.T
	ln net.Listener
}

type rootConn struct {
	net.Conn
	br    *bufio.Reader
	hello wire.Msg
}

func newFakeRoot(t *testing.T) *fakeRoot {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakeRoot{t: t, ln: ln}
}

func (r *fakeRoot) accept() *rootConn {
	r.t.Helper()
	r.ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	conn, err := r.ln.Accept()
	if err != nil {
		r.t.Fatalf("accept: %v", err)
	}
	r.t.Cleanup(func() { conn.Close() })
	rc := &rootConn{Conn: conn, br: bufio.NewReader(conn)}
	if _, rc.hello, err = wire.ReadFrame(rc.br); err != nil {
		r.t.Fatalf("handshake: %v", err)
	}
	return rc
}

// readSeqs reads frames until the stream ends or, with want > 0, that
// many have arrived, returning their sequence numbers.
func (rc *rootConn) readSeqs(t *testing.T, want int) []uint64 {
	t.Helper()
	var seqs []uint64
	for want <= 0 || len(seqs) < want {
		rc.SetReadDeadline(time.Now().Add(10 * time.Second))
		seq, _, err := wire.ReadFrame(rc.br)
		if err != nil {
			if want > 0 {
				t.Fatalf("stream ended after %d of %d frames: %v", len(seqs), want, err)
			}
			break
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// pendItems puts one pass's worth of journal events, ops and candidates
// on c: more than one frame of the first two.
func pendItems(c *capture) {
	for i := 0; i < c.batch.MaxItems+5; i++ {
		c.append(wire.TraceOp{Op: wire.TraceSet, Proc: 0, Name: "cs", Value: 1})
		c.journal(obs.Event{Name: "e"})
	}
	c.candidate(wire.Candidate{HiIdx: 1})
}

func (cc *coordClient) writeCount() int {
	cc.out.mu.Lock()
	defer cc.out.mu.Unlock()
	return cc.out.writes
}

// TestFlushPassIsOneWrite: a pass that logs journal, ops and candidate
// frames issues exactly one vectored write, and a resume replay of k
// frames issues ⌈k / writeChunk⌉ — not one write per frame.
func TestFlushPassIsOneWrite(t *testing.T) {
	root := newFakeRoot(t)
	opt := chaosTimeouts().withDefaults()
	cc, err := dialCoord(root.ln.Addr().String(), 1, 3, newWireMeters(nil, "coord"), opt, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	c := newCapture(cc, Config{ID: 1, Batching: Batching{Interval: time.Hour, SnapshotEvery: -1}}, 0, time.Now())
	c1 := root.accept()

	pendItems(c)
	frames, writes := cc.sentFrames(), cc.writeCount()
	c.flush()
	if got := cc.sentFrames() - frames; got != 5 {
		t.Fatalf("the pass logged %d frames, want 5 (2 journal, 2 ops, 1 candidates)", got)
	}
	if got := cc.writeCount() - writes; got != 1 {
		t.Errorf("the pass issued %d writes, want 1", got)
	}
	if seqs := c1.readSeqs(t, 5); !slices.Equal(seqs, []uint64{2, 3, 4, 5, 6}) { // behind the Hello, frame 1
		t.Errorf("the root read sequences %v", seqs)
	}

	// Grow the log to k frames with the stream down, then let the client
	// resume from an ack of 0: the whole log is replayed.
	const k = 2*writeChunk + 7
	c1.Close()
	for cc.sentFrames() < k {
		cc.logItems(wire.Done{Proc: 1}, 1)
	}
	writes = cc.writeCount()
	c2 := root.accept()
	if _, ok := c2.hello.(wire.Resume); !ok {
		t.Fatalf("second handshake is %T, want Resume", c2.hello)
	}
	if err := wire.WriteFrame(c2, 0, wire.ResumeAck{}); err != nil {
		t.Fatal(err)
	}
	seqs := c2.readSeqs(t, k)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("replayed frame %d carries sequence %d", i+1, seq)
		}
	}
	if got := cc.writeCount() - writes; got != 3 {
		t.Errorf("the replay of %d frames issued %d writes, want 3 (chunks of %d)", k, got, writeChunk)
	}
}

// TestFlushSeverMidPass drives a pass across a coordinator-stream sever
// with the fault shim, interleaving at the session: the pass logs its
// journal frames, and then — mid-pass — the partition window opens, a
// control frame finds the stream severed and drops it, the window heals
// and the resume replays the log and installs a fresh connection; only
// then does the pass log its ops and candidates and write. Every frame the
// pass logged before the install was delivered by the replay, so the
// pass must write only the ones after it: the root sees every sequence
// number exactly once, and the retransmit counter counts exactly the
// replayed frames.
func TestFlushSeverMidPass(t *testing.T) {
	root := newFakeRoot(t)
	opt := chaosTimeouts().withDefaults()
	reg := obs.NewRegistry()
	start := time.Now()
	window := Partition{Start: 150 * time.Millisecond, Dur: 60 * time.Millisecond, A: []int{1}, B: []int{1}, Coord: true}
	parts := newPartitions(Faults{Partitions: []Partition{window}}, start)
	cc, err := dialCoord(root.ln.Addr().String(), 1, 3, newWireMeters(reg, "coord"), opt, parts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	c := newCapture(cc, Config{ID: 1, Batching: Batching{Interval: time.Hour, SnapshotEvery: -1}}, 0, start)
	c1 := root.accept()

	// Frames 2 and 3 go out on the healthy stream, behind the Hello.
	cc.send(wire.Done{Proc: 1})
	cc.send(wire.Done{Proc: 1})
	if seqs := c1.readSeqs(t, 2); !slices.Equal(seqs, []uint64{2, 3}) {
		t.Fatalf("healthy stream carried %v", seqs)
	}

	// The pass, split where the sever lands: flush's steps, in its order.
	pendItems(c)
	logBatches(c, c.events, func(b []wire.JournalEvent) wire.Msg { return wire.JournalBatch{Events: b} })

	// Mid-pass: the journal frames are logged, nothing is written.
	time.Sleep(time.Until(start.Add(window.Start + 5*time.Millisecond)))
	cc.send(wire.Done{Proc: 1}) // finds the stream severed, drops it
	c2 := root.accept()         // the resume, once the window heals
	replayed := int(cc.sentFrames()) - 3
	if err := wire.WriteFrame(c2, 0, wire.ResumeAck{Cum: 3}); err != nil {
		t.Fatal(err)
	}
	// Wait for the install, so the rest of the pass meets a live
	// connection whose replay already covered the journal frames.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		cc.out.mu.Lock()
		up := cc.out.conn != nil
		cc.out.mu.Unlock()
		if up || time.Now().After(deadline) {
			break
		}
	}

	logBatches(c, c.ops, func(b []wire.TraceOp) wire.Msg { return wire.TraceOpBatch{Ops: b} })
	logBatches(c, c.cands, func(b []wire.Candidate) wire.Msg { return wire.CandidateBatch{Cands: b} })
	cc.writeLogged() // 2 journal frames, [sever, Done, resume], 2 ops frames, 1 candidates frame

	total := int(cc.sentFrames())
	if total != 1+2+2+1+2+1 {
		t.Fatalf("the log holds %d frames, want 9", total)
	}
	// The old connection carried nothing new before it was dropped.
	if extra := c1.readSeqs(t, 0); len(extra) != 0 {
		t.Errorf("the severed connection still carried %v", extra)
	}
	seqs := c2.readSeqs(t, total-3)
	for i, seq := range seqs {
		if seq != uint64(i+4) {
			t.Fatalf("after the resume the root read %v, want 4..%d exactly once each", seqs, total)
		}
	}
	// Nothing follows: a second copy of a replayed frame would.
	c2.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if seq, m, err := wire.ReadFrame(c2.br); err == nil {
		t.Errorf("a further frame arrived: seq %d, %T", seq, m)
	}
	if replayed != 3 {
		t.Fatalf("the resume found %d frames past the ack, want 3 (2 journal, 1 Done)", replayed)
	}
	retx := reg.Counter("predctl_wire_retransmits_total", obs.L("stream", "coord")).Value()
	if retx != int64(replayed) {
		t.Errorf("predctl_wire_retransmits_total = %d, want %d (the replayed frames only)", retx, replayed)
	}
}
