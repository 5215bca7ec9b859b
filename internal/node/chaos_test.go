package node

// chaos_test.go pins the failure modes the chaos work added — node
// crash-restart with controlled re-execution, partition windows
// (mesh and coordinator-stream), and coordinator session resume — plus
// regression tests for the three crash-path bugs the chaos runs
// exposed: Send panicking on an invalid peer, dialCoord's hardcoded
// deadline with constant backoff, and the coordClient reader treating
// a broken stream as Shutdown.

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// chaosTimeouts extends testTimeouts with a snappy partition probe and
// a CI-generous coordinator dial deadline.
func chaosTimeouts() Timeouts {
	t := testTimeouts()
	t.IdleTimeout = 25 * time.Millisecond
	t.BackoffMax = 50 * time.Millisecond
	t.CoordDeadline = 20 * time.Second
	return t
}

// TestSendInvalidPeer is the regression test for the Send panic: an
// out-of-mesh peer id must come back as an error and a
// predctl_send_invalid_peer_total increment, and the transport must
// stay fully usable afterwards.
func TestSendInvalidPeer(t *testing.T) {
	reg := obs.NewRegistry()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ts := make([]*Transport, 2)
	for i := range ts {
		cfg := TransportConfig{ID: i, N: 2, Addrs: addrs, Listener: lns[i], Timeouts: testTimeouts()}
		if i == 0 {
			cfg.Reg = reg
		}
		tr, err := NewTransport(cfg)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		ts[i] = tr
	}
	defer ts[0].Close()
	defer ts[1].Close()

	for _, to := range []int{-1, 2, 0 /* self */} {
		if err := ts[0].Send(to, wire.Ctl{From: 0, To: int32(to)}); err == nil {
			t.Fatalf("Send(%d) accepted an invalid peer", to)
		}
	}
	if got := reg.Counter("predctl_send_invalid_peer_total").Value(); got != 3 {
		t.Fatalf("predctl_send_invalid_peer_total = %d, want 3", got)
	}
	// The bad sends must not have damaged the mesh.
	if err := ts[0].Send(1, wire.Ctl{From: 0, To: 1, TraceID: 7}); err != nil {
		t.Fatalf("valid Send after invalid ones: %v", err)
	}
	got := drain(t, ts[1], 1)
	if c := got[0].Msg.(wire.Ctl); c.TraceID != 7 {
		t.Fatalf("delivered TraceID %d, want 7", c.TraceID)
	}
}

// TestDialCoordWaitsForSlowCoordinator is the regression test for the
// hardcoded DialTimeout*5 deadline: a coordinator that comes up late
// must be reached by the backoff campaign as long as it appears within
// CoordDeadline.
func TestDialCoordWaitsForSlowCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody home until the goroutine below rebinds

	accepted := make(chan net.Conn, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	opt := chaosTimeouts().withDefaults()
	begin := time.Now()
	cc, err := dialCoord(addr, 0, 2, newWireMeters(nil, "coord"), opt, nil, t.Logf)
	if err != nil {
		t.Fatalf("dialCoord gave up on a slow coordinator: %v", err)
	}
	defer cc.close()
	if waited := time.Since(begin); waited < 50*time.Millisecond {
		t.Fatalf("dial succeeded after %v with no listener up before 100ms", waited)
	}
	conn := <-accepted
	defer conn.Close()
	seq, m, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read handshake: %v", err)
	}
	h, ok := m.(wire.Hello)
	if !ok || seq != 1 || h.From != 0 || h.N != 2 || h.Inc == 0 {
		t.Fatalf("handshake = seq %d %#v, want frame 1 Hello{From:0, N:2} with an incarnation", seq, m)
	}
}

// TestDialCoordDeadline pins the other half of the fix: the campaign
// gives up at the configured CoordDeadline, not at some hardcoded
// multiple of DialTimeout.
func TestDialCoordDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opt := chaosTimeouts()
	opt.CoordDeadline = 100 * time.Millisecond
	opt = opt.withDefaults()
	begin := time.Now()
	if _, err := dialCoord(addr, 0, 2, newWireMeters(nil, "coord"), opt, nil, t.Logf); err == nil {
		t.Fatal("dialCoord reached a dead address")
	}
	if waited := time.Since(begin); waited > 2*time.Second {
		t.Fatalf("dialCoord took %v to give up on a 100ms deadline", waited)
	}
}

// TestCoordClientResumesAfterStreamBreak is the regression test for
// the reader-treats-break-as-Shutdown bug: when the established stream
// dies the client must redial, offer Resume, retransmit everything the
// coordinator missed, and keep the session open — not signal shutdown
// and truncate the capture.
func TestCoordClientResumesAfterStreamBreak(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	opt := chaosTimeouts().withDefaults()
	cc, err := dialCoord(ln.Addr().String(), 1, 3, newWireMeters(nil, "coord"), opt, nil, t.Logf)
	if err != nil {
		t.Fatalf("dialCoord: %v", err)
	}
	defer cc.close()

	c1, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	br1 := bufio.NewReader(c1)
	if seq, m, err := wire.ReadFrame(br1); err != nil {
		t.Fatalf("read Hello: %v", err)
	} else if _, ok := m.(wire.Hello); !ok || seq != 1 {
		t.Fatalf("first frame seq %d %T, want Hello as frame 1", seq, m)
	}

	// One frame delivered on the healthy stream.
	cc.send(wire.Done{Proc: 1, Requests: 4})
	if seq, m, err := wire.ReadFrame(br1); err != nil || seq != 2 {
		t.Fatalf("frame 2: seq=%d err=%v", seq, err)
	} else if d := m.(wire.Done); d.Requests != 4 {
		t.Fatalf("frame 2 = %#v", d)
	}

	// Break the stream, then queue a frame while disconnected.
	c1.Close()
	cc.send(wire.Candidate{Proc: 1, LoIdx: 2, HiIdx: 3})

	// The client must come back with Resume{Epoch:0}.
	c2, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept resume: %v", err)
	}
	defer c2.Close()
	br2 := bufio.NewReader(c2)
	_, m, err := wire.ReadFrame(br2)
	if err != nil {
		t.Fatalf("read Resume: %v", err)
	}
	r, ok := m.(wire.Resume)
	if !ok || r.From != 1 || r.Epoch != 0 {
		t.Fatalf("resume handshake = %#v, want Resume{From:1, Epoch:0}", m)
	}
	// Claim we saw nothing: the whole session log must be replayed.
	if err := wire.WriteFrame(c2, 0, wire.ResumeAck{Cum: 0, Epoch: 0}); err != nil {
		t.Fatalf("write ResumeAck: %v", err)
	}
	wantSeqs := []uint64{1, 2, 3}
	for _, want := range wantSeqs {
		seq, _, err := wire.ReadFrame(br2)
		if err != nil {
			t.Fatalf("replayed frame %d: %v", want, err)
		}
		if seq != want {
			t.Fatalf("replayed seq %d, want %d", seq, want)
		}
	}
	// New traffic continues the sequence on the resumed connection.
	cc.send(wire.Done{Proc: 1, Requests: 5})
	if seq, _, err := wire.ReadFrame(br2); err != nil || seq != 4 {
		t.Fatalf("post-resume frame: seq=%d err=%v", seq, err)
	}
	switch d := cc.decisions(); {
	case d.shutdown:
		t.Fatal("stream break was treated as Shutdown")
	case d.committed:
		t.Fatal("stream break was treated as Commit")
	}
}

// TestCoordClientResumesAfterRetransmitFails: a resume whose
// retransmit dies mid-write only drops the connection, and the session
// resumes again instead of ending. The root stand-in acks the first
// Resume with Cum = 0 and resets the connection while a multi-MB
// backlog is being written; the second resume's replay must carry every
// logged frame, 1..k, in order.
func TestCoordClientResumesAfterRetransmitFails(t *testing.T) {
	root := newFakeRoot(t)
	cc, err := dialCoord(root.ln.Addr().String(), 1, 3, newWireMeters(nil, "coord"), chaosTimeouts().withDefaults(), nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	c1 := root.accept()

	// Break the stream, and log more than the kernel buffers hold while
	// it is down.
	c1.Close()
	for i := 0; i < 32; i++ {
		cc.logItems(bulk, 1)
	}
	k := int(cc.sentFrames())
	c2 := root.accept()
	if err := wire.WriteFrame(c2, 0, wire.ResumeAck{}); err != nil {
		t.Fatal(err)
	}
	stalls(t, &cc.out)
	c2.Conn.(*net.TCPConn).SetLinger(0)
	c2.Close()

	c3 := root.accept()
	if _, ok := c3.hello.(wire.Resume); !ok {
		t.Fatalf("third handshake is %T, want Resume", c3.hello)
	}
	if err := wire.WriteFrame(c3, 0, wire.ResumeAck{}); err != nil {
		t.Fatal(err)
	}
	for i, seq := range c3.readSeqs(t, k) {
		if seq != uint64(i+1) {
			t.Fatalf("replayed frame %d carries sequence %d", i+1, seq)
		}
	}
}

// TestCloseDuringResume: close must not wait on a resume it overtook.
// The fake root accepts the Resume and holds the ResumeAck until close
// has begun, then acks and keeps the connection open — a connection the
// resume installed after close had run would be read by nobody's
// deadline but the peer's, and close would wait for it.
func TestCloseDuringResume(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	opt := chaosTimeouts().withDefaults()
	cc, err := dialCoord(ln.Addr().String(), 1, 3, newWireMeters(nil, "coord"), opt, nil, t.Logf)
	if err != nil {
		t.Fatalf("dialCoord: %v", err)
	}
	c1, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	c1.Close() // break the stream: the client resumes

	c2, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept resume: %v", err)
	}
	defer c2.Close()
	if _, m, err := wire.ReadFrame(bufio.NewReader(c2)); err != nil {
		t.Fatalf("read Resume: %v", err)
	} else if _, ok := m.(wire.Resume); !ok {
		t.Fatalf("resume handshake = %T, want Resume", m)
	}

	closed := make(chan struct{})
	go func() {
		cc.close()
		close(closed)
	}()
	<-cc.quit
	if err := wire.WriteFrame(c2, 0, wire.ResumeAck{Cum: 0, Epoch: 0}); err != nil {
		t.Fatalf("write ResumeAck: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("close still waiting 3 s after the resume it overtook was acked")
	}
}

// appEvents is the deterministic trace length of one application
// process: TraceInit plus, per round, mayFalse send, grant recv,
// cs=1, cs=0 and nowTrue send.
func appEvents(rounds int) int { return 1 + 5*rounds }

// checkFullCapture asserts the run lost no capture: every app process
// carries exactly the fault-free event count and every node reports
// every round, which is only possible if the final epoch's stream
// arrived complete.
func checkFullCapture(t *testing.T, res *Result, n, rounds int) {
	t.Helper()
	if res.Deposet.NumProcs() != 2*n {
		t.Fatalf("captured %d processes, want %d", res.Deposet.NumProcs(), 2*n)
	}
	for p := 0; p < n; p++ {
		if got := res.Deposet.Len(p); got != appEvents(rounds) {
			t.Errorf("app process %d captured %d events, want %d (fault-free count)", p, got, appEvents(rounds))
		}
	}
	for i, s := range res.Stats {
		if s.Requests != rounds {
			t.Errorf("node %d reports %d requests, want %d", i, s.Requests, rounds)
		}
	}
	if res.Candidates != n*rounds {
		t.Errorf("%d candidate reports, want %d", res.Candidates, n*rounds)
	}
}

// TestClusterCoordPartitionResume severs one node's coordinator stream
// mid-run (a Coord partition window that leaves the mesh intact) and
// requires the capture to assemble complete after the heal: the
// buffered frames — including the node's Done and bye — ride the
// session-resume replay.
func TestClusterCoordPartitionResume(t *testing.T) {
	const n, rounds = 3, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 61, Timeouts: chaosTimeouts(),
		Faults: Faults{Partitions: []Partition{
			// A == B makes severs() vacuous on the mesh; only the Coord
			// flag bites, isolating the capture-stream path under test.
			{Start: 10 * time.Millisecond, Dur: 40 * time.Millisecond, A: []int{1}, B: []int{1}, Coord: true},
		}},
	})
	if res.Restarts != 0 {
		t.Fatalf("a partition (no crash) triggered %d restarts", res.Restarts)
	}
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCrashRestart kills a node mid-run and requires the full
// §8 recovery story: the relaunch rejoins via Hello, the coordinator
// orders a controlled re-execution, and the final capture is
// indistinguishable in event count from a fault-free run.
func TestClusterCrashRestart(t *testing.T) {
	const n, rounds = 3, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: chaosTimeouts(),
		Crashes: []Crash{{At: 5 * time.Millisecond, Node: 1, Down: 5 * time.Millisecond}},
	})
	if res.Restarts < 1 {
		t.Fatalf("crash schedule produced %d restarts, want ≥ 1", res.Restarts)
	}
	if res.Epoch < 1 {
		t.Fatalf("run completed at epoch %d after a restart", res.Epoch)
	}
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)

	// The final epoch's capture must match a fault-free run of the same
	// workload event for event (app processes are deterministic; the
	// fault-free totals are asserted by checkFullCapture on both).
	free, _, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: chaosTimeouts(),
	})
	checkFullCapture(t, free, n, rounds)
	for p := 0; p < n; p++ {
		if res.Deposet.Len(p) != free.Deposet.Len(p) {
			t.Errorf("app process %d: crashed run captured %d events, fault-free %d",
				p, res.Deposet.Len(p), free.Deposet.Len(p))
		}
	}

	// Each node began the surviving epoch with its own restart marker,
	// carried in that epoch's capture: exactly one on its controller's
	// row, naming the epoch. The root's annotation (Proc -1) is another
	// row and does not count.
	for id := 0; id < n; id++ {
		var marks []int64
		for _, ev := range j.Events() {
			if ev.Name == obs.EvEpochRestart && ev.Proc == n+id && ev.A == int64(id) {
				marks = append(marks, ev.C)
			}
		}
		if len(marks) != 1 || marks[0] != int64(res.Epoch) {
			t.Errorf("node %d: restart markers for epochs %v in the merged journal, want exactly [%d]", id, marks, res.Epoch)
		}
	}

	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCrashRestartBundle is TestClusterCrashRestart's schedule
// with capture spilling to the trace store: the controlled re-execution
// through the store. The bundle keeps the voided execution's records,
// and still reassembles to exactly the deposet Wait returned.
func TestClusterCrashRestartBundle(t *testing.T) {
	const n, rounds = 3, 3
	dir := t.TempDir()
	res, _, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: chaosTimeouts(), StoreDir: dir,
		Crashes: []Crash{{At: 5 * time.Millisecond, Node: 1, Down: 5 * time.Millisecond}},
	})
	if res.Restarts < 1 || res.Epoch < 1 {
		t.Fatalf("crash schedule completed at epoch %d after %d restarts, want ≥ 1 each", res.Epoch, res.Restarts)
	}
	checkFullCapture(t, res, n, rounds)
	d, man, err := AssembleBundle(dir)
	if err != nil {
		t.Fatalf("AssembleBundle: %v", err)
	}
	if man.Epoch != res.Epoch {
		t.Fatalf("bundle sealed at epoch %d, the run completed at %d", man.Epoch, res.Epoch)
	}
	if !bytes.Equal(encodeTrace(t, &Result{Deposet: d}), encodeTrace(t, res)) {
		t.Error("bundle trace differs from Wait's")
	}
	voided := 0
	if _, err := store.ReplayBundle(dir, func(rec wire.SegmentRecord, _ uint64, _ wire.Msg) error {
		if rec.Epoch != man.Epoch {
			voided++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if voided == 0 {
		t.Error("the bundle holds no record of the voided execution; the epoch filter went untested")
	}
}

// TestChaosSoak is the -race soak: a seeded schedule of crashes plus a
// mesh partition and a coordinator-stream partition, on top of the
// probabilistic fault shim, and the run must still complete with zero
// capture loss and the paper's invariants green. (`pcbench chaos` runs
// the scaled-up version of this for 60s; this keeps the race detector
// on the same code paths every CI run.)
func TestChaosSoak(t *testing.T) {
	const n, rounds = 4, 3
	cfg := ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 42, Timeouts: chaosTimeouts(),
		Faults: Faults{
			Drop: 0.1, Delay: 500 * time.Microsecond, Seed: 42,
			Partitions: []Partition{
				{Start: 8 * time.Millisecond, Dur: 15 * time.Millisecond, A: []int{0}},
				{Start: 30 * time.Millisecond, Dur: 20 * time.Millisecond, A: []int{2}, B: []int{2}, Coord: true},
			},
		},
		Crashes: []Crash{
			{At: 5 * time.Millisecond, Node: 1, Down: 3 * time.Millisecond},
			{At: 14 * time.Millisecond, Node: 2},
			{At: 24 * time.Millisecond, Node: 3, Down: 5 * time.Millisecond},
		},
	}
	res, j, _ := runTestCluster(t, cfg)
	if res.Restarts < 2 {
		t.Fatalf("soak schedule produced %d restarts, want ≥ 2", res.Restarts)
	}
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChain(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRejectsOutOfRangeTargets: a scapegoat, relay count, crash
// schedule or rogue list naming a node or relay the cluster does not
// have, and a fault schedule the shim cannot run, are refused at once,
// before anything is bound or started — the store directory is not
// even created. An unchecked scapegoat used to fail every node's Run
// before it dialed, which surfaced only at the two-minute WaitTimeout;
// a Drop of 1 stalled the run for as long.
func TestClusterRejectsOutOfRangeTargets(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		want string
	}{
		{"scapegoat", ClusterConfig{Scapegoat: 5}, "scapegoat 5 is not a node of 3"},
		{"negative scapegoat", ClusterConfig{Scapegoat: -1}, "scapegoat -1 is not a node of 3"},
		{"negative relays", ClusterConfig{Relays: -2}, "relays -2 is negative"},
		{"more relays than nodes", ClusterConfig{Relays: 4}, "relays 4 exceed the 3 nodes"},
		{"node crash", ClusterConfig{Crashes: []Crash{{Node: 3}}}, "crash schedule targets node 3 of 3"},
		{"negative node crash", ClusterConfig{Crashes: []Crash{{Node: 1}, {Node: -1}}}, "crash schedule targets node -1 of 3"},
		{"relay crash", ClusterConfig{Relays: 2, RelayCrashes: []Crash{{Node: 2}}}, "relay crash schedule targets relay 2 of 2"},
		{"relay crash without relays", ClusterConfig{RelayCrashes: []Crash{{Node: 0}}}, "relay crash schedule targets relay 0 of 0"},
		{"rogue", ClusterConfig{Rogues: []int{0, 7}}, "rogue list targets node 7 of 3"},
		{"drop 1", ClusterConfig{Faults: Faults{Drop: 1}}, "drop 1 is outside [0, 1)"},
		{"negative drop", ClusterConfig{Faults: Faults{Drop: -0.5}}, "drop -0.5 is outside [0, 1)"},
		{"dup", ClusterConfig{Faults: Faults{Dup: 1.5}}, "dup 1.5 is outside [0, 1]"},
		{"negative delay", ClusterConfig{Faults: Faults{Delay: -time.Millisecond}}, "delay -1ms is negative"},
		{"negative jitter", ClusterConfig{Faults: Faults{Jitter: -time.Millisecond}}, "jitter -1ms is negative"},
		{"partition start", ClusterConfig{Faults: Faults{Partitions: []Partition{{Start: -time.Millisecond, Dur: time.Millisecond, A: []int{0}}}}}, "partition 0: start -1ms is negative"},
		{"partition dur", ClusterConfig{Faults: Faults{Partitions: []Partition{{Dur: time.Millisecond, A: []int{0}}, {A: []int{0}}}}}, "partition 1: dur 0s is not positive"},
		{"partition without a", ClusterConfig{Faults: Faults{Partitions: []Partition{{Dur: time.Millisecond}}}}, "partition 0: a is empty"},
		{"partition a", ClusterConfig{Faults: Faults{Partitions: []Partition{{Dur: time.Millisecond, A: []int{7}}}}}, "partition 0: node 7 is not one of 3"},
		{"partition b", ClusterConfig{Faults: Faults{Partitions: []Partition{{Dur: time.Millisecond, A: []int{0}, B: []int{1, -1}}}}}, "partition 0: node -1 is not one of 3"},
	} {
		before := runtime.NumGoroutine()
		tc.cfg.N = 3
		tc.cfg.StoreDir = filepath.Join(t.TempDir(), "store")
		begin := time.Now()
		_, err := RunCluster(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("%s: refused after %v, want < 1s", tc.name, took)
		}
		if _, serr := os.Stat(tc.cfg.StoreDir); !os.IsNotExist(serr) {
			t.Errorf("%s: store directory exists (%v): the run started before the check", tc.name, serr)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before, %d after a refused run", tc.name, before, after)
		}
	}
}
