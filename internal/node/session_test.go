package node

import (
	"bufio"
	"errors"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"predctl/internal/wire"
)

// session_test.go pins the shared inbound session layer: the sequence
// gate's verdicts, and the one-step accept-and-stage that a superseding
// connection must wait out.

// pipeConn is a coordConn over an in-memory pipe: adoption closes the
// connection it supersedes, so the gate tests need real ones.
func pipeConn(t *testing.T) *coordConn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &coordConn{Conn: a}
}

// adopt is a handshake's adoption: adoptLocked under the stream's
// ingestMu.
func adopt(in *inbound, conn *coordConn, fresh bool, seq uint64) uint64 {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	return in.adoptLocked(conn, fresh, seq)
}

func TestInboundDeliverVerdicts(t *testing.T) {
	conn := pipeConn(t)
	for _, tc := range []struct {
		name    string
		relayed bool   // deliver with a nil conn: monotone mode
		last    uint64 // the stream's state going in
		seq     uint64
		staged  bool // fn ran
		refused bool // deliver returned an error: the connection is dropped
	}{
		{name: "next frame accepted", last: 4, seq: 5, staged: true},
		{name: "duplicate dropped", last: 4, seq: 4},
		{name: "older duplicate dropped", last: 4, seq: 1},
		{name: "gap drops the connection", last: 4, seq: 6, refused: true},
		{name: "relayed next frame accepted", relayed: true, last: 4, seq: 5, staged: true},
		{name: "relayed duplicate dropped", relayed: true, last: 4, seq: 4},
		{name: "relayed gap accepted", relayed: true, last: 4, seq: 9, staged: true},
	} {
		in := &inbound{}
		adopt(in, conn, true, tc.last)
		via := conn
		if tc.relayed {
			via = nil
		}
		staged := false
		err := in.deliver(via, tc.seq, func() { staged = true })
		if staged != tc.staged || (err != nil) != tc.refused {
			t.Errorf("%s: staged=%v err=%v, want staged=%v refused=%v", tc.name, staged, err, tc.staged, tc.refused)
		}
		want := tc.last
		if tc.staged {
			want = tc.seq
		}
		if in.lastSeq != want {
			t.Errorf("%s: lastSeq %d, want %d", tc.name, in.lastSeq, want)
		}
	}
}

// TestInboundAdoptResets pins the numbering across handshakes: a resume
// keeps the cumulative sequence (and acks it), a fresh Hello restarts it
// at the Hello's own sequence, a non-resume RelayHello at zero.
func TestInboundAdoptResets(t *testing.T) {
	in := &inbound{}
	first, second, third := pipeConn(t), pipeConn(t), pipeConn(t)
	if in.attached {
		t.Fatal("a stream nobody handshook for is attached")
	}
	adopt(in, first, true, 1) // Hello carried sequence 1
	for seq := uint64(2); seq <= 4; seq++ {
		if err := in.deliver(first, seq, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if cum := adopt(in, second, false, 0); cum != 4 || !in.attached {
		t.Fatalf("resume acked %d (attached=%v), want 4", cum, in.attached)
	}
	if err := in.deliver(first, 5, func() {}); !errors.Is(err, errSuperseded) {
		t.Fatalf("superseded connection delivered: %v", err)
	}
	if cum := adopt(in, third, true, 0); cum != 0 {
		t.Fatalf("fresh handshake acked %d, want 0", cum)
	}
	staged := false
	if err := in.deliver(third, 1, func() { staged = true }); err != nil || !staged {
		t.Fatalf("first frame after a reset: staged=%v err=%v", staged, err)
	}
}

// TestInboundSupersedeWaitsForStaging is the drift defect the shared
// gate removes (the relay copies bumped the sequence, unlocked, then
// staged): a handler is parked inside deliver staging frame k while a
// second connection adopts the stream and delivers k+1. The adoption
// must wait for k to land, the staging order must be k, k+1, and the
// superseded connection's next frame must be refused.
func TestInboundSupersedeWaitsForStaging(t *testing.T) {
	in := &inbound{}
	old, succ := pipeConn(t), pipeConn(t)
	adopt(in, old, true, 0)
	const k = 1

	var order []uint64 // written only inside deliver: the gate orders it
	parked, release := make(chan struct{}), make(chan struct{})
	oldDone := make(chan error, 1)
	go func() {
		oldDone <- in.deliver(old, k, func() {
			close(parked)
			<-release
			order = append(order, k)
		})
	}()
	<-parked

	adopted := make(chan uint64, 1)
	succDone := make(chan error, 1)
	go func() {
		cum := adopt(in, succ, false, 0)
		adopted <- cum
		succDone <- in.deliver(succ, cum+1, func() { order = append(order, cum+1) })
	}()
	select {
	case cum := <-adopted:
		t.Fatalf("adoption (cum %d) did not wait for frame %d to be staged", cum, k)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-oldDone; err != nil {
		t.Fatalf("in-flight frame: %v", err)
	}
	if cum := <-adopted; cum != k {
		t.Fatalf("adoption acked %d, want %d", cum, k)
	}
	if err := <-succDone; err != nil {
		t.Fatalf("successor's frame: %v", err)
	}
	if len(order) != 2 || order[0] != k || order[1] != k+1 {
		t.Fatalf("staging order %v, want [%d %d]", order, k, k+1)
	}
	if err := in.deliver(old, k+2, func() { t.Error("superseded connection staged a frame") }); !errors.Is(err, errSuperseded) {
		t.Fatalf("superseded connection's next frame: %v, want errSuperseded", err)
	}
}

// TestHandshakeNotOvertakenByBroadcast: a decision broadcast while a
// Resume handshake is in progress must not reach the new connection
// ahead of its ResumeAck — the client reads the ack first and treats
// anything else as a failed resume, which ends its session for good.
// Adoption and replay are one step under the session's ingestMu and the
// decision lock, so the broadcast either misses the connection (and the
// replay carries the decision) or follows the ack.
func TestHandshakeNotOvertakenByBroadcast(t *testing.T) {
	c, err := NewCoordinator(CoordConfig{N: 2, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st := c.sessions[0]
	st.ingestMu.Lock()
	if err := wire.WriteFrame(conn, 0, wire.Resume{From: 0, N: 2}); err != nil {
		t.Fatal(err)
	}
	// Give the handler time to read the Resume and reach the session's
	// lock; too short a wait can only make the test pass vacuously.
	time.Sleep(50 * time.Millisecond)
	c.mu.Lock()
	c.carry(nil, out{all: c.core.decide(wire.Shutdown{})})
	c.mu.Unlock()
	st.ingestMu.Unlock()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufReader(conn)
	_, first, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.(wire.ResumeAck); !ok {
		t.Fatalf("first handshake reply is %T, want ResumeAck", first)
	}
	if _, second, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := second.(wire.Shutdown); !ok {
		t.Fatalf("replayed decision is %T, want Shutdown", second)
	}
}

// TestRelayHandshakeNotOvertakenByFanOut is the relay's twin of
// TestHandshakeNotOvertakenByBroadcast: a child's adoption and replay,
// and the fan-out of a root decision the uplink folds, are each one step
// under the uplink's decMu, so the child reads its ResumeAck first.
func TestRelayHandshakeNotOvertakenByFanOut(t *testing.T) {
	c, err := NewCoordinator(CoordConfig{N: 2, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: 2, Upstream: c.Addr(), Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	r.cc.decMu.Lock()
	if err := wire.WriteFrame(conn, 0, wire.Resume{From: 0, N: 2}); err != nil {
		t.Fatal(err)
	}
	// Give the child handler time to reach the decision lock; too short
	// a wait can only make the test pass vacuously.
	time.Sleep(50 * time.Millisecond)
	// What fold does with the root's Shutdown, under the lock it holds.
	r.cc.dec.shutdown = true
	r.cc.fanOut(wire.Shutdown{})
	r.cc.decMu.Unlock()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufReader(conn)
	if _, first, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := first.(wire.ResumeAck); !ok {
		t.Fatalf("first handshake reply is %T, want ResumeAck", first)
	}
	if _, second, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := second.(wire.Shutdown); !ok {
		t.Fatalf("replayed decision is %T, want Shutdown", second)
	}
}

// TestRelayFoldNotBlockedByUplinkWrite: a child handler that logs
// onto the uplink — behind a write stuck on a root that reads nothing —
// must not hold the uplink's decMu while it does, or the relay stops
// folding the root's decisions and no child hears them. With the
// uplink write stalled, the test opens a child whose Hello must be
// sequenced onto the log, and requires the fold of a Shutdown to return
// and fan out to an already resumed child.
func TestRelayFoldNotBlockedByUplinkWrite(t *testing.T) {
	r := stalledRelay(t)
	dial := func(hs wire.Msg) net.Conn {
		conn, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := wire.WriteFrame(conn, 0, hs); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	resumed := dial(wire.Resume{From: 1, N: stalledRelayN})
	resumed.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufReader(resumed)
	if _, m, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(wire.ResumeAck); !ok {
		t.Fatalf("handshake reply is %T, want ResumeAck", m)
	}

	// Adoption comes before the Hello is sequenced: once it shows, the
	// handler is about to log onto the uplink.
	dial(wire.Hello{From: 2, N: stalledRelayN, Inc: 1})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ch := r.children[2]
		ch.mu.Lock()
		adopted := ch.owner != nil
		ch.mu.Unlock()
		if adopted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the relay never adopted the second child")
		}
	}
	folded := make(chan struct{})
	go func() {
		r.cc.fold(wire.Shutdown{})
		close(folded)
	}()
	select {
	case <-folded:
	case <-time.After(2 * time.Second):
		t.Fatal("the fold waited behind the uplink write")
	}
	if _, m, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(wire.Shutdown); !ok {
		t.Fatalf("fanned-out decision is %T, want Shutdown", m)
	}
}

// TestFoldInvertsReplay: folding what a resume handshake replays
// yields the state the root replayed, for every decisions value the
// root can build. A Shutdown naming another epoch and an older Restart,
// ReExec or ResumeAck change nothing, and advancing the epoch voids a
// pending Shutdown.
func TestFoldInvertsReplay(t *testing.T) {
	det := &wire.Detection{Epoch: 1, Node: 1, AtNs: 7, Cut: []int64{3, 0, 4, 1}}
	for epoch := uint32(0); epoch <= 2; epoch++ {
		for _, shutdown := range []bool{false, true} {
			for _, committed := range []bool{false, true} {
				for _, detection := range []*wire.Detection{nil, det} {
					d := decisions{epoch: epoch, shutdown: shutdown, committed: committed, detection: detection}
					if detection != nil {
						d.answered = []uint64{5, 3}
					}
					var got decisions
					for _, m := range d.replay(9) {
						if !got.fold(m) {
							t.Fatalf("replay sent %T, not a decision", m)
						}
					}
					if !reflect.DeepEqual(got, d) {
						t.Fatalf("fold(replay(%+v)) = %+v", d, got)
					}
					stale := []wire.Msg{wire.Shutdown{Epoch: epoch + 1}}
					if epoch > 0 {
						stale = append(stale, wire.Shutdown{Epoch: epoch - 1},
							wire.Restart{Epoch: epoch - 1}, wire.ReExec{Epoch: epoch - 1}, wire.ResumeAck{Epoch: epoch - 1})
					}
					for _, inc := range d.answered {
						stale = append(stale, wire.Restart{Epoch: epoch, Inc: inc})
					}
					for _, m := range stale {
						got.fold(m)
						if !reflect.DeepEqual(got, d) {
							t.Fatalf("%+v: folding %T%+v changed it to %+v", d, m, m, got)
						}
					}
				}
			}
		}
	}
	for _, m := range []wire.Msg{wire.Restart{Epoch: 2}, wire.ReExec{Epoch: 2}, wire.ResumeAck{Epoch: 2}} {
		got := decisions{epoch: 1, shutdown: true}
		got.fold(m)
		if want := (decisions{epoch: 2}); !reflect.DeepEqual(got, want) {
			t.Errorf("folding %T%+v over a pending Shutdown: %+v, want %+v", m, m, got, want)
		}
	}
}

// TestIncarnationStep: a node's step on its folded decisions. A held
// incarnation starts only on its own answer, at the epoch it folded; a
// Restart for everyone, a relay's resume ack fanned out as one, or
// another incarnation's answer releases nothing. Commit stands a held
// relaunch down and ends every other phase; a newer epoch restarts a
// started incarnation, byed or not; a Shutdown at its epoch byes a
// running one, once.
func TestIncarnationStep(t *testing.T) {
	fold := func(ms ...wire.Msg) decisions {
		var d decisions
		for _, m := range ms {
			d.fold(m)
		}
		return d
	}
	held := incarnation{inc: 7}
	for _, tc := range []struct {
		name string
		s    incarnation
		d    decisions
		want incarnation
	}{
		{"nothing folded", held, decisions{}, held},
		{"another node's Restart", held, fold(wire.Restart{Epoch: 1}), held},
		{"a relay's resume ack", held, fold(wire.ResumeAck{Epoch: 2}), held},
		{"another incarnation's answer", held, fold(wire.Restart{Epoch: 1, Inc: 5}), held},
		{"its answer", held, fold(wire.Restart{Epoch: 0, Inc: 7}), incarnation{inc: 7, phase: running}},
		{"its answer, then a later Restart", held, fold(wire.Restart{Epoch: 1, Inc: 7}, wire.Restart{Epoch: 2}),
			incarnation{inc: 7, phase: running, epoch: 2}},
		{"the refusal", held, fold(wire.Shutdown{Epoch: 3}, wire.Commit{}), incarnation{inc: 7, phase: gone}},
		{"a restart", incarnation{inc: 7, phase: running, epoch: 1}, fold(wire.Restart{Epoch: 2, Inc: 7}),
			incarnation{inc: 7, phase: running, epoch: 2}},
		{"a restart after the bye", incarnation{inc: 7, phase: byed, epoch: 1}, fold(wire.Restart{Epoch: 2, Inc: 7}),
			incarnation{inc: 7, phase: running, epoch: 2}},
		{"its Shutdown", incarnation{inc: 7, phase: running, epoch: 1}, fold(wire.Restart{Epoch: 1, Inc: 7}, wire.Shutdown{Epoch: 1}),
			incarnation{inc: 7, phase: byed, epoch: 1}},
		{"byed already", incarnation{inc: 7, phase: byed, epoch: 1}, fold(wire.Restart{Epoch: 1, Inc: 7}, wire.Shutdown{Epoch: 1}),
			incarnation{inc: 7, phase: byed, epoch: 1}},
		{"Commit", incarnation{inc: 7, phase: byed, epoch: 1}, fold(wire.Restart{Epoch: 1, Inc: 7}, wire.Commit{}),
			incarnation{inc: 7, phase: gone, epoch: 1}},
		{"gone", incarnation{inc: 7, phase: gone, epoch: 1}, fold(wire.Restart{Epoch: 3, Inc: 7}, wire.Commit{}),
			incarnation{inc: 7, phase: gone, epoch: 1}},
	} {
		if got := tc.s.step(tc.d); got != tc.want {
			t.Errorf("%s: step(%+v) from %+v = %+v, want %+v", tc.name, tc.d, tc.s, got, tc.want)
		}
	}
}

// rootScript drives a listener-free n-node coordinator frame by frame,
// as handleConn does. Node 0's stream is owned by one end of a
// net.Pipe; every other node is relayed (a nil connection, whose sends
// go nowhere).
type rootScript struct {
	t    *testing.T
	c    *Coordinator
	conn *coordConn
	seqs []uint64
	got  chan []wire.Msg
}

func newRootScript(t *testing.T, n int) *rootScript {
	r := &rootScript{t: t, c: newCoordinator(n, nil, t.Logf), seqs: make([]uint64, n)}
	r.dial()
	return r
}

// dial gives node 0 a fresh pipe, whose far end a goroutine reads.
func (r *rootScript) dial() {
	a, b := net.Pipe()
	r.t.Cleanup(func() { a.Close(); b.Close() })
	got := make(chan []wire.Msg)
	r.conn, r.got = r.c.newConn(a), got
	go func() {
		var frames []wire.Msg
		br := bufReader(b)
		for {
			_, m, err := wire.ReadFrame(br)
			if err != nil {
				close(got)
				return
			}
			if _, fence := m.(wire.EpochMark); fence {
				got <- slices.Clone(frames)
			} else {
				frames = append(frames, m)
			}
		}
	}()
}

// send feeds node id's next frame; a Hello starts a new process, with
// incarnation inc and a log numbered afresh.
func (r *rootScript) send(id int, m wire.Msg) {
	r.t.Helper()
	if _, ok := m.(wire.Hello); ok {
		r.seqs[id] = 0
	}
	r.seqs[id]++
	conn := r.conn
	if id != 0 {
		conn = nil
	}
	if err := r.c.ingest(r.c.sessions[id], conn, conn, wire.AppendBody(nil, r.seqs[id], m)); err != nil {
		r.t.Fatalf("node %d: %T: %v", id, m, err)
	}
}

// decisions returns the root's decisions, as a handshake replays them.
func (r *rootScript) decisions() decisions {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.c.core.dec
}

// all sends m from every node in turn.
func (r *rootScript) all(m wire.Msg) {
	r.t.Helper()
	for id := range r.seqs {
		r.send(id, m)
	}
}

// received queues a fence behind whatever the root has sent node 0's
// connection and returns every frame the connection carried before it.
func (r *rootScript) received() []wire.Msg {
	r.t.Helper()
	r.conn.send(wire.EpochMark{})
	return <-r.got
}

// TestRootFoldsWhatItBroadcasts: the root changes its decisions only by
// the frames it broadcasts. After every step of a run with a rejoin
// restart, folding everything node 0's stream received into a zero
// decisions value gives the root's own, but for the answer to node 0's
// Hello, which went to node 0 alone.
func TestRootFoldsWhatItBroadcasts(t *testing.T) {
	r := newRootScript(t, 2)
	var got decisions
	check := func(step string, want decisions) {
		t.Helper()
		for _, m := range r.received() {
			if !got.fold(m) {
				t.Fatalf("after %s: node 0 was sent %T, not a decision", step, m)
			}
		}
		if !slices.Equal(got.answered, []uint64{1}) {
			t.Fatalf("after %s: node 0 folded the answers %v, want its own, [1]", step, got.answered)
		}
		root, broadcast := r.decisions(), got
		broadcast.answered = nil
		if !reflect.DeepEqual(broadcast, root) {
			t.Fatalf("after %s: node 0 folded %+v, the root holds %+v", step, got, root)
		}
		if !reflect.DeepEqual(root, want) {
			t.Fatalf("after %s: the root holds %+v, want %+v", step, root, want)
		}
	}
	r.send(0, wire.Hello{From: 0, N: 2, Inc: 1})
	r.send(1, wire.Hello{From: 1, N: 2, Inc: 1})
	check("the Hellos", decisions{})
	r.all(wire.Done{})
	check("every Done", decisions{shutdown: true})
	r.send(1, wire.Hello{From: 1, N: 2, Inc: 2})
	check("a relaunch", decisions{epoch: 1})
	r.all(wire.EpochMark{Epoch: 1})
	check("the EpochMarks", decisions{epoch: 1})
	r.all(wire.Done{})
	check("every Done at epoch 1", decisions{epoch: 1, shutdown: true})
	r.all(wire.Shutdown{Epoch: 1})
	check("every bye", decisions{epoch: 1, shutdown: true, committed: true})
}

// TestAdoptedEpochVoidsShutdown: an EpochMark above the root's epoch is
// adopted, and a Shutdown pending for the epoch left is void with it —
// else the root believes the new epoch shut down, and its Shutdown is
// never broadcast while every node waits for it.
func TestAdoptedEpochVoidsShutdown(t *testing.T) {
	r := newRootScript(t, 2)
	r.send(0, wire.Hello{From: 0, N: 2, Inc: 1})
	r.send(1, wire.Hello{From: 1, N: 2, Inc: 1})
	r.all(wire.Done{})
	r.send(0, wire.EpochMark{Epoch: 1})
	if s := r.c.Status(); s.Epoch != 1 || s.Shutdown {
		t.Fatalf("after the adoption: epoch %d, shutdown %t; want 1, false", s.Epoch, s.Shutdown)
	}
	r.send(1, wire.EpochMark{Epoch: 1})
	r.all(wire.Done{})
	got := r.received()
	if want := []wire.Msg{wire.Restart{Epoch: 0, Inc: 1}, wire.Shutdown{Epoch: 0}, wire.Shutdown{Epoch: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node 0 was sent %+v, want %+v", got, want)
	}
	if got, want := r.decisions(), (decisions{epoch: 1, shutdown: true}); !reflect.DeepEqual(got, want) {
		t.Fatalf("the root holds %+v, want %+v", got, want)
	}
}

// sealGate is a store whose Seal waits until release is closed.
type sealGate struct {
	spillStore
	entered, release chan struct{}
}

func (s *sealGate) Seal(int, uint32) error {
	close(s.entered)
	<-s.release
	return nil
}

func (s *sealGate) Stats() (int, int64) { return 0, 0 }

// TestStatusNotBlockedByDecision: the status document — /statusz, pctl
// top, Wait's stall report — reads the decisions under the decision
// lock, which no decision holds across its slow part: the commit's
// store seal runs after the lock is released, so a seal that hangs does
// not hold up the tool meant to diagnose it.
func TestStatusNotBlockedByDecision(t *testing.T) {
	c := newCoordinator(2, nil, t.Logf)
	disk := &sealGate{entered: make(chan struct{}), release: make(chan struct{})}
	c.store = disk
	defer close(disk.release)
	go func() {
		for _, m := range []wire.Msg{wire.Done{}, wire.Shutdown{}} {
			for id := 0; id < 2; id++ {
				c.ingestStored(c.sessions[id], m, nil)
			}
		}
	}()
	select {
	case <-disk.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the run never reached its store seal")
	}
	done := make(chan CoordStatus, 1)
	go func() { done <- c.Status() }()
	select {
	case s := <-done:
		if !s.Committed {
			t.Fatalf("Status during the seal: %+v, want the run committed", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Status waited on the commit's store seal")
	}
}

// TestStallReportSaysWhatWasDecided: Wait's timeout error tells a root
// waiting for byes it has asked for (Shutdown decided) from nodes that
// never got their Shutdown, and names the nodes it waits for.
func TestStallReportSaysWhatWasDecided(t *testing.T) {
	const n = 3
	c := newCoordinator(n, nil, t.Logf)
	seqs := make([]uint64, n)
	send := func(id int, m wire.Msg) {
		t.Helper()
		seqs[id]++
		if err := c.ingest(c.sessions[id], nil, nil, wire.AppendBody(nil, seqs[id], m)); err != nil {
			t.Fatalf("node %d: %T: %v", id, m, err)
		}
	}
	for id := 0; id < n; id++ {
		send(id, wire.Hello{From: int32(id), N: n, Inc: 1})
	}
	send(0, wire.Done{})
	send(1, wire.Done{})
	if got := c.stallReport(); !strings.Contains(got, "2/3 done, shutdown decided=false, 0/3 byes") {
		t.Fatalf("before the last Done: %q, want Shutdown not decided", got)
	}
	send(2, wire.Done{})
	send(0, wire.Shutdown{})
	send(1, wire.Shutdown{})
	got := c.stallReport()
	if !strings.Contains(got, "3/3 done, shutdown decided=true, 2/3 byes, commit decided=false; waiting for: node 2 [") {
		t.Fatalf("after two byes: %q, want Shutdown decided, 2/3 byes, waiting for node 2", got)
	}
	if strings.Contains(got, "node 0") || strings.Contains(got, "node 1") || strings.Contains(got, "never seen") {
		t.Fatalf("after two byes: %q names a node that is not waited for", got)
	}
}

// rawNode is one node process speaking the capture protocol by hand.
type rawNode struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

// helloNode starts incarnation inc of node id of an n-node cluster, on
// the root or relay at addr.
func helloNode(t *testing.T, addr string, n, id int, inc uint64) *rawNode {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawNode{t: t, conn: conn, br: bufReader(conn)}
	p.send(wire.Hello{From: int32(id), N: int32(n), Inc: inc})
	return p
}

func (p *rawNode) send(m wire.Msg) {
	p.t.Helper()
	p.seq++
	if err := wire.WriteFrame(p.conn, p.seq, m); err != nil {
		p.t.Fatal(err)
	}
}

// next reads the next frame the node was sent.
func (p *rawNode) next() wire.Msg {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, m, err := wire.ReadFrame(p.br)
	if err != nil {
		p.t.Fatal(err)
	}
	return m
}

// until reads up to want, past any Restart: behind a relay, the root's
// answer to one node's Hello fans out to every child.
func (p *rawNode) until(want wire.Msg) {
	p.t.Helper()
	for {
		m := p.next()
		if m == want {
			return
		}
		if _, ok := m.(wire.Restart); !ok {
			p.t.Fatalf("read %#v waiting for %#v", m, want)
		}
	}
}

// TestHelloAnswers: every Hello gets an answer addressed to its
// incarnation, and it is the first frame the node reads, whether it
// dialed the root or one relay in front of it: a first join's at epoch
// 0, a relaunch's at the epoch its Hello decided, a late first join's at
// the cluster's epoch, and the refusal after Commit; a dead
// predecessor's Hello, after its successor's, is not answered, and its
// connection is closed. The root alone
// decides each: behind a relay, a relaunch at epoch 1 must read its
// answer at 2, not the Restart{1} its own Hello is about to void.
func TestHelloAnswers(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name    string
		relayed bool
	}{{"direct", false}, {"relayed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			addr := c.Addr()
			if tc.relayed {
				r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: n, Upstream: addr, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				addr = r.Addr()
			}
			hello := func(id int, inc uint64) *rawNode { return helloNode(t, addr, n, id, inc) }
			// opened waits for the root to take incarnation inc of node id.
			opened := func(id int, inc uint64) {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					c.mu.Lock()
					got := c.core.inc[id]
					c.mu.Unlock()
					if got == inc {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("the root never took node %d's Hello of incarnation %d", id, inc)
					}
				}
			}
			first := func(who string, p *rawNode, want wire.Msg) {
				t.Helper()
				if m := p.next(); m != want {
					t.Fatalf("%s read %#v first, want %#v", who, m, want)
				}
			}

			p0 := hello(0, 10)
			first("node 0's first join", p0, wire.Restart{Epoch: 0, Inc: 10})
			hello(1, 11)
			opened(0, 10)
			opened(1, 11)
			first("node 1's relaunch", hello(1, 12), wire.Restart{Epoch: 1, Inc: 12})
			p0.until(wire.Restart{Epoch: 1})
			p2 := hello(2, 20)
			first("node 2's late first join", p2, wire.Restart{Epoch: 1, Inc: 20})
			p1 := hello(1, 13)
			first("node 1's relaunch at epoch 1", p1, wire.Restart{Epoch: 2, Inc: 13})
			stale := hello(1, 12)
			stale.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, m, err := wire.ReadFrame(stale.br); !errors.Is(err, io.EOF) {
				t.Fatalf("node 1's dead incarnation 12, after 13, read %#v (%v); want its connection closed unanswered", m, err)
			}

			live := []*rawNode{p0, p1, p2}
			for _, p := range live {
				p.send(wire.EpochMark{Epoch: 2})
				p.send(wire.Done{})
			}
			for _, p := range live {
				p.until(wire.Shutdown{Epoch: 2})
				p.send(wire.Shutdown{Epoch: 2})
			}
			for _, p := range live {
				p.until(wire.Commit{})
			}
			late := hello(1, 14)
			first("node 1's relaunch after Commit", late, wire.Shutdown{Epoch: 2})
			if m := late.next(); m != (wire.Commit{}) {
				t.Fatalf("node 1's relaunch after Commit read %#v second, want Commit", m)
			}
			if s := c.Status(); s.Restarts != 2 || s.Epoch != 2 {
				t.Fatalf("after the refusal: %d restarts at epoch %d, want 2 at 2", s.Restarts, s.Epoch)
			}
		})
	}
}

// TestHelloAnswersSurviveUplinkBreak: the root's answer to a relayed
// late first join dies with the uplink that was to carry it, and still
// reaches the node. The relay's resume acks the root's epoch, which the
// relay already holds; that ack fans out as the epoch's Restart, which
// answers no one, and the root's resume replay re-sends every Hello
// answer the uplink may have lost. The late joiner neither runs at
// epoch 0 forever against peers at epoch 1 nor waits forever for its
// answer.
func TestHelloAnswersSurviveUplinkBreak(t *testing.T) {
	const n = 3
	c, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: n, Upstream: c.Addr(), Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hello := func(id int, inc uint64) *rawNode { return helloNode(t, r.Addr(), n, id, inc) }
	// forwarded waits for the root to accept the uplink's frame seq.
	forwarded := func(seq uint64) {
		for deadline := time.Now().Add(10 * time.Second); c.Status().Relays[0].LastSeq < seq; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the root never accepted uplink frame %d", seq)
			}
		}
	}
	p0 := hello(0, 10)
	hello(1, 11)
	forwarded(2)
	hello(1, 12)
	p0.until(wire.Restart{Epoch: 1})

	// Hold the root's Hello decision until the uplink that carried the
	// Hello is gone: its answer then goes to a dead connection.
	st := c.sessions[2]
	st.ingestMu.Lock()
	p2 := hello(2, 20)
	forwarded(4)
	r.cc.out.mu.Lock()
	r.cc.out.conn.Close()
	r.cc.out.mu.Unlock()
	st.ingestMu.Unlock()
	p2.until(wire.Restart{Epoch: 1, Inc: 20})
}
