package node

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/wire"
)

// testTimeouts keeps retransmission and redial snappy under test.
func testTimeouts() Timeouts {
	return Timeouts{RTO: 5 * time.Millisecond, BackoffMin: 2 * time.Millisecond}
}

func newPair(t *testing.T, faults Faults) (*Transport, *Transport) {
	t.Helper()
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
		tr, err := NewTransport(TransportConfig{
			ID: i, N: 2, Addrs: addrs, Listener: lns[i],
			Faults: faults, Timeouts: testTimeouts(),
		})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		ts[i] = tr
	}
	t.Cleanup(func() { ts[0].Close(); ts[1].Close() })
	return ts[0], ts[1]
}

// drain collects want messages from tr, failing on timeout.
func drain(t *testing.T, tr *Transport, want int) []Recv {
	t.Helper()
	var got []Recv
	deadline := time.After(30 * time.Second)
	for len(got) < want {
		select {
		case r := <-tr.RecvCh():
			got = append(got, r)
		case <-deadline:
			t.Fatalf("timed out with %d/%d messages", len(got), want)
		}
	}
	return got
}

// TestTransportExactlyOnceInOrder holds the reliable link to its
// contract under an aggressive fault shim: despite drops, duplicates
// and delayed writes, every message arrives exactly once, in send
// order, in both directions at once.
func TestTransportExactlyOnceInOrder(t *testing.T) {
	a, b := newPair(t, Faults{Drop: 0.3, Dup: 0.3, Delay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Seed: 42})
	const msgs = 150
	go func() {
		for i := 0; i < msgs; i++ {
			a.Send(1, wire.Ctl{Kind: wire.CtlReq, From: 0, To: 1, TraceID: uint64(i)})
		}
	}()
	go func() {
		for i := 0; i < msgs; i++ {
			b.Send(0, wire.Ctl{Kind: wire.CtlAck, From: 1, To: 0, TraceID: uint64(i)})
		}
	}()
	for name, tr := range map[string]*Transport{"a→b": b, "b→a": a} {
		got := drain(t, tr, msgs)
		for i, r := range got {
			c := r.Msg.(wire.Ctl)
			if c.TraceID != uint64(i) {
				t.Fatalf("%s: message %d has TraceID %d (reordered, lost, or duplicated)", name, i, c.TraceID)
			}
		}
	}
}

// TestTransportReconnect kills the established connection mid-stream;
// the link must redial and the ARQ must recover everything the break
// swallowed.
func TestTransportReconnect(t *testing.T) {
	a, b := newPair(t, Faults{})
	for i := 0; i < 50; i++ {
		a.Send(1, wire.Ctl{From: 0, To: 1, TraceID: uint64(i)})
		if i == 25 {
			a.links[1].dropConn()
		}
	}
	got := drain(t, b, 50)
	for i, r := range got {
		if c := r.Msg.(wire.Ctl); c.TraceID != uint64(i) {
			t.Fatalf("message %d has TraceID %d after reconnect", i, c.TraceID)
		}
	}
}

// TestFaultRandDeterministic pins the shim's contract: the same (seed,
// link) yields the same decision stream, and distinct links diverge.
func TestFaultRandDeterministic(t *testing.T) {
	f := Faults{Drop: 0.4, Dup: 0.4, Delay: time.Millisecond, Jitter: time.Millisecond, Seed: 7}
	stream := func(from, to int) []decision {
		fr := newFaultRand(f, from, to)
		out := make([]decision, 256)
		for i := range out {
			out[i] = fr.next()
		}
		return out
	}
	if !reflect.DeepEqual(stream(0, 1), stream(0, 1)) {
		t.Fatal("same seed and link produced different decision streams")
	}
	if reflect.DeepEqual(stream(0, 1), stream(1, 0)) {
		t.Fatal("opposite link directions produced identical decision streams")
	}
	if reflect.DeepEqual(stream(0, 1), stream(0, 2)) {
		t.Fatal("distinct links produced identical decision streams")
	}
}

// TestAssemble covers the coordinator's trace reassembly: a valid
// capture round-trips into a deposet with the right causality, an
// unreceived message stays in flight, and a receive with no matching
// send is reported as a wedge, not mis-assembled.
func TestAssemble(t *testing.T) {
	// n=1 node → processes 0 (app) and 1 (controller). App sends to the
	// controller, controller replies; one controller send stays in
	// flight.
	ops := [][]wire.TraceOp{
		{
			{Op: wire.TraceInit, Proc: 0, Name: "cs", Value: 0},
			{Op: wire.TraceSend, Proc: 0, MsgID: 1},
			{Op: wire.TraceRecv, Proc: 0, MsgID: 2},
			{Op: wire.TraceSet, Proc: 0, Name: "cs", Value: 1},
		},
		{
			{Op: wire.TraceRecv, Proc: 1, MsgID: 1},
			{Op: wire.TraceSend, Proc: 1, MsgID: 2},
			{Op: wire.TraceSend, Proc: 1, MsgID: 3}, // never received
		},
	}
	d, err := assemble(1, ops)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if d.NumProcs() != 2 || d.Len(0) != 4 || d.Len(1) != 4 {
		t.Fatalf("wrong shape: %d procs, lens %d/%d", d.NumProcs(), d.Len(0), d.Len(1))
	}
	inFlight := 0
	for _, m := range d.Messages() {
		if !m.Received() {
			inFlight++
		}
	}
	if inFlight != 1 {
		t.Fatalf("want 1 in-flight message, got %d", inFlight)
	}
	// The app's send happens-before the controller's reply receive.
	if !d.HB(deposet.StateID{P: 0, K: 1}, deposet.StateID{P: 0, K: 2}) {
		t.Fatal("local order lost")
	}
	if v, ok := d.Var(deposet.StateID{P: 0, K: 3}, "cs"); !ok || v != 1 {
		t.Fatalf("cs at final app state = %d, %v", v, ok)
	}

	// A receive of a message nobody sent must wedge with a clear error.
	bad := [][]wire.TraceOp{
		{{Op: wire.TraceRecv, Proc: 0, MsgID: 99}},
		{},
	}
	if _, err := assemble(1, bad); err == nil {
		t.Fatal("assemble accepted a receive of an unsent message")
	}

	// Duplicate trace ids must be rejected, not silently cross-wired.
	dup := [][]wire.TraceOp{
		{{Op: wire.TraceSend, Proc: 0, MsgID: 5}, {Op: wire.TraceSend, Proc: 0, MsgID: 5}},
		{},
	}
	if _, err := assemble(1, dup); err == nil {
		t.Fatal("assemble accepted duplicate trace ids")
	}
}

// logSink collects a component's log lines for assertions.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *logSink) logf(format string, args ...any) {
	s.mu.Lock()
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *logSink) contains(text string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.lines {
		if strings.Contains(l, text) {
			return true
		}
	}
	return false
}

// newAcceptor starts node 0 of an n-node mesh whose peers are played by
// the test over raw sockets.
func newAcceptor(t *testing.T, n int) (*Transport, *logSink) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = ln.Addr().String() // never dialed: node 0 sends nothing
	}
	sink := &logSink{}
	tr, err := NewTransport(TransportConfig{ID: 0, N: n, Addrs: addrs, Listener: ln, Timeouts: testTimeouts(), Logf: sink.logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr, sink
}

// dialRaw opens a stream to tr and writes frames (seq 0, 1, 2, …).
func dialRaw(t *testing.T, tr *Transport, frames ...wire.Msg) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for seq, m := range frames {
		if err := wire.WriteFrame(c, uint64(seq), m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// awaitClosed fails unless the peer closes c within the deadline.
func awaitClosed(t *testing.T, c net.Conn, what string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil && strings.Contains(err.Error(), "timeout") {
		t.Fatalf("%s: stream still open", what)
	}
}

// TestTransportHandshakeRejects pins what the mesh acceptor refuses and
// the reason it logs: the shared node handshake's checks (frame kind,
// cluster size, id range) and the two only the mesh has (not our own
// id, exactly our epoch).
func TestTransportHandshakeRejects(t *testing.T) {
	tr, sink := newAcceptor(t, 3)
	tr.Reset(2)
	for _, tc := range []struct {
		name  string
		first wire.Msg
		want  string
	}{
		{"wrong N", wire.Resume{From: 1, N: 4, Epoch: 2}, "peer believes cluster size 4, ours is 3"},
		{"own id", wire.Resume{From: 0, N: 3, Epoch: 2}, "invalid peer id 0"},
		{"id past the mesh", wire.Resume{From: 3, N: 3, Epoch: 2}, "invalid peer id 3"},
		{"negative id", wire.Resume{From: -1, N: 3, Epoch: 2}, "invalid peer id -1"},
		{"stale epoch", wire.Resume{From: 1, N: 3, Epoch: 1}, "peer 1 at epoch 1, ours is 2"},
		{"Hello is epoch 0", wire.Hello{From: 2, N: 3}, "peer 2 at epoch 0, ours is 2"},
		{"future epoch", wire.Resume{From: 1, N: 3, Epoch: 3}, "peer 1 at epoch 3, ours is 2"},
		{"not a handshake", wire.Ctl{From: 1, To: 0}, "first frame is wire.Ctl, want Hello or Resume"},
	} {
		awaitClosed(t, dialRaw(t, tr, tc.first), tc.name)
		if !sink.contains(tc.want) {
			t.Errorf("%s: log lacks %q; got %q", tc.name, tc.want, sink.lines)
		}
	}
	// The acceptor is still serving: a well-formed stream delivers.
	dialRaw(t, tr, wire.Resume{From: 1, N: 3, Epoch: 2}, wire.Ctl{From: 1, To: 0, TraceID: 7})
	if r := drain(t, tr, 1)[0]; r.From != 1 || r.Epoch != 2 || r.Msg.(wire.Ctl).TraceID != 7 {
		t.Fatalf("delivered %+v", r)
	}
}

// TestTransportResetClosesInboundKeepsListening: Reset tears down every
// accepted stream — the peers must re-handshake at the new epoch — and
// the listener goes on accepting.
func TestTransportResetClosesInboundKeepsListening(t *testing.T) {
	tr, _ := newAcceptor(t, 4)
	var conns []net.Conn
	for id := int32(1); id <= 3; id++ {
		conns = append(conns, dialRaw(t, tr, wire.Hello{From: id, N: 4}, wire.Ctl{From: id, To: 0}))
	}
	drain(t, tr, 3) // all three are accepted, handshaken and reading
	tr.Reset(1)
	for i, c := range conns {
		awaitClosed(t, c, fmt.Sprintf("inbound stream %d after Reset", i+1))
	}
	dialRaw(t, tr, wire.Resume{From: 2, N: 4, Epoch: 1}, wire.Ctl{From: 2, To: 0, TraceID: 9})
	if r := drain(t, tr, 1)[0]; r.From != 2 || r.Epoch != 1 || r.Msg.(wire.Ctl).TraceID != 9 {
		t.Fatalf("after Reset delivered %+v", r)
	}
}

// TestTransportCloseTwiceLeavesNoGoroutine: Close with streams still
// attached, twice, returns with the accept loop, every stream handler
// and every link writer gone.
func TestTransportCloseTwiceLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	tr, _ := newAcceptor(t, 4)
	for id := int32(1); id <= 3; id++ {
		dialRaw(t, tr, wire.Hello{From: id, N: 4}, wire.Ctl{From: id, To: 0})
	}
	drain(t, tr, 3)
	tr.Close()
	tr.Close()
	// Close joined them all, but a goroutine that has run its last defer
	// is counted until the scheduler retires it: give that a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before NewTransport, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
	if c, err := net.DialTimeout("tcp", tr.Addr(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Close")
	}
}
