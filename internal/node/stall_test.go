package node

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"predctl/internal/wire"
)

// stall_test.go pins what the outbox buys: a peer that stops reading
// holds up its own connection and nothing else, tearing an endpoint down
// does not wait for it, and a session client's write stuck on such a
// root holds up no one who logs behind it.

// stallTimeouts gives every write a timeout far above what the tests
// allow a handshake or a Close, so waiting one out shows.
func stallTimeouts() Timeouts {
	opt := testTimeouts()
	opt.WriteTimeout = 10 * time.Second
	return opt
}

// answersWithin reads conn's first frame, allowing it one second.
func answersWithin(t *testing.T, who string, conn net.Conn) wire.Msg {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	_, m, err := wire.ReadFrame(bufReader(conn))
	if err != nil {
		t.Fatalf("%s got no answer within a second beside a stalled peer: %v", who, err)
	}
	return m
}

// resumeWithin dials addr as node id of an n-node cluster, offers a
// Resume and requires the ResumeAck within a second.
func resumeWithin(t *testing.T, addr string, n, id int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteFrame(conn, 0, wire.Resume{From: int32(id), N: int32(n)}); err != nil {
		t.Fatal(err)
	}
	if m, ok := answersWithin(t, "a resume", conn).(wire.ResumeAck); !ok {
		t.Fatalf("a resume read %#v, want ResumeAck", m)
	}
}

// statusWithin requires c.Status to return within a second.
func statusWithin(t *testing.T, c *Coordinator) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		c.Status()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Status took over a second beside a stalled peer")
	}
}

// stalledPipe attaches the near end of a pipe to handle, as an accept
// loop would, and returns the far end. The cleanup closes both ends and
// waits for the handler.
func stalledPipe(t *testing.T, handle func(net.Conn)) *rawNode {
	near, far := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		handle(near)
	}()
	t.Cleanup(func() {
		near.Close()
		far.Close()
		<-handled
	})
	return &rawNode{t: t, conn: far, br: bufReader(far)}
}

// TestStalledPeerDelaysOnlyItself: a decision queued to a peer that
// stopped reading — Shutdown at the root, a folded Shutdown at a relay —
// holds up no other peer. Within a second, a second peer's Resume over
// TCP reads its ResumeAck, at the root a relaunch's Hello reads its
// Restart, and Status answers; none waits out the stalled write.
func TestStalledPeerDelaysOnlyItself(t *testing.T) {
	t.Run("root", func(t *testing.T) {
		const n = 3
		c, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: stallTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		// Node 0 opens its stream on the pipe and never reads from it.
		stalled := stalledPipe(t, c.handleConn)
		stalled.send(wire.Hello{From: 0, N: n, Inc: 1})
		stalled.send(wire.Done{})
		for id := 1; id < n; id++ {
			helloNode(t, c.Addr(), n, id, 1).send(wire.Done{})
		}
		for deadline := time.Now().Add(10 * time.Second); !c.Status().Shutdown; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the root never decided Shutdown")
			}
		}
		resumeWithin(t, c.Addr(), n, 1)
		relaunch := helloNode(t, c.Addr(), n, 2, 2)
		if m := answersWithin(t, "node 2's relaunch", relaunch.conn); m != (wire.Restart{Epoch: 1, Inc: 2}) {
			t.Fatalf("node 2's relaunch read %#v, want its answer at epoch 1", m)
		}
		statusWithin(t, c)
	})
	t.Run("relay", func(t *testing.T) {
		c, err := NewCoordinator(CoordConfig{N: 2, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: 2, Upstream: c.Addr(), Addr: "127.0.0.1:0", Timeouts: stallTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		// Child 0 resumes on the pipe, reads its ResumeAck, and stops.
		stalled := stalledPipe(t, r.handleChild)
		stalled.send(wire.Resume{From: 0, N: 2})
		if m, ok := stalled.next().(wire.ResumeAck); !ok {
			t.Fatalf("the stalled child's resume read %#v, want ResumeAck", m)
		}
		folded := make(chan struct{})
		go func() {
			r.cc.fold(wire.Shutdown{})
			close(folded)
		}()
		select {
		case <-folded:
		case <-time.After(time.Second):
			t.Fatal("the relay's fold of a Shutdown took over a second beside a stalled child")
		}
		resumeWithin(t, r.Addr(), 2, 1)
		statusWithin(t, c)
	})
}

// pipeListener accepts net.Pipe connections: a peer that stops reading
// stalls a write at once, where TCP would buffer it.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// dial hands the listener one end of a new pipe and returns the other.
func (l *pipeListener) dial() net.Conn {
	near, far := net.Pipe()
	l.conns <- near
	return far
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestCloseLeavesNoWriter: Coordinator.Close and Relay.Close, with one
// connection's writer blocked on a peer that never reads its
// ResumeAck, return well inside the write timeout and leave no
// goroutine behind.
func TestCloseLeavesNoWriter(t *testing.T) {
	// stall resumes node 0 through ln and waits until the ResumeAck is
	// queued to it: its writer is then stuck on the pipe.
	stall := func(t *testing.T, ln *pipeListener, in func() *inbound) {
		far := ln.dial()
		t.Cleanup(func() { far.Close() })
		if err := wire.WriteFrame(far, 0, wire.Resume{From: 0, N: 2}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s := in()
			s.mu.Lock()
			conn := s.owner
			s.mu.Unlock()
			if conn != nil {
				conn.out.mu.Lock()
				writing := conn.out.writing != nil
				conn.out.mu.Unlock()
				if writing {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("the ResumeAck was never queued")
			}
		}
	}
	closes := func(t *testing.T, before int, close func()) {
		start := time.Now()
		close()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Close took %v beside a stalled writer", d)
		}
		// A goroutine that has run its last defer is counted until the
		// scheduler retires it: give that a moment.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
		}
	}
	t.Run("root", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ln := newPipeListener()
		c, err := NewCoordinator(CoordConfig{N: 2, Listener: ln, Timeouts: stallTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		stall(t, ln, func() *inbound { return &c.sessions[0].inbound })
		closes(t, before, c.Close)
	})
	t.Run("relay", func(t *testing.T) {
		c, err := NewCoordinator(CoordConfig{N: 2, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		before := runtime.NumGoroutine()
		ln := newPipeListener()
		r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: 2, Upstream: c.Addr(), Listener: ln, Timeouts: stallTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		stall(t, ln, func() *inbound { return r.children[0] })
		closes(t, before, r.Close)
	})
}

// bulk is a frame of half a MiB: 32 of them are more than the kernel
// buffers between two loopback sockets hold.
var bulk = wire.RelayBatch{Frames: []wire.RelayFrame{{Body: make([]byte, 512<<10)}}}

// stalls waits until o's writer has been active for 100ms without
// counting a frame written: its peer reads nothing, and the kernel
// buffers are full.
func stalls(t *testing.T, o *outbox) {
	t.Helper()
	wrote, since := -1, time.Now()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		o.mu.Lock()
		active, n := o.writing != nil, o.wrote
		o.mu.Unlock()
		switch {
		case !active || n != wrote:
			wrote, since = n, time.Now()
		case time.Since(since) > 100*time.Millisecond:
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the write never stalled")
		}
	}
}

// stalledRelayN is the cluster size behind stalledRelay.
const stalledRelayN = 3

// stalledRelay starts a relay whose root stand-in answers the uplink's
// handshake and then reads nothing, and has child 0 forward bulk frames
// until the uplink write stalls. Children 1 and 2 are free to dial.
func stalledRelay(t *testing.T) *Relay {
	t.Helper()
	root := newFakeRoot(t)
	started := make(chan *Relay, 1)
	go func() {
		r, err := StartRelay(RelayConfig{Index: 0, Relays: 1, N: stalledRelayN, Upstream: root.ln.Addr().String(), Addr: "127.0.0.1:0", Timeouts: stallTimeouts(), Logf: t.Logf})
		if err != nil {
			t.Error(err)
		}
		started <- r
	}()
	if err := wire.WriteFrame(root.accept(), 0, wire.ResumeAck{}); err != nil {
		t.Fatal(err)
	}
	r := <-started
	if r == nil {
		t.FailNow()
	}
	t.Cleanup(r.Close)
	child := helloNode(t, r.Addr(), stalledRelayN, 0, 1)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for seq := uint64(2); seq < 34 && wire.WriteFrame(child.conn, seq, bulk) == nil; seq++ {
		}
	}()
	t.Cleanup(func() {
		child.conn.Close()
		<-sent
	})
	stalls(t, &r.cc.out)
	return r
}

// TestStalledWriteBlocksNoSender: a session client's write stuck on a
// root that reads nothing holds up no one who logs behind it. Within a
// second, at a relay a second child's frames are still sequenced onto
// the uplink log and a fold still lands, and at a node cc.send returns.
func TestStalledWriteBlocksNoSender(t *testing.T) {
	within := func(t *testing.T, what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s took over a second beside a stalled write", what)
		}
	}
	t.Run("relay", func(t *testing.T) {
		r := stalledRelay(t)
		conn, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		within(t, "sequencing a second child's frames", func() {
			before := r.cc.sentFrames()
			for seq, m := range []wire.Msg{wire.Hello{From: 1, N: stalledRelayN, Inc: 1}, wire.Done{Proc: 1}, wire.Done{Proc: 1}} {
				if err := wire.WriteFrame(conn, uint64(seq+1), m); err != nil {
					t.Error(err)
					return
				}
			}
			for r.cc.sentFrames() < before+3 {
				time.Sleep(time.Millisecond)
			}
		})
		within(t, "a fold", func() { r.cc.fold(wire.Shutdown{}) })
		if !r.cc.decisions().shutdown {
			t.Fatal("the fold did not land")
		}
	})
	t.Run("node", func(t *testing.T) {
		root := newFakeRoot(t)
		cc, err := dialCoord(root.ln.Addr().String(), 1, 3, newWireMeters(nil, "coord"), stallTimeouts().withDefaults(), nil, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		root.accept()
		for i := 0; i < 32; i++ {
			cc.logItems(bulk, 1)
		}
		wrote := make(chan struct{})
		go func() {
			cc.writeLogged()
			close(wrote)
		}()
		defer func() {
			cc.close()
			<-wrote
		}()
		stalls(t, &cc.out)
		within(t, "cc.send(Done)", func() { cc.send(wire.Done{Proc: 1}) })
	})
}
