package node

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"predctl/internal/wire"
)

// stall_test.go pins what the per-connection write queue buys: a peer
// that stops reading holds up its own connection and nothing else, and
// tearing an endpoint down does not wait for it.

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
				conn.wmu.Lock()
				writing := conn.writing != nil
				conn.wmu.Unlock()
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
