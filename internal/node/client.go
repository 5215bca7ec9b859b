package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Batching is the size-or-interval flush policy for a node's capture
// (capture.go): the epoch's trace ops and journal events accumulate on
// the node and are flushed as wire.TraceOpBatch / JournalBatch frames
// when MaxItems are pending or Interval elapses, whichever comes first — hundreds of nodes each
// emitting thousands of capture items must not mean one TCP frame (and
// one syscall at each end) per item. Zero values take the defaults
// below.
type Batching struct {
	// MaxItems caps the items carried per batch frame and triggers an
	// early flush when that many are pending. Default 128.
	MaxItems int
	// Interval is the flush period for capture volume (trace ops, journal
	// events) while below MaxItems. Nothing anyone waits on waits for it:
	// leaving a critical section kicks the flusher (the root's live
	// checker derives the interval it closes), and Done, bye and
	// EpochMark write through. Default 2ms.
	Interval time.Duration
	// SnapshotEvery emits a wire.MetricsSnapshot (a cumulative dump of
	// the node's registry) every that-many flusher passes, riding the
	// existing batching cadence — the coordinator's live merged registry
	// and `pctl top` feed off it. Default 25 (≈ 50ms at the default 2ms
	// interval); negative disables snapshot streaming.
	SnapshotEvery int
}

// withDefaults resolves unset fields to their defaults — the exact
// policy a node's capture runs.
func (b Batching) withDefaults() Batching {
	if b.MaxItems <= 0 {
		b.MaxItems = 128
	}
	if b.Interval <= 0 {
		b.Interval = 2 * time.Millisecond
	}
	if b.SnapshotEvery == 0 {
		b.SnapshotEvery = 25
	}
	return b
}

// coordClient is the resumable session to the coordinator that a node
// and a relay's uplink both use: the node's Hello (a relay's
// RelayHello), then capture and control frames out; the root's
// decisions — Shutdown, Restart, Commit — in, folded into one
// decisions value. It batches nothing: a node's capture (capture.go)
// logs a whole pass and writes it with one writeLogged, and control
// frames (Done, the Shutdown bye, EpochMark) are sent one at a time.
//
// The stream is a session, not a connection. Every sequenced frame is
// retained in an in-memory session log (out) for the life of the run,
// so a broken connection is never a truncated capture: the session
// goroutine redials with capped exponential backoff, offers
// wire.Resume{Epoch}, and retransmits everything past the
// coordinator's ResumeAck.Cum. Because the log is never pruned, even a
// coordinator that crashed and restarted with no session state
// (Cum = 0) gets the complete stream replayed. The log is an outbox, so
// the wire carries a prefix of it and logging never waits on a write.
type coordClient struct {
	id, n int
	inc   uint64 // the incarnation a node's Hello names (0 on a relay's uplink)
	addr  string
	opt   Timeouts
	wm    wireMeters
	logf  func(string, ...any)
	parts *partitions

	// decMu guards dec: the root's decisions as this client has folded
	// them (fold), the state the root's handshakes replay; and epoch, the
	// stream's last EpochMark, which a Resume offers. decCh (cap 1) wakes
	// the node's epoch loop after every fold. A relay's child handshakes
	// read dec under decMu, its decision lock.
	decMu    sync.Mutex
	dec      decisions
	epoch    uint32
	decCh    chan struct{}
	quitOnce sync.Once
	quit     chan struct{} // closed by close(): stop the session goroutine
	sessDone chan struct{}

	// out is the session log: frame i carries seq i+1. Its conn is nil
	// while disconnected; what is logged meanwhile waits for the resume.
	out outbox

	// Session-machinery hooks, set only by the relay's uplink (nil on a
	// node's stream): mkResume replaces the Resume handshake frame, and
	// fanOut sees every folded frame, under decMu. They let the relay
	// reuse the session log, redial/backoff and retransmit machinery
	// unchanged.
	mkResume func() wire.Msg
	fanOut   func(m wire.Msg)
}

// newCoordClient builds a disconnected session; a node's dialCoord and
// a relay's uplink each open it with their own handshake.
func newCoordClient(addr string, id, n int, wm wireMeters, opt Timeouts, parts *partitions, logf func(string, ...any)) *coordClient {
	cc := &coordClient{
		id: id, n: n, addr: addr,
		opt: opt, wm: wm, logf: logf, parts: parts,
		decCh:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		sessDone: make(chan struct{}),
	}
	cc.out = outbox{timeout: opt.WriteTimeout, bytes: wm.bytes, report: func(err error) {
		logf("node %d: coordinator write: %v", id, err)
	}}
	return cc
}

// dialCoord connects to the coordinator, retrying with capped
// exponential backoff (the same policy as mesh redials) until
// opt.CoordDeadline, so a coordinator that is slow to come up — or
// restarting — is waited for rather than fataled on. The Hello is frame
// 1 of the session log, written as the first dial's handshake: a resume
// replays it like any frame, so a relay that dies holding it loses
// nothing. Its Inc, drawn here once per process, is what tells the root
// a relaunch from that replay.
func dialCoord(addr string, id, n int, wm wireMeters, opt Timeouts, parts *partitions, logf func(string, ...any)) (*coordClient, error) {
	cc := newCoordClient(addr, id, n, wm, opt, parts, logf)
	cc.inc = rand.Uint64() | 1
	cc.logItems(wire.Hello{From: int32(id), N: int32(n), Inc: cc.inc}, 1)
	conn, err := cc.dialOnce(cc.out.frames[0].B)
	if err != nil {
		return nil, fmt.Errorf("node %d: coordinator %s: %w", id, addr, err)
	}
	cc.out.conn, cc.out.wrote = conn, 1
	go cc.session(conn, bufReader(conn))
	return cc, nil
}

// dialOnce runs one dial campaign: dial until opt.CoordDeadline with
// backoffDelay pacing, write the encoded handshake frame, and return
// the connection. A partition window severing this node's coordinator
// stream pauses the campaign (the clock keeps running).
func (cc *coordClient) dialOnce(handshake []byte) (net.Conn, error) {
	deadline := time.Now().Add(cc.opt.CoordDeadline)
	fails := 0
	var lastErr error
	for {
		select {
		case <-cc.quit:
			return nil, net.ErrClosed
		default:
		}
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("partitioned for the whole campaign")
			}
			return nil, fmt.Errorf("unreachable for %v: %w", cc.opt.CoordDeadline, lastErr)
		}
		if cc.parts.coordSevered(cc.id, time.Now()) {
			cc.pause(backoffDelay(cc.opt, 0))
			continue
		}
		conn, err := dialHandshake(context.Background(), cc.addr, handshake, cc.opt)
		if err != nil {
			lastErr = err
			cc.pause(backoffDelay(cc.opt, fails))
			fails++
			continue
		}
		return conn, nil
	}
}

// pause sleeps d or until close() interrupts.
func (cc *coordClient) pause(d time.Duration) {
	select {
	case <-cc.quit:
	case <-time.After(d):
	}
}

// session is the stream's lifecycle goroutine: it reads the current
// connection until it breaks, then resumes the session on a fresh one,
// forever — until close() or a failed resume. Only resume failure is
// terminal: that is the hard, logged error that replaces the old silent
// capture truncation.
func (cc *coordClient) session(conn net.Conn, br *bufio.Reader) {
	defer close(cc.sessDone)
	for {
		cc.readLoop(conn, br)
		select {
		case <-cc.quit:
			return
		default:
		}
		cc.out.mu.Lock()
		if cc.out.conn == conn {
			cc.out.conn = nil
		}
		cc.out.mu.Unlock()
		conn.Close()
		var err error
		conn, br, err = cc.resume()
		if err != nil {
			select {
			case <-cc.quit:
			default:
				// Terminal: nothing will ever install a connection again.
				// The closed sessDone (this function's defer) is what wakes
				// the epoch loop out of any wait.
				cc.logf("node %d: coordinator session lost (%v); capture stream truncated", cc.id, err)
			}
			return
		}
	}
}

// readLoop consumes coordinator frames until the connection errors.
// Idle-deadline renewals double as the partition probe: a severed
// stream is torn down even when no capture traffic would touch it.
func (cc *coordClient) readLoop(conn net.Conn, br *bufio.Reader) {
	for {
		conn.SetReadDeadline(time.Now().Add(cc.opt.IdleTimeout))
		_, m, err := wire.ReadFrame(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if cc.parts.coordSevered(cc.id, time.Now()) {
					return // sever: redial after the window heals
				}
				continue
			}
			select {
			case <-cc.quit:
			default:
				// Post-commit breaks are expected (the coordinator tears
				// down once the run is sealed); don't spam the log.
				if !cc.decisions().committed && !errors.Is(err, net.ErrClosed) {
					cc.logf("node %d: coordinator stream: %v", cc.id, err)
				}
			}
			return
		}
		cc.fold(m)
	}
}

// fold applies one root frame to the client's decision state
// (decisions.fold), then fans it out (at a relay) and wakes the epoch
// loop.
func (cc *coordClient) fold(m wire.Msg) {
	cc.decMu.Lock()
	defer cc.decMu.Unlock()
	if !cc.dec.fold(m) {
		cc.logf("node %d: coordinator sent unexpected %T", cc.id, m)
		return
	}
	if cc.fanOut != nil {
		cc.fanOut(m)
	}
	select {
	case cc.decCh <- struct{}{}:
	default:
	}
}

// decisions returns the decision state folded so far.
func (cc *coordClient) decisions() decisions {
	cc.decMu.Lock()
	defer cc.decMu.Unlock()
	return cc.dec
}

// resume re-establishes the session: dial, offer Resume{Epoch}, read
// and fold ResumeAck (its epoch covers a Restart missed while
// disconnected), install the connection with everything past Cum
// unwritten, and retransmit that like any write, in log order. A
// failed retransmit only drops the connection, so the session resumes
// again. Terminal are a dial campaign that runs out, a failed or
// unexpected handshake answer, and an ack of more frames than were
// logged. A resume that close overtook installs nothing: close only
// drops the connection installed when it runs.
func (cc *coordClient) resume() (net.Conn, *bufio.Reader, error) {
	cc.decMu.Lock()
	handshake := wire.Msg(wire.Resume{From: int32(cc.id), N: int32(cc.n), Epoch: cc.epoch})
	cc.decMu.Unlock()
	if cc.mkResume != nil {
		handshake = cc.mkResume()
	}
	conn, err := cc.dialOnce(wire.Marshal(0, handshake))
	if err != nil {
		return nil, nil, err
	}
	br := bufReader(conn)
	conn.SetReadDeadline(time.Now().Add(cc.opt.DialTimeout))
	_, m, err := wire.ReadFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("resume handshake: %w", err)
	}
	ack, ok := m.(wire.ResumeAck)
	if !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("resume handshake: got %T, want ResumeAck", m)
	}
	cc.fold(ack)
	o := &cc.out
	o.mu.Lock()
	select {
	case <-cc.quit:
		// close has begun and has already dropped whatever was installed:
		// a connection installed now would outlive it.
		o.mu.Unlock()
		conn.Close()
		return nil, nil, net.ErrClosed
	default:
	}
	if ack.Cum > uint64(len(o.frames)) {
		o.mu.Unlock()
		conn.Close()
		return nil, nil, fmt.Errorf("resume: coordinator acked %d of %d frames", ack.Cum, len(o.frames))
	}
	cc.wm.retx.Add(int64(len(o.frames)) - int64(ack.Cum))
	o.conn, o.wrote = conn, int(ack.Cum)
	claimed := o.claim()
	o.mu.Unlock()
	if claimed {
		o.write()
	}
	return conn, br, nil
}

// send writes one frame through the session log; a disconnected stream
// buffers it for the resume replay.
func (cc *coordClient) send(m wire.Msg) {
	cc.logItems(m, 1)
	cc.writeLogged()
}

// logItems sequences one frame onto the session log without writing it,
// with the frame's capture-item count feeding the batch-size histogram
// (control frames observe 1, batch frames the batch length — the
// distribution the cluster bench reports). The frame is encoded here,
// so the caller's items are free for reuse when it returns.
func (cc *coordClient) logItems(m wire.Msg, items int) {
	b := wire.GetBuffer()
	cc.out.mu.Lock()
	b.B = wire.AppendFrame(b.B[:0], uint64(len(cc.out.frames))+1, m)
	cc.out.frames = append(cc.out.frames, b)
	cc.out.mu.Unlock()
	cc.wm.frames.Inc()
	cc.wm.batch.Observe(int64(items))
}

// writeLogged puts every logged frame not yet on the wire there, in one
// vectored write on the caller's goroutine (a kicked pass takes no
// goroutine hop) — or, while a write is in progress, leaves them to that
// writer. With the connection down, or severed by a partition window,
// the resume replay delivers them.
func (cc *coordClient) writeLogged() {
	o := &cc.out
	o.mu.Lock()
	if o.conn != nil && cc.parts.coordSevered(cc.id, time.Now()) {
		o.conn.Close()
		o.conn = nil
	}
	claimed := o.claim()
	o.mu.Unlock()
	if claimed {
		o.write()
	}
}

// toWirePoints converts a registry dump to its wire form for a
// MetricsSnapshot frame.
func toWirePoints(pts []obs.MetricPoint) []wire.MetricPoint {
	if len(pts) == 0 {
		return nil
	}
	out := make([]wire.MetricPoint, len(pts))
	for i, p := range pts {
		out[i] = wire.MetricPoint{Kind: uint8(p.Kind), Key: p.Key, Value: p.Value}
	}
	return out
}

// toObsPoints is the inverse, at the coordinator's ingest.
func toObsPoints(pts []wire.MetricPoint) []obs.MetricPoint {
	if len(pts) == 0 {
		return nil
	}
	out := make([]obs.MetricPoint, len(pts))
	for i, p := range pts {
		out[i] = obs.MetricPoint{Kind: obs.MetricKind(p.Kind), Key: p.Key, Value: p.Value}
	}
	return out
}

// markEpoch moves the stream to re-execution epoch e: an EpochMark is
// sequenced onto the stream so the coordinator — live now or replaying
// the session log after its own restart — discards that stream's staged
// capture at exactly the same point. The node stops the abandoned
// epoch's capture first, so no frame of it follows the mark.
func (cc *coordClient) markEpoch(e uint32) {
	cc.decMu.Lock()
	cc.epoch = e
	cc.decMu.Unlock()
	cc.send(wire.EpochMark{Epoch: e})
}

// sentFrames reports the session log's length (frames ever sequenced).
func (cc *coordClient) sentFrames() uint64 {
	cc.out.mu.Lock()
	defer cc.out.mu.Unlock()
	return uint64(len(cc.out.frames))
}

// healthy reports the session's liveness for /healthz: terminal session
// loss is the one condition that turns a node unhealthy while running.
func (cc *coordClient) healthy() error {
	select {
	case <-cc.sessDone:
		return errors.New("coordinator session lost")
	default:
		return nil
	}
}

// drain blocks until the whole session log is on the wire — a live
// connection with nothing unwritten — or d elapses. The shutdown path
// drains before close so a bye buffered behind a partition window or a
// broken stream is delivered by the resume machinery instead of dying
// with the session.
func (cc *coordClient) drain(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		cc.out.mu.Lock()
		live := cc.out.conn != nil && cc.out.wrote == len(cc.out.frames)
		cc.out.mu.Unlock()
		if live {
			return
		}
		select {
		case <-cc.quit:
			return
		case <-cc.sessDone:
			// Terminal session loss (a failed resume campaign): nothing
			// will ever install a connection again, and that failure has
			// already been logged as the hard truncation error.
			return
		case <-time.After(time.Millisecond):
		}
	}
	cc.logf("node %d: coordinator stream still down after %v; final frames may be lost", cc.id, d)
}

// close ends the session: the goroutine stops, the connection drops,
// and once no writer holds the session log, its buffers return to the
// pool.
func (cc *coordClient) close() {
	cc.quitOnce.Do(func() { close(cc.quit) })
	o := &cc.out
	o.mu.Lock()
	if o.conn != nil {
		o.conn.Close()
		o.conn = nil
	}
	o.mu.Unlock()
	<-cc.sessDone
	o.wait()
	o.mu.Lock()
	for _, b := range o.frames {
		wire.PutBuffer(b)
	}
	o.frames = nil
	o.mu.Unlock()
}
