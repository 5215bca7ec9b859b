package node

import (
	"bufio"
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
// (capture.go): the epoch's trace ops, journal events and candidates
// accumulate on the node and are flushed as wire.TraceOpBatch /
// JournalBatch / CandidateBatch frames when MaxItems are pending or
// Interval elapses, whichever comes first — hundreds of nodes each
// emitting thousands of capture items must not mean one TCP frame (and
// one syscall at each end) per item. Zero values take the defaults
// below.
type Batching struct {
	// MaxItems caps the items carried per batch frame and triggers an
	// early flush when that many are pending. Default 128.
	MaxItems int
	// Interval is the flush period for capture volume (trace ops, journal
	// events) while below MaxItems. Nothing anyone waits on waits for it:
	// a candidate kicks the flusher, and Done, bye and EpochMark write
	// through. Default 2ms.
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
// retained in an in-memory session log (sent) for the life of the run,
// so a broken connection is never a truncated capture: the session
// goroutine redials with capped exponential backoff, offers
// wire.Resume{Epoch}, and retransmits everything past the
// coordinator's ResumeAck.Cum. Because the log is never pruned, even a
// coordinator that crashed and restarted with no session state
// (Cum = 0) gets the complete stream replayed. A write error of any
// kind drops the connection immediately — the invariant is that the
// bytes on the wire are always a prefix of the log, so the
// coordinator's cumulative-sequence dedup can never see a gap.
type coordClient struct {
	id, n int
	inc   uint64 // the incarnation a node's Hello names (0 on a relay's uplink)
	addr  string
	opt   Timeouts
	wm    wireMeters
	logf  func(string, ...any)
	parts *partitions

	// decMu guards dec: the root's decisions as this client has folded
	// them (fold), the state the root's handshakes replay. decCh (cap 1)
	// wakes the node's epoch loop after every fold. A relay's child
	// handshakes read dec under decMu, its decision lock.
	decMu    sync.Mutex
	dec      decisions
	decCh    chan struct{}
	quitOnce sync.Once
	quit     chan struct{} // closed by close(): stop the session goroutine
	sessDone chan struct{}

	mu    sync.Mutex     // serializes stream writes; guards conn, sent, wrote, iov, iovW, writes, epoch
	conn  net.Conn       // nil while disconnected (frames buffer in sent)
	sent  []*wire.Buffer // session log: frame i carries seq i+1
	wrote int            // sent[:wrote] went out on conn (written, or replayed by the resume that installed it)
	iov   net.Buffers    // writeFrames' scratch: the frames of one vectored write
	iovW  net.Buffers    // the header WriteTo consumes (a field, so taking its address allocates nothing)
	// writes counts vectored writes issued — one per pass, one per
	// retransmit chunk — for the tests that pin "one write per pass".
	writes int
	epoch  uint32

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
	return &coordClient{
		id: id, n: n, addr: addr,
		opt: opt, wm: wm, logf: logf, parts: parts,
		decCh:    make(chan struct{}, 1),
		quit:     make(chan struct{}),
		sessDone: make(chan struct{}),
	}
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
	conn, err := cc.dialOnce(cc.sent[0].B)
	if err != nil {
		return nil, fmt.Errorf("node %d: coordinator %s: %w", id, addr, err)
	}
	cc.conn, cc.wrote = conn, 1
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
		conn, err := dialHandshake(cc.addr, handshake, cc.opt)
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
// forever — until close() or a failed resume campaign. Only resume
// failure is terminal: that is the hard, logged error that replaces
// the old silent capture truncation.
func (cc *coordClient) session(conn net.Conn, br *bufio.Reader) {
	defer close(cc.sessDone)
	for {
		cc.readLoop(conn, br)
		select {
		case <-cc.quit:
			return
		default:
		}
		cc.dropConn(conn)
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
// disconnected), retransmit everything past Cum, and install the
// connection — the retransmit and the install happen under cc.mu, so
// a concurrent pass cannot interleave a newer frame before the backlog
// and the coordinator always sees a contiguous sequence. The replay
// covers every frame logged so far, written or not, so installing the
// connection also marks the whole log written: a pass that logged
// frames before the install and writes after it must not send them a
// second time. A resume that close overtook installs nothing: close
// only drops the connection installed when it runs.
func (cc *coordClient) resume() (net.Conn, *bufio.Reader, error) {
	cc.mu.Lock()
	handshake := wire.Msg(wire.Resume{From: int32(cc.id), N: int32(cc.n), Epoch: cc.epoch})
	cc.mu.Unlock()
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
	cc.mu.Lock()
	defer cc.mu.Unlock()
	select {
	case <-cc.quit:
		// close has begun and has already dropped whatever was installed:
		// a connection installed now would outlive it.
		conn.Close()
		return nil, nil, net.ErrClosed
	default:
	}
	cum := ack.Cum
	if cum > uint64(len(cc.sent)) {
		conn.Close()
		return nil, nil, fmt.Errorf("resume: coordinator acked %d of %d frames", cum, len(cc.sent))
	}
	if err := cc.writeFrames(conn, cc.sent[cum:]); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("resume retransmit: %w", err)
	}
	if n := uint64(len(cc.sent)) - cum; n > 0 {
		cc.wm.retx.Add(int64(n))
	}
	cc.conn, cc.wrote = conn, len(cc.sent)
	return conn, br, nil
}

// writeChunk bounds one vectored write: a pass is far below it, and a
// resume replay of a long log renews its write deadline every that-many
// frames instead of staking the whole backlog on one.
const writeChunk = 512

// writeFrames puts frames on conn in order, one vectored write (writev
// on a TCP connection) per writeChunk of them. Caller holds cc.mu.
func (cc *coordClient) writeFrames(conn net.Conn, frames []*wire.Buffer) error {
	for len(frames) > 0 {
		n := min(len(frames), writeChunk)
		cc.iov = cc.iov[:0]
		bytes := 0
		for _, b := range frames[:n] {
			cc.iov = append(cc.iov, b.B)
			bytes += len(b.B)
		}
		// WriteTo consumes the header it is called on; iov keeps the
		// backing array for the next write.
		cc.iovW = cc.iov
		conn.SetWriteDeadline(time.Now().Add(cc.opt.WriteTimeout))
		cc.writes++
		if _, err := cc.iovW.WriteTo(conn); err != nil {
			return err
		}
		cc.wm.bytes.Add(int64(bytes))
		frames = frames[n:]
	}
	return nil
}

// dropConn closes conn and clears it if still installed.
func (cc *coordClient) dropConn(conn net.Conn) {
	cc.mu.Lock()
	if cc.conn == conn {
		cc.conn = nil
	}
	cc.mu.Unlock()
	conn.Close()
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
	cc.mu.Lock()
	seq := uint64(len(cc.sent)) + 1
	b.B = wire.AppendFrame(b.B[:0], seq, m)
	cc.sent = append(cc.sent, b)
	cc.wm.frames.Inc()
	cc.wm.batch.Observe(int64(items))
	cc.mu.Unlock()
}

// writeLogged puts every logged frame not yet on the wire there, in one
// vectored write — whoever calls it, so the wire always carries a
// prefix of the log. With the connection down, or severed by a
// partition window, it writes nothing: the resume replay delivers the
// whole log past the coordinator's ack, these frames included. Any
// write error drops the connection, so the wire never carries a gapped
// sequence.
func (cc *coordClient) writeLogged() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	conn := cc.conn
	if conn == nil {
		return
	}
	if cc.parts.coordSevered(cc.id, time.Now()) {
		cc.conn = nil
		conn.Close()
		return
	}
	if cc.wrote == len(cc.sent) {
		return
	}
	if err := cc.writeFrames(conn, cc.sent[cc.wrote:]); err != nil {
		if !errors.Is(err, net.ErrClosed) {
			cc.logf("node %d: coordinator write: %v", cc.id, err)
		}
		cc.conn = nil
		conn.Close()
		return
	}
	cc.wrote = len(cc.sent)
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
	cc.mu.Lock()
	cc.epoch = e
	cc.mu.Unlock()
	cc.send(wire.EpochMark{Epoch: e})
}

// sentFrames reports the session log's length (frames ever sequenced).
func (cc *coordClient) sentFrames() uint64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return uint64(len(cc.sent))
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

// drain blocks until the whole session log is on the wire or d
// elapses. A live connection carries sent[:wrote] — writeLogged writes
// through or drops the connection, and resume installs a connection
// only after retransmitting the backlog — so waiting for a connection
// with nothing unwritten after the last frame was sent is waiting for
// that frame to be written. The shutdown path drains before close so a
// bye buffered behind a partition window or a broken stream is
// delivered by the resume machinery instead of dying with the session.
func (cc *coordClient) drain(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		cc.mu.Lock()
		live := cc.conn != nil && cc.wrote == len(cc.sent)
		cc.mu.Unlock()
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
// and the session log's buffers return to the pool.
func (cc *coordClient) close() {
	cc.quitOnce.Do(func() { close(cc.quit) })
	cc.mu.Lock()
	if cc.conn != nil {
		cc.conn.Close()
		cc.conn = nil
	}
	cc.mu.Unlock()
	<-cc.sessDone
	cc.mu.Lock()
	for _, b := range cc.sent {
		wire.PutBuffer(b)
	}
	cc.sent = nil
	cc.mu.Unlock()
}
