package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// Batching is the size-or-interval flush policy for a node's
// coordinator capture stream. Journal events and trace ops accumulate
// on the node and are flushed as wire.JournalBatch / wire.TraceOpBatch
// frames when MaxItems are pending or Interval elapses, whichever
// comes first — hundreds of nodes each emitting thousands of capture
// items must not mean one TCP frame (and one syscall at each end) per
// item. Zero values take the defaults below.
type Batching struct {
	// MaxItems caps the items carried per batch frame and triggers an
	// early flush when that many are pending. Default 128.
	MaxItems int
	// Interval is the flush period while below MaxItems; it bounds how
	// stale the coordinator's view can go. Default 2ms.
	Interval time.Duration
	// PerEvent disables batching: every journal event and trace op
	// rides its own frame, the pre-batching wire behavior. It exists as
	// the bench baseline and as a debugging aid (per-event frames are
	// easier to correlate with a packet capture).
	PerEvent bool
	// SnapshotEvery emits a wire.MetricsSnapshot (a cumulative dump of
	// the node's registry) every that-many flusher passes, riding the
	// existing batching cadence — the coordinator's live merged registry
	// and `pctl top` feed off it. Default 25 (≈ 50ms at the default 2ms
	// interval); negative disables snapshot streaming.
	SnapshotEvery int
}

// WithDefaults resolves unset fields to their defaults — the exact
// policy a node's capture batcher runs, exported so tooling (bench
// notes, CLI help) can describe the effective config instead of
// hand-writing it.
func (b Batching) WithDefaults() Batching { return b.withDefaults() }

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

// coordClient is a node's stream to the coordinator: Hello, then trace
// batches, forwarded journal events, candidates, Done and bye frames
// out; Shutdown, Restart and Commit in.
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
//
// Capture traffic is batched: journal events and candidates buffer in
// pendJournal / pendCands and trace ops stay in the node's capture
// until the flusher goroutine drains all three on the Batching policy.
// Control frames (Done, Shutdown bye) are latency-relevant and
// once-per-epoch, so they bypass the batcher and write through
// immediately.
type coordClient struct {
	id, n int
	addr  string
	opt   Timeouts
	batch Batching
	wm    wireMeters
	logf  func(string, ...any)
	parts *partitions

	shutdownEv chan uint32   // latest Shutdown{Epoch} from the coordinator (latest wins)
	restartCh  chan uint32   // latest Restart/ResumeAck epoch from the coordinator
	controlled atomic.Bool   // a Detection/ReExec arrived: rogue behavior must stop
	commitCh   chan struct{} // closed on the coordinator's Commit: the run is sealed
	commitOnce sync.Once
	quitOnce   sync.Once
	quit       chan struct{} // closed by close(): stop the session goroutine
	sessDone   chan struct{}

	mu    sync.Mutex     // serializes stream writes; guards conn, sent, epoch
	conn  net.Conn       // nil while disconnected (frames buffer in sent)
	sent  []*wire.Buffer // session log: frame i carries seq i+1
	epoch uint32

	// flushMu serializes flush passes with epoch transitions, so no
	// stale capture frame can land on the stream after the EpochMark
	// that voids its epoch.
	flushMu     sync.Mutex
	pendMu      sync.Mutex
	pendJournal []wire.JournalEvent
	pendCands   []wire.Candidate

	take      func() []wire.TraceOp // drains the node's capture; flushMu-guarded
	kick      chan struct{}         // cap 1: a size threshold was crossed
	flushing  bool                  // a flusher goroutine is running; flushMu-guarded
	flushQuit chan struct{}
	flushDone chan struct{}

	// snap, when non-nil, dumps the node's registry for MetricsSnapshot
	// streaming. Set once before the flusher starts; start anchors the
	// snapshots' AtNs timestamps.
	snap  func() []wire.MetricPoint
	start time.Time

	// Session-machinery hooks, set only by the relay's uplink (nil on a
	// node's stream): mkResume replaces the Resume handshake frame,
	// onMsg intercepts inbound frames before the node-oriented handling
	// (return true to consume), and onResumeAck observes every resume
	// handshake's ack. They let the relay reuse the session log,
	// redial/backoff and retransmit machinery unchanged.
	mkResume    func(epoch uint32) wire.Msg
	onMsg       func(m wire.Msg) bool
	onResumeAck func(ack wire.ResumeAck)
}

// dialCoord connects to the coordinator, retrying with capped
// exponential backoff (the same policy as mesh redials) until
// opt.CoordDeadline, so a coordinator that is slow to come up — or
// restarting — is waited for rather than fataled on.
func dialCoord(addr string, id, n int, batch Batching, wm wireMeters, opt Timeouts, parts *partitions, logf func(string, ...any)) (*coordClient, error) {
	cc := &coordClient{
		id: id, n: n, addr: addr,
		opt: opt, batch: batch.withDefaults(), wm: wm, logf: logf, parts: parts,
		shutdownEv: make(chan uint32, 1),
		restartCh:  make(chan uint32, 1),
		commitCh:   make(chan struct{}),
		quit:       make(chan struct{}),
		sessDone:   make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	conn, err := cc.dialOnce(wire.Hello{From: int32(id), N: int32(n)})
	if err != nil {
		return nil, fmt.Errorf("node %d: coordinator %s: %w", id, addr, err)
	}
	cc.conn = conn
	go cc.session(conn, bufReader(conn))
	return cc, nil
}

// dialOnce runs one dial campaign: dial until opt.CoordDeadline with
// backoffDelay pacing, write the handshake frame, and return the
// connection. A partition window severing this node's coordinator
// stream pauses the campaign (the clock keeps running).
func (cc *coordClient) dialOnce(handshake wire.Msg) (net.Conn, error) {
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
		conn, err := net.DialTimeout("tcp", cc.addr, cc.opt.DialTimeout)
		if err != nil {
			lastErr = err
			cc.pause(backoffDelay(cc.opt, fails))
			fails++
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		conn.SetWriteDeadline(time.Now().Add(cc.opt.WriteTimeout))
		if err := wire.WriteFrame(conn, 0, handshake); err != nil {
			conn.Close()
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
			case <-cc.commitCh:
				// Post-commit breaks are expected (the coordinator tears
				// down once the run is sealed); don't spam the log.
			default:
				if !errors.Is(err, net.ErrClosed) {
					cc.logf("node %d: coordinator stream: %v", cc.id, err)
				}
			}
			return
		}
		if cc.onMsg != nil && cc.onMsg(m) {
			continue
		}
		switch v := m.(type) {
		case wire.Shutdown:
			cc.pushShutdown(v.Epoch)
		case wire.Commit:
			cc.signalCommit()
		case wire.Restart:
			cc.pushRestart(v.Epoch)
		case wire.Detection:
			// The coordinator confirmed possibly(¬B): whatever this node
			// does next happens under active debugging, so a planted rogue
			// reverts to controlled behavior from here on.
			cc.controlled.Store(true)
		case wire.ReExec:
			// A detection-triggered controlled re-execution: same epoch
			// transition as a crash-recovery Restart, but the node also
			// knows it runs under the detection's control strategy.
			cc.controlled.Store(true)
			cc.pushRestart(v.Epoch)
		case wire.ResumeAck:
			// Only expected during resume's handshake; a stray one is
			// harmless.
		default:
			cc.logf("node %d: coordinator sent unexpected %T", cc.id, m)
		}
	}
}

// resume re-establishes the session: dial, offer Resume{Epoch}, read
// ResumeAck, retransmit everything past Cum, and install the
// connection — the retransmit and the install happen under cc.mu, so
// concurrent sendItems cannot interleave a newer frame before the
// backlog and the coordinator always sees a contiguous sequence.
func (cc *coordClient) resume() (net.Conn, *bufio.Reader, error) {
	cc.mu.Lock()
	e := cc.epoch
	cc.mu.Unlock()
	handshake := wire.Msg(wire.Resume{From: int32(cc.id), N: int32(cc.n), Epoch: e})
	if cc.mkResume != nil {
		handshake = cc.mkResume(e)
	}
	conn, err := cc.dialOnce(handshake)
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
	if cc.onResumeAck != nil {
		cc.onResumeAck(ack)
	}
	if ack.Epoch != e {
		// The coordinator knows a different epoch (a Restart we missed
		// while disconnected, or a restarted coordinator rebuilding from
		// our replay). The node's epoch loop sorts it out.
		cc.pushRestart(ack.Epoch)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cum := ack.Cum
	if cum > uint64(len(cc.sent)) {
		conn.Close()
		return nil, nil, fmt.Errorf("resume: coordinator acked %d of %d frames", cum, len(cc.sent))
	}
	for _, b := range cc.sent[cum:] {
		conn.SetWriteDeadline(time.Now().Add(cc.opt.WriteTimeout))
		if _, err := conn.Write(b.B); err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("resume retransmit: %w", err)
		}
		cc.wm.bytes.Add(int64(len(b.B)))
	}
	if n := uint64(len(cc.sent)) - cum; n > 0 {
		cc.wm.retx.Add(int64(n))
	}
	cc.conn = conn
	return conn, br, nil
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

func (cc *coordClient) signalCommit() {
	cc.commitOnce.Do(func() { close(cc.commitCh) })
}

// pushLatest publishes e to a capacity-1 epoch channel, displacing any
// unconsumed older value; only the newest matters.
func pushLatest(ch chan uint32, e uint32) {
	for {
		select {
		case ch <- e:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

// pushRestart publishes the latest restart epoch to the node's epoch
// loop.
func (cc *coordClient) pushRestart(e uint32) { pushLatest(cc.restartCh, e) }

// pushShutdown publishes the latest shutdown signal with the epoch it
// belongs to: the epoch loop obeys it only if it still runs that
// epoch — a Shutdown superseded by a Restart is stale, and obeying it
// would make the node bye out of an execution the cluster is busy
// re-running.
func (cc *coordClient) pushShutdown(e uint32) { pushLatest(cc.shutdownEv, e) }

// send writes one frame through the session log; a disconnected stream
// buffers it for the resume replay.
func (cc *coordClient) send(m wire.Msg) { cc.sendItems(m, 1) }

// sendItems is send with the frame's capture-item count, feeding the
// batch-size histogram (per-event frames observe 1, batch frames the
// batch length — the distribution the cluster bench reports). The
// frame is appended to the session log unconditionally; it is written
// through only when a connection is up and no partition window severs
// the stream, and any write error drops the connection so the wire
// never carries a gapped sequence.
func (cc *coordClient) sendItems(m wire.Msg, items int) {
	b := wire.GetBuffer()
	cc.mu.Lock()
	seq := uint64(len(cc.sent)) + 1
	b.B = wire.AppendFrame(b.B[:0], seq, m)
	cc.sent = append(cc.sent, b)
	cc.wm.frames.Inc()
	cc.wm.batch.Observe(int64(items))
	conn := cc.conn
	if conn != nil && cc.parts.coordSevered(cc.id, time.Now()) {
		cc.conn = nil
		conn.Close()
		conn = nil
	}
	if conn != nil {
		conn.SetWriteDeadline(time.Now().Add(cc.opt.WriteTimeout))
		if _, err := conn.Write(b.B); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				cc.logf("node %d: coordinator write: %v", cc.id, err)
			}
			cc.conn = nil
			conn.Close()
		} else {
			cc.wm.bytes.Add(int64(len(b.B)))
		}
	}
	cc.mu.Unlock()
}

// sendJournal forwards one journal event — immediately in PerEvent
// mode, else into the pending batch (kicking the flusher at the size
// threshold). Nil-safe like the journal itself so instrumentation
// sites need no guards.
func (cc *coordClient) sendJournal(e obs.Event) {
	if cc == nil {
		return
	}
	we := wire.JournalEvent{
		At: e.At, Proc: int32(e.Proc), Kind: uint8(e.Kind), Name: e.Name,
		A: e.A, B: e.B, C: e.C, VC: e.VC,
	}
	if cc.batch.PerEvent {
		cc.send(we)
		return
	}
	cc.pendMu.Lock()
	cc.pendJournal = append(cc.pendJournal, we)
	full := len(cc.pendJournal) >= cc.batch.MaxItems
	cc.pendMu.Unlock()
	if full {
		cc.kickFlush()
	}
}

// sendCandidate forwards one monitor candidate — immediately in
// PerEvent mode, else into the pending batch. Candidates are consumed
// only at assembly time, so deferring them to the next flush loses
// nothing; at one candidate per node per round they otherwise dominate
// the unbatchable frame count.
func (cc *coordClient) sendCandidate(v wire.Candidate) {
	if cc.batch.PerEvent {
		cc.send(v)
		return
	}
	cc.pendMu.Lock()
	cc.pendCands = append(cc.pendCands, v)
	full := len(cc.pendCands) >= cc.batch.MaxItems
	cc.pendMu.Unlock()
	if full {
		cc.kickFlush()
	}
}

// kickFlush nudges the flusher ahead of its interval tick.
func (cc *coordClient) kickFlush() {
	select {
	case cc.kick <- struct{}{}:
	default:
	}
}

// ensureFlusher points the flusher at an epoch's capture, starting a
// goroutine if none is running — at the first epoch, and again after a
// bye-phase stopFlusher when a late restart re-executes the workload
// from the parked state.
func (cc *coordClient) ensureFlusher(take func() []wire.TraceOp) {
	cc.flushMu.Lock()
	defer cc.flushMu.Unlock()
	cc.take = take
	if cc.flushing {
		return
	}
	cc.flushing = true
	cc.flushQuit = make(chan struct{})
	cc.flushDone = make(chan struct{})
	go cc.flusher(cc.flushQuit, cc.flushDone)
}

func (cc *coordClient) flusher(quit, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(cc.batch.Interval)
	defer tick.Stop()
	passes := 0
	for {
		select {
		case <-quit:
			return
		case <-cc.kick:
		case <-tick.C:
		}
		cc.flush()
		passes++
		if cc.batch.SnapshotEvery > 0 && passes%cc.batch.SnapshotEvery == 0 {
			cc.sendSnapshot()
		}
	}
}

// sendSnapshot sequences one cumulative metrics dump onto the capture
// stream. Snapshots ride the session log like every capture frame, so
// resume replay re-delivers them — harmless, since applying a full
// cumulative dump is idempotent.
func (cc *coordClient) sendSnapshot() {
	if cc.snap == nil {
		return
	}
	pts := cc.snap()
	if len(pts) == 0 {
		return
	}
	cc.mu.Lock()
	e := cc.epoch
	cc.mu.Unlock()
	cc.sendItems(wire.MetricsSnapshot{
		Proc: int32(cc.id), Epoch: e,
		AtNs: time.Since(cc.start).Nanoseconds(), Points: pts,
	}, 1)
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

// stopFlusher ends the flusher goroutine and drains everything still
// pending, so the stream is complete before the final Done and bye. It
// is idempotent and a no-op if ensureFlusher was never called. With
// drain false (the crash path), pending capture is abandoned exactly
// as a killed process would abandon it.
func (cc *coordClient) stopFlusher(drain bool) {
	cc.flushMu.Lock()
	running := cc.flushing
	cc.flushing = false
	started := cc.take != nil
	quit, done := cc.flushQuit, cc.flushDone
	cc.flushMu.Unlock()
	if running {
		close(quit)
		<-done
	}
	if started && drain {
		cc.flush()
		if cc.batch.SnapshotEvery > 0 {
			// A closing snapshot, so even a run shorter than the snapshot
			// cadence reports final per-node values.
			cc.sendSnapshot()
		}
	}
}

// flush drains pending journal events and captured trace ops as batch
// frames of at most MaxItems items each (in PerEvent mode, as one
// frame per item). Called from the flusher goroutine and, once it has
// stopped, from stopFlusher. flushMu orders whole passes against
// markEpoch's discard-and-mark.
func (cc *coordClient) flush() {
	cc.flushMu.Lock()
	defer cc.flushMu.Unlock()
	cc.pendMu.Lock()
	events := cc.pendJournal
	cands := cc.pendCands
	cc.pendJournal, cc.pendCands = nil, nil
	cc.pendMu.Unlock()
	for len(events) > 0 {
		n := min(len(events), cc.batch.MaxItems)
		cc.sendItems(wire.JournalBatch{Events: events[:n]}, n)
		events = events[n:]
	}
	// Trace ops flush before candidates: a candidate can trigger the
	// coordinator's live prefix confirmation, and the confirmable prefix
	// only contains states whose ops are already staged — ops first
	// keeps the prefix as fresh as the candidate that probes it.
	if cc.take != nil {
		ops := cc.take()
		if cc.batch.PerEvent {
			for _, op := range ops {
				cc.send(wire.Trace{Ops: []wire.TraceOp{op}})
			}
		} else {
			for len(ops) > 0 {
				n := min(len(ops), cc.batch.MaxItems)
				cc.sendItems(wire.TraceOpBatch{Ops: ops[:n]}, n)
				ops = ops[n:]
			}
		}
	}
	for len(cands) > 0 {
		n := min(len(cands), cc.batch.MaxItems)
		cc.sendItems(wire.CandidateBatch{Cands: cands[:n]}, n)
		cands = cands[n:]
	}
}

// markEpoch moves the stream to re-execution epoch e: everything the
// abandoned epoch left pending (batched journal events, candidates,
// undrained capture) is discarded, then an EpochMark is sequenced onto
// the stream so the coordinator — live now or replaying the session
// log after its own restart — discards that stream's staged capture at
// exactly the same point. Holding flushMu across the transition
// guarantees no old-epoch frame lands after the mark.
func (cc *coordClient) markEpoch(e uint32) {
	cc.flushMu.Lock()
	defer cc.flushMu.Unlock()
	cc.pendMu.Lock()
	cc.pendJournal, cc.pendCands = nil, nil
	cc.pendMu.Unlock()
	if cc.take != nil {
		cc.take() // drain and drop the dead epoch's capture
	}
	cc.mu.Lock()
	cc.epoch = e
	cc.mu.Unlock()
	cc.sendItems(wire.EpochMark{Epoch: e}, 1)
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
// elapses. A live connection implies the wire carries the full log as
// a prefix — sendItems writes through or drops the connection, and
// resume installs a connection only after retransmitting the backlog —
// so waiting for conn != nil after the last frame was appended is
// waiting for that frame to be written. The shutdown path drains
// before close so a bye buffered behind a partition window or a broken
// stream is delivered by the resume machinery instead of dying with
// the session.
func (cc *coordClient) drain(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		cc.mu.Lock()
		live := cc.conn != nil
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

// CoordConfig parameterizes the cluster coordinator.
type CoordConfig struct {
	N        int
	Addr     string       // listen address (ignored when Listener is set)
	Listener net.Listener // optional pre-bound listener
	// Journal receives the merged cluster journal: every control event
	// forwarded by every node, plus candidate reports. May be nil.
	Journal      *obs.Journal
	Reg          *obs.Registry
	MetricLabels []obs.Label
	Timeouts     Timeouts
	Logf         func(string, ...any)
	// HTTPAddr, when non-empty (or HTTPListener non-nil), opts into the
	// introspection server: /metrics serves the coordinator's live
	// merged registry (every node's streamed snapshots plus per-node
	// ingest-lag gauges), /statusz the CoordStatus document `pctl top`
	// polls, /healthz liveness, /debug/pprof/ profiling.
	HTTPAddr     string
	HTTPListener net.Listener
	// Start anchors annotation timestamps; clusters pass the shared run
	// epoch so annotations line up with node journal timestamps. Zero
	// means "now".
	Start time.Time
	// Live opts the coordinator into online detection of possibly(¬B)
	// while the run streams. Zero value (nil Predicate) disables it.
	Live LiveConfig
	// Store, when non-nil, spills staged capture (trace ops, journal
	// events) to the segmented on-disk trace store instead of holding it
	// in RAM; assembly and the live prefix pass replay from disk. The
	// coordinator seals the store into a capture bundle at commit; the
	// caller owns Open/Close.
	Store *store.Store
}

// LiveConfig parameterizes the live online-detection subsystem: the
// coordinator feeds every ingested candidate to an incremental checker
// (internal/livedetect) and, on a confirmed detection, closes the
// paper's active-debugging loop without waiting for the run to end.
type LiveConfig struct {
	// Predicate is the good-state invariant B; the checker watches for
	// possibly(¬B). Nil disables live detection entirely.
	Predicate predicate.Expr
	// OnDetect selects the response to a confirmed mid-run detection:
	// OnDetectReExec (the default) broadcasts Detection + ReExec frames
	// and drives a §8 controlled re-execution; OnDetectNote records the
	// detection and lets the run finish undisturbed.
	OnDetect string
	// MaxReExecs caps detection-triggered re-executions so a violation
	// the control strategy cannot suppress does not re-execute forever.
	// Zero means the default of 1; negative disables re-execution.
	MaxReExecs int
}

// OnDetect modes.
const (
	OnDetectReExec = "reexec"
	OnDetectNote   = "note"
)

// CSMutexPredicate returns the cluster workload's control predicate
// B = ∨ᵢ (csᵢ = 0) over the n application processes: at least one
// application is outside its critical section. Its violation,
// possibly(¬B) = "a consistent cut with every application in CS", is
// what live detection watches the (n−1)-mutex runs for.
func CSMutexPredicate(n int) predicate.Expr {
	xs := make([]predicate.Expr, n)
	for i := range xs {
		xs[i] = predicate.LocalVarEq(i, "cs", 0)
	}
	return predicate.Or(xs...)
}

// DetectionRecord is one confirmed live detection as the run's history
// keeps it (detections survive epoch discards like annotations do: they
// describe what really happened, which re-execution does not rewrite).
type DetectionRecord struct {
	// Epoch is the execution epoch the detection fired in.
	Epoch uint32 `json:"epoch"`
	// Node is the node whose candidate completed the streaming witness,
	// or -1 when only the commit-time closing pass found the cut.
	Node int `json:"node"`
	// AtNs is when the confirmation landed, relative to the run start.
	AtNs int64 `json:"at_ns"`
	// Cut is the confirmed consistent cut — one consumed-state index per
	// logical process (apps 0..n-1, controllers n..2n-1).
	Cut []int64 `json:"cut"`
	// WitnessHiIdx is the last traced app-state index of the triggering
	// candidate interval (latency attribution joins it with the node's
	// monitor.candidate journal event).
	WitnessHiIdx int64 `json:"witness_hi_idx"`
	// StrategyEdges counts the added synchronization edges of the
	// control strategy computed on the confirmed prefix (0 when the
	// off-line algorithm found none or failed).
	StrategyEdges int `json:"strategy_edges"`
	// Final marks a detection found only by the commit-time closing
	// pass rather than strictly mid-run.
	Final bool `json:"final"`
	// ReExec marks a detection that triggered a controlled
	// re-execution.
	ReExec bool `json:"reexec"`
}

// Result is a completed cluster run as the coordinator saw it.
type Result struct {
	// Deposet is the captured run — apps 0..n-1, controllers n..2n-1,
	// the layout sim traces use — consumable by replay/detect/offline.
	Deposet *deposet.Deposet
	// Stats holds each node's final tallies.
	Stats []Stats
	// Candidates counts monitor candidate reports staged for the final
	// epoch (discarded epochs' reports are not included).
	Candidates int
	// Epoch is the re-execution epoch the run completed at: 0 for a
	// fault-free run, +1 per controlled re-execution restart.
	Epoch uint32
	// Restarts counts the controlled re-execution restarts the
	// coordinator ordered (crashed-node rejoins).
	Restarts int
	// Detections is the live checker's confirmed possibly(¬B) history
	// across every epoch, in confirmation order. Empty when live
	// detection was off or nothing fired.
	Detections []DetectionRecord
	// LiveFired reports whether the live checker confirmed possibly(¬B)
	// for the final epoch. Because commit runs a closing confirmation
	// pass over the complete final-epoch capture, this coincides exactly
	// with the offline detect.PossiblyGeneral verdict on Deposet.
	LiveFired bool
	// ReExecs counts detection-triggered controlled re-executions
	// (disjoint from Restarts, which counts crash recoveries).
	ReExecs int
	// RootConns counts stream handshakes the coordinator accepted
	// (Hello, Resume, RelayHello); RootFrames / RootBytes the frames
	// and payload bytes it read off accepted streams. With a relay tree
	// these measure the root's actual ingest load — O(relays) instead
	// of O(n) — which is what the cluster bench's tree rows report.
	RootConns  int64
	RootFrames int64
	RootBytes  int64
}

// nodeSession is the coordinator's per-node-id stream state. It
// outlives any one connection: a node whose stream broke resumes the
// same session (lastSeq-based dedup absorbs the replayed tail), and a
// node that crashed and relaunched resets it. Staged capture (ops,
// events, candidates) belongs to the session's current epoch and is
// discarded wholesale when an EpochMark announces a newer one — the
// mechanism that makes the final trace equal to a fault-free run of
// the final epoch. The session lock, not the coordinator's, guards the
// hot ingest path, preserving the no-global-serialization property the
// batched ingest bench pins.
type nodeSession struct {
	id int

	// ingestMu serializes accept-and-stage as one atomic step per frame
	// (and handshake resets against in-flight frames): a handler whose
	// connection was superseded mid-ingest must not interleave its
	// staging with the successor's, or the per-process op order the
	// deposet assembly depends on scrambles. Always taken before mu.
	ingestMu sync.Mutex

	mu       sync.Mutex
	attached bool       // a connection has handshaken for this id before
	owner    *coordConn // the connection currently allowed to ingest
	lastSeq  uint64     // highest contiguous sequence ingested
	epoch    uint32     // the stream's current epoch (last EpochMark seen)
	ops      procOps    // staged by logical process at ingest
	events   []obs.Event
	cands    int

	// Live-observability state: the node's latest cumulative metrics
	// snapshot and when it arrived. Deliberately NOT cleared on epoch
	// discard — the registry is cumulative across re-executions, so the
	// dashboard keeps its history through a restart.
	lastSnap   []wire.MetricPoint
	lastSnapAt time.Time
	snapEpoch  uint32
}

// reset clears the session for a relaunched node: sequence numbering
// restarts (the fresh process counts from 1) and staged capture from
// the dead incarnation is dropped. Caller holds s.mu.
func (s *nodeSession) resetLocked(lastSeq uint64) {
	s.lastSeq = lastSeq
	s.epoch = 0
	s.ops, s.events, s.cands = procOps{}, nil, 0
}

// discardEpochLocked drops the staged capture when the stream enters a
// new epoch. Caller holds s.mu.
func (s *nodeSession) discardEpochLocked(e uint32) {
	s.epoch = e
	s.ops, s.events, s.cands = procOps{}, nil, 0
}

// coordConn wraps one node connection with write serialization:
// ResumeAck from the handler races Shutdown/Restart broadcasts from
// other goroutines.
type coordConn struct {
	net.Conn
	wmu sync.Mutex
}

func (c *coordConn) writeFrame(opt Timeouts, m wire.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.SetWriteDeadline(time.Now().Add(opt.WriteTimeout))
	return wire.WriteFrame(c.Conn, 0, m)
}

// Coordinator collects the capture streams of a node cluster and
// reassembles them into a deposet trace plus a merged journal.
// Protocol flow: nodes connect and stream; after all N report Done at
// the current epoch the coordinator broadcasts Shutdown{epoch}; each
// node final-flushes, echoes Shutdown as its bye, and parks; when
// every bye is in, the coordinator broadcasts Commit — the run is
// sealed, parked nodes exit, and Wait assembles the trace. The park is
// what makes shutdown crash-safe: a node killed between the Shutdown
// broadcast and its bye rejoins and triggers a restart (the epoch was
// still voidable), while after Commit a rejoin is refused with the
// same Shutdown+Commit exit ramp.
//
// Failure handling is the paper's §8 controlled re-execution, global
// form: when a crashed node relaunches (a second Hello for a known
// id), the coordinator bumps the cluster epoch and broadcasts
// Restart{epoch} — every node aborts, resets its mesh, discards its
// local capture and deterministically re-executes from scratch. Each
// stream's EpochMark then discards that stream's staged capture, so
// what Wait assembles is exactly the final epoch: a trace
// indistinguishable from a fault-free run.
type Coordinator struct {
	n       int
	ln      net.Listener
	journal *obs.Journal
	cands   *obs.Counter
	opt     Timeouts
	logf    func(string, ...any)
	start   time.Time

	// live is the merged cluster registry: every node's streamed
	// MetricsSnapshot applied with a node label, plus the coordinator's
	// scrape-time ingest-lag gauges. It backs the introspection
	// server's /metrics and feeds CoordStatus.
	live *obs.Registry
	insp *obs.Introspection

	// Live online detection (nil ld when CoordConfig.Live is off):
	// every ingested candidate feeds ld; a trigger runs the prefix
	// confirmation, a confirmation fires the OnDetect response.
	ld        *livedetect.Checker
	liveCfg   LiveConfig
	violation predicate.Expr // ¬B, precomputed from Live.Predicate
	detMeter  *obs.Counter

	// assemblies counts whole-capture assemblies on the commit path (the
	// closing live pass, Wait): one per committed run.
	assemblies *obs.Counter

	// store, when non-nil, takes capture volume (trace ops, journal
	// events) off the heap: the raw frame bodies spill to the segmented
	// on-disk trace store and are streamed back at assembly time.
	// Coordination state (epochs, completion, candidates, snapshots)
	// stays in RAM.
	store *store.Store

	// Root-side ingest accounting for the tree-vs-flat bench: frames
	// and payload bytes read off accepted streams, and handshakes that
	// opened or resumed one.
	rootFrames atomic.Int64
	rootBytes  atomic.Int64
	rootConns  atomic.Int64

	mu         sync.Mutex
	sessions   map[int]*nodeSession
	relays     map[int]*relaySession
	relayConns map[int]*coordConn
	stats      []Stats
	epoch      uint32 // cluster re-execution epoch
	restarts   int
	reexecs    int               // detection-triggered re-executions
	detections []DetectionRecord // confirmed live detections, all epochs
	detByNode  []int             // confirmed detections per witness node
	doneSeen   []bool
	byeSeen    []bool
	doneCount  int
	byeCount   int
	conns      map[int]*coordConn
	annots     []obs.Event // cluster-level annotations (chaos, epoch bumps)
	// sealed is the final-epoch deposet when the closing live pass
	// already assembled it; Wait returns it instead of assembling again.
	// Written at most once, in commitRun (shutdownMu held, committed
	// set: no restart can void it) before allByes closes; read by Wait
	// after. A Deposet is immutable, so the handover shares it.
	sealed *deposet.Deposet

	// shutdownMu serializes the run's terminal decisions — Shutdown
	// broadcast, Commit broadcast, restart-on-rejoin, and the state
	// replayed to resuming connections — against each other. Combined
	// with the per-connection write lock, every node observes those
	// decisions in decision order, so a Shutdown can never overtake the
	// Restart that voided it. Lock order: shutdownMu → ingestMu → st.mu,
	// and shutdownMu → c.mu; never taken while holding c.mu or a
	// session lock.
	shutdownMu sync.Mutex
	shutdown   bool // Shutdown broadcast for the current epoch, byes pending
	committed  bool // Commit broadcast: the run is sealed, no more restarts

	allByes chan struct{}
	byeOnce sync.Once
	closed  chan struct{}
	wg      sync.WaitGroup
}

// NewCoordinator starts a coordinator for an n-node cluster.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: coordinator needs n ≥ 2, got %d", cfg.N)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("node: coordinator listen %s: %w", cfg.Addr, err)
		}
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	c := &Coordinator{
		n:          cfg.N,
		ln:         ln,
		journal:    cfg.Journal,
		cands:      cfg.Reg.Counter("predctl_monitor_candidates_total", cfg.MetricLabels...),
		assemblies: cfg.Reg.Counter("predctl_coord_commit_assemblies_total", cfg.MetricLabels...),
		opt:        cfg.Timeouts.withDefaults(),
		logf:       logf,
		start:      start,
		store:      cfg.Store,
		live:       obs.NewRegistry(),
		sessions:   map[int]*nodeSession{},
		relays:     map[int]*relaySession{},
		relayConns: map[int]*coordConn{},
		stats:      make([]Stats, cfg.N),
		doneSeen:   make([]bool, cfg.N),
		byeSeen:    make([]bool, cfg.N),
		conns:      map[int]*coordConn{},
		allByes:    make(chan struct{}),
		closed:     make(chan struct{}),
	}
	if cfg.Live.Predicate != nil {
		lc := cfg.Live
		if lc.OnDetect == "" {
			lc.OnDetect = OnDetectReExec
		}
		if lc.OnDetect != OnDetectReExec && lc.OnDetect != OnDetectNote {
			ln.Close()
			return nil, fmt.Errorf("node: coordinator: unknown OnDetect mode %q", lc.OnDetect)
		}
		if lc.MaxReExecs == 0 {
			lc.MaxReExecs = 1
		}
		c.liveCfg = lc
		c.violation = predicate.Not(lc.Predicate)
		c.ld = livedetect.New(cfg.N)
		c.detMeter = cfg.Reg.Counter("predctl_live_detections_total", cfg.MetricLabels...)
		c.detByNode = make([]int, cfg.N)
	}
	if cfg.HTTPAddr != "" || cfg.HTTPListener != nil {
		insp, err := obs.ServeIntrospection(obs.IntrospectionConfig{
			Addr: cfg.HTTPAddr, Listener: cfg.HTTPListener,
			Reg:     c.live,
			Status:  func() any { return c.Status() },
			Healthy: c.healthy,
			Refresh: c.refreshLag,
			Logf:    logf,
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		c.insp = insp
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// HTTPURL returns the introspection server's base URL, or "" when the
// server was not enabled.
func (c *Coordinator) HTTPURL() string { return c.insp.URL() }

func (c *Coordinator) healthy() error {
	select {
	case <-c.closed:
		return errors.New("coordinator closed")
	default:
		return nil
	}
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close shuts the coordinator's listener and connections down.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
		return
	default:
		close(c.closed)
	}
	c.insp.Close()
	c.ln.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	// Relay uplinks are tracked separately from node conns; leaving
	// them open would keep their handleRelay readers — and so wg.Wait —
	// alive for as long as the relays keep forwarding.
	for _, conn := range c.relayConns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.closed:
			default:
				c.logf("coordinator: accept: %v", err)
			}
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleNode(conn)
		}()
	}
}

// session returns (creating if needed) the state for node id.
func (c *Coordinator) session(id int) *nodeSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.sessions[id]
	if st == nil {
		st = &nodeSession{id: id}
		c.sessions[id] = st
	}
	return st
}

// attach installs conn as node id's connection, closing any previous
// one so a zombie handler can't keep reading a superseded stream.
func (c *Coordinator) attach(id int, conn *coordConn) {
	c.mu.Lock()
	old := c.conns[id]
	c.conns[id] = conn
	c.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
}

// handleNode serves one node connection: handshake (Hello for a fresh
// session or a crashed-node rejoin, Resume to continue one), then
// sequence-checked ingest into the session's staging.
func (c *Coordinator) handleNode(rawConn net.Conn) {
	conn := &coordConn{Conn: rawConn}
	defer conn.Close()
	br := bufReader(rawConn)
	rawConn.SetReadDeadline(time.Now().Add(c.opt.DialTimeout))
	seq, first, err := wire.ReadFrame(br)
	if err != nil {
		c.logf("coordinator: handshake: %v", err)
		return
	}
	c.rootConns.Add(1)

	var st *nodeSession
	switch h := first.(type) {
	case wire.RelayHello:
		c.handleRelay(conn, br, rawConn, h)
		return
	case wire.Hello:
		if int(h.N) != c.n || h.From < 0 || int(h.From) >= c.n {
			c.logf("coordinator: bad hello %#v", first)
			return
		}
		id := int(h.From)
		st = c.session(id)
		c.shutdownMu.Lock()
		st.ingestMu.Lock()
		st.mu.Lock()
		rejoin := st.attached
		if rejoin && c.committed {
			// The run is sealed: every bye for the final epoch is in and
			// the staged capture is (being) assembled. Tell the relaunch
			// to stand down — Shutdown then Commit, the same exit ramp a
			// parked node takes — and leave its session untouched.
			st.mu.Unlock()
			st.ingestMu.Unlock()
			c.mu.Lock()
			e := c.epoch
			c.mu.Unlock()
			conn.writeFrame(c.opt, wire.Shutdown{Epoch: e})
			conn.writeFrame(c.opt, wire.Commit{})
			c.shutdownMu.Unlock()
			c.logf("coordinator: node %d rejoined after commit; refused", id)
			return
		}
		st.attached = true
		st.owner = conn
		if rejoin {
			// A second Hello for a known id is a relaunched process: it
			// has no session to resume, so its old incarnation's stream
			// state is void.
			st.resetLocked(seq)
			if c.store != nil {
				c.store.Discard(int32(st.id))
			}
		} else {
			st.lastSeq = seq
		}
		st.mu.Unlock()
		st.ingestMu.Unlock()
		c.attach(id, conn)
		// A relaunched (or late-joining) node missed any Detection
		// broadcast: replay the latest so a planted rogue knows it now
		// runs under active debugging.
		if last := c.lastReExecDetection(); last != nil {
			conn.writeFrame(c.opt, wire.Detection{
				Epoch: last.Epoch, Node: int32(last.Node),
				AtNs: last.AtNs, Cut: last.Cut,
			})
		}
		if rejoin {
			// Until Commit, a rejoin always restarts — even one landing
			// between the Shutdown broadcast and the last bye: the
			// "completed" execution is voided and re-run, because the
			// alternative (refusing the relaunch) would strand the byes
			// the dead incarnation never sent.
			c.restartClusterLocked(id)
		} else {
			c.mu.Lock()
			e := c.epoch
			c.mu.Unlock()
			if e > 0 {
				// First Hello from a node whose initial dial was delayed
				// past a restart decision (a partition window can hold
				// the dial campaign while a crash-rejoin bumps the
				// epoch): it never heard the Restart broadcast — it was
				// not connected — so catch it up directly. It has
				// executed nothing, so the in-flight re-execution stays
				// valid; this node just starts it late. Without this the
				// node runs epoch 0 forever against peers at epoch e and
				// the run never completes.
				c.logf("coordinator: node %d joined late; catching up to epoch %d", id, e)
				conn.writeFrame(c.opt, wire.Restart{Epoch: e})
			}
		}
		c.shutdownMu.Unlock()
	case wire.Resume:
		if int(h.N) != c.n || h.From < 0 || int(h.From) >= c.n {
			c.logf("coordinator: bad resume %#v", first)
			return
		}
		id := int(h.From)
		st = c.session(id)
		st.ingestMu.Lock()
		st.mu.Lock()
		st.attached = true
		st.owner = conn
		cum := st.lastSeq
		st.mu.Unlock()
		st.ingestMu.Unlock()
		c.attach(id, conn)
		// The replayed decisions (shutdown, commit) must reflect one
		// consistent decision state and land on the wire unraced by new
		// broadcasts, so the whole handshake reply happens under
		// shutdownMu.
		c.shutdownMu.Lock()
		c.mu.Lock()
		epoch := c.epoch
		c.mu.Unlock()
		err := conn.writeFrame(c.opt, wire.ResumeAck{Cum: cum, Epoch: epoch})
		if err == nil {
			// A node that was disconnected across a detection-triggered
			// re-execution missed the Detection broadcast; replay the
			// latest one so the node (a planted rogue in particular) knows
			// it now runs under active debugging. The ReExec's epoch
			// transition is already covered by the ResumeAck epoch.
			if last := c.lastReExecDetection(); last != nil {
				err = conn.writeFrame(c.opt, wire.Detection{
					Epoch: last.Epoch, Node: int32(last.Node),
					AtNs: last.AtNs, Cut: last.Cut,
				})
			}
		}
		if err == nil && c.shutdown {
			// The node missed the broadcast while disconnected; replay it
			// so it can bye.
			err = conn.writeFrame(c.opt, wire.Shutdown{Epoch: epoch})
		}
		if err == nil && c.committed {
			err = conn.writeFrame(c.opt, wire.Commit{})
		}
		c.shutdownMu.Unlock()
		if err != nil {
			c.logf("coordinator: node %d: resume: %v", id, err)
			return
		}
	default:
		c.logf("coordinator: first frame is %T, want Hello or Resume", first)
		return
	}

	for {
		// Generous read deadline: nodes stream continuously while alive,
		// and a wedged node should fail the run loudly, not hang it.
		rawConn.SetReadDeadline(time.Now().Add(30 * time.Second))
		body, err := wire.ReadRawBody(br)
		if err != nil {
			select {
			case <-c.closed:
			default:
				if !errors.Is(err, net.ErrClosed) {
					c.logf("coordinator: node %d stream: %v", st.id, err)
				}
			}
			return
		}
		c.rootFrames.Add(1)
		c.rootBytes.Add(int64(len(body) + 4))
		seq, m, err := wire.DecodeBody(body)
		if err != nil {
			c.logf("coordinator: node %d stream: %v", st.id, err)
			return
		}
		st.ingestMu.Lock()
		st.mu.Lock()
		if st.owner != conn {
			// Superseded mid-read: a newer connection (resume or
			// relaunch) owns the session. Frames still buffered on this
			// one must not be ingested — they would interleave with (or,
			// after a relaunch's sequence reset, masquerade as) the
			// successor's.
			st.mu.Unlock()
			st.ingestMu.Unlock()
			return
		}
		switch {
		case seq <= st.lastSeq:
			// Resume replay overlap (the client retransmits everything
			// past the last ResumeAck, which may include frames that did
			// arrive): drop the duplicate.
			st.mu.Unlock()
			st.ingestMu.Unlock()
			continue
		case seq == st.lastSeq+1:
			st.lastSeq = seq
			st.mu.Unlock()
		default:
			// A gap can only mean a frame was lost inside a live TCP
			// stream — corruption, not congestion. Drop the connection;
			// the client's session resume replays from the last
			// contiguous frame.
			st.mu.Unlock()
			st.ingestMu.Unlock()
			c.logf("coordinator: node %d: sequence gap (%d after %d); dropping connection for resume",
				st.id, seq, st.lastSeq)
			return
		}
		act, epoch := c.ingestStored(st, m, body)
		st.ingestMu.Unlock()
		// The broadcasts run outside every session lock (they take
		// shutdownMu, which handshakes take before ingestMu — holding
		// ingestMu here would invert that order) and revalidate against
		// the current epoch, so a decision a concurrent rejoin just
		// voided dies in revalidation instead of racing onto the wire.
		switch act {
		case actAllDone:
			c.broadcastShutdown(epoch)
		case actAllByes:
			c.commitRun(epoch)
		case actDetected:
			c.fireDetection(st.id)
		}
	}
}

// lastReExecDetection returns the most recent detection that drove a
// re-execution, or nil. Handshake paths replay it to connections that
// were not attached when the Detection broadcast went out.
func (c *Coordinator) lastReExecDetection() *DetectionRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.detections) - 1; i >= 0; i-- {
		if c.detections[i].ReExec {
			return &c.detections[i]
		}
	}
	return nil
}

// restartClusterLocked runs the §8 controlled re-execution decision
// after node id relaunched: bump the epoch, void the completion
// progress of the abandoned execution — including a pending Shutdown,
// whose byes can now never complete — and order every node to restart.
// The caller holds shutdownMu, which serializes this decision against
// Shutdown/Commit broadcasts and resume replays.
func (c *Coordinator) restartClusterLocked(id int) {
	c.shutdown = false
	c.mu.Lock()
	c.epoch++
	c.restarts++
	e := c.epoch
	c.doneCount, c.byeCount = 0, 0
	for i := range c.doneSeen {
		c.doneSeen[i] = false
		c.byeSeen[i] = false
	}
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	if c.ld != nil {
		// The abandoned epoch's candidates must not seed a detection in
		// the re-execution.
		c.ld.Reset(e)
	}
	c.logf("coordinator: node %d rejoined; restarting cluster at epoch %d", id, e)
	c.Annotate(obs.EvEpochRestart, int64(id), int64(e))
	c.broadcast(conns, wire.Restart{Epoch: e}, "restart")
}

// snapshotConnsLocked copies the connection table for a broadcast —
// direct node streams plus relay uplinks (keyed -(index+1) so the two
// tables cannot collide): a decision broadcast reaches relayed nodes
// through their relay's fan-out. Caller holds c.mu.
func (c *Coordinator) snapshotConnsLocked() map[int]*coordConn {
	conns := make(map[int]*coordConn, len(c.conns)+len(c.relayConns))
	for id, conn := range c.conns {
		conns[id] = conn
	}
	for idx, conn := range c.relayConns {
		conns[-(idx + 1)] = conn
	}
	return conns
}

// broadcast writes m to every connection, closing any whose write
// fails: the peer's session resume then replays the coordinator's
// current decision state (epoch, shutdown, commit), so a failed
// broadcast write becomes a reconnect-and-catch-up instead of a
// silently missed decision.
func (c *Coordinator) broadcast(conns map[int]*coordConn, m wire.Msg, what string) {
	for id, conn := range conns {
		if err := conn.writeFrame(c.opt, m); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.logf("coordinator: node %d: %s write: %v", id, what, err)
			}
			conn.Close()
		}
	}
}

// ingestAction is what a frame's ingest obligates the caller to do
// once every session lock is released.
type ingestAction int

const (
	actNone     ingestAction = iota
	actAllDone               // every Done for the returned epoch is in: broadcast Shutdown
	actAllByes               // every bye for the returned epoch is in: commit the run
	actDetected              // the live checker triggered: run the prefix confirmation
)

// ingest is ingestStored without a raw body in hand (IngestBench, and
// any path that decoded first): spill-mode re-encodes the frame.
func (c *Coordinator) ingest(st *nodeSession, m wire.Msg) (ingestAction, uint32) {
	return c.ingestStored(st, m, nil)
}

// spillCapture diverts one capture frame into the on-disk trace store
// when spilling is on, reporting whether it did. raw is the frame's
// wire body as read off the stream (nil when the caller only has the
// decoded message, in which case the body is re-encoded — the bytes
// are identical either way, which is what keeps disk-backed assembly
// byte-equal to in-RAM staging).
func (c *Coordinator) spillCapture(st *nodeSession, m wire.Msg, raw []byte) bool {
	if c.store == nil {
		return false
	}
	if raw == nil {
		raw = wire.AppendBody(nil, 0, m)
	}
	st.mu.Lock()
	e := st.epoch
	st.mu.Unlock()
	if err := c.store.Append(int32(st.id), e, raw); err != nil {
		// Loud but non-fatal: the frame falls back to RAM staging, so a
		// full disk degrades to the old memory profile instead of
		// corrupting the capture.
		c.logf("coordinator: node %d: store spill: %v", st.id, err)
		return false
	}
	return true
}

// ingestStored folds one frame from a node's stream into the
// coordinator state, reporting the completion action (if any) it
// triggered and the epoch that action belongs to. Trace traffic — the
// volume — lands in the session's own staging under the session lock
// (or spills to the trace store when one is configured; raw carries
// the frame's wire body so the spill needs no re-encode); only the
// rare coordination frames (Done, Shutdown, EpochMark) touch c.mu.
// Done and bye count toward completion only when the stream is at the
// cluster epoch: a Done raced by a Restart belongs to a voided
// execution.
func (c *Coordinator) ingestStored(st *nodeSession, m wire.Msg, raw []byte) (ingestAction, uint32) {
	switch v := m.(type) {
	case wire.Trace, wire.TraceOpBatch, wire.JournalEvent, wire.JournalBatch:
		if c.spillCapture(st, m, raw) {
			break
		}
		st.mu.Lock()
		stageFrame(c.n, m, &st.ops, &st.events)
		st.mu.Unlock()
	case wire.MetricsSnapshot:
		st.mu.Lock()
		st.lastSnap = v.Points
		st.lastSnapAt = time.Now()
		st.snapEpoch = v.Epoch
		st.mu.Unlock()
		// Cumulative set semantics make re-applied resume replays
		// idempotent; the node label scopes series from nodes that
		// don't already label themselves.
		c.live.ApplySnapshot(toObsPoints(v.Points), obs.L("node", strconv.Itoa(st.id)))
	case wire.Candidate:
		if c.ingestCandidate(st, v) {
			return actDetected, 0
		}
	case wire.CandidateBatch:
		det := false
		for _, cand := range v.Cands {
			det = c.ingestCandidate(st, cand) || det
		}
		if det {
			return actDetected, 0
		}
	case wire.EpochMark:
		st.mu.Lock()
		if v.Epoch > st.epoch {
			st.discardEpochLocked(v.Epoch)
			if c.store != nil {
				// The store-side twin: the origin's spilled records belong
				// to the voided epoch; drop their index entries.
				c.store.Discard(int32(st.id))
			}
		}
		st.mu.Unlock()
		c.mu.Lock()
		adopted := v.Epoch > c.epoch
		if adopted {
			// A mark above our epoch means we are the one missing state —
			// a restarted coordinator rebuilding from session replays.
			// Adopt it and recount completion from the replayed streams.
			c.epoch = v.Epoch
			c.doneCount, c.byeCount = 0, 0
			for i := range c.doneSeen {
				c.doneSeen[i] = false
				c.byeSeen[i] = false
			}
		}
		c.mu.Unlock()
		if adopted && c.ld != nil {
			// The checker's epoch follows the cluster epoch, including
			// one adopted from a replayed stream.
			c.ld.Reset(v.Epoch)
		}
	case wire.Done:
		st.mu.Lock()
		se := st.epoch
		st.mu.Unlock()
		c.mu.Lock()
		if se != c.epoch {
			c.mu.Unlock()
			return actNone, 0
		}
		// A node reports Done twice at its final epoch — once when its
		// application finishes, once with the closing tallies in its bye
		// phase — so later reports overwrite, only the first counts.
		c.stats[st.id] = Stats{
			Requests:    int(v.Requests),
			Handoffs:    int(v.Handoffs),
			CtlMessages: int(v.CtlMessages),
		}
		for _, ns := range v.Responses {
			c.stats[st.id].Responses = append(c.stats[st.id].Responses, time.Duration(ns))
		}
		first := !c.doneSeen[st.id]
		if first {
			c.doneSeen[st.id] = true
			c.doneCount++
		}
		all := c.doneCount == c.n
		e := c.epoch
		c.mu.Unlock()
		if first && all {
			return actAllDone, e
		}
	case wire.Shutdown:
		st.mu.Lock()
		se := st.epoch
		st.mu.Unlock()
		c.mu.Lock()
		all := false
		e := c.epoch
		if se == c.epoch && v.Epoch == c.epoch && !c.byeSeen[st.id] {
			c.byeSeen[st.id] = true
			c.byeCount++
			all = c.byeCount == c.n
		}
		c.mu.Unlock()
		if all {
			return actAllByes, e
		}
	default:
		c.logf("coordinator: node %d: unexpected %T", st.id, m)
	}
	return actNone, 0
}

// refreshLag recomputes the per-node snapshot-staleness gauges —
// predctl_coord_ingest_lag_seconds{node=...} — at scrape time, the
// introspection server's Refresh hook. A node that has never
// snapshotted has no lag series (absence is the signal).
func (c *Coordinator) refreshLag() {
	now := time.Now()
	for _, st := range c.sessionsSorted() {
		st.mu.Lock()
		at := st.lastSnapAt
		st.mu.Unlock()
		if at.IsZero() {
			continue
		}
		c.live.FloatGauge("predctl_coord_ingest_lag_seconds",
			obs.L("node", strconv.Itoa(st.id))).Set(now.Sub(at).Seconds())
	}
	if c.store != nil {
		segs, bytes := c.store.Stats()
		c.live.Gauge("predctl_store_segments_total").Set(int64(segs))
		c.live.Gauge("predctl_store_segment_bytes").Set(bytes)
	}
}

// sessionsSorted snapshots the session table in node-id order.
func (c *Coordinator) sessionsSorted() []*nodeSession {
	c.mu.Lock()
	sessions := make([]*nodeSession, 0, len(c.sessions))
	for _, st := range c.sessions {
		sessions = append(sessions, st)
	}
	c.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	return sessions
}

// CoordStatus is the coordinator's /statusz document: the cluster's
// completion state plus one row per attached node — what `pctl top`
// renders.
type CoordStatus struct {
	N         int    `json:"n"`
	Epoch     uint32 `json:"epoch"`
	Restarts  int    `json:"restarts"`
	Done      int    `json:"done"`
	Byes      int    `json:"byes"`
	Shutdown  bool   `json:"shutdown"`
	Committed bool   `json:"committed"`
	UptimeMs  int64  `json:"uptime_ms"`
	// Live reports whether online detection is enabled; Detections is
	// the confirmed-detection count across all epochs, LiveFired whether
	// the current epoch has a confirmed detection, and ReExecs the
	// detection-triggered re-executions ordered so far.
	Live       bool              `json:"live"`
	Detections int               `json:"detections"`
	LiveFired  bool              `json:"live_fired"`
	ReExecs    int               `json:"reexecs"`
	Nodes      []CoordNodeStatus `json:"nodes"`
	// Relays holds one row per relay uplink when the cluster ingests
	// through an aggregation tree (empty for a flat topology).
	Relays []CoordRelayStatus `json:"relays,omitempty"`
	// StoreSegments / StoreBytes report the trace store's footprint
	// when capture spills to disk (both zero without a store).
	StoreSegments int   `json:"store_segments,omitempty"`
	StoreBytes    int64 `json:"store_bytes,omitempty"`
}

// CoordNodeStatus is one node's row in CoordStatus.
type CoordNodeStatus struct {
	Node       int    `json:"node"`
	Epoch      uint32 `json:"epoch"` // the stream's epoch (last EpochMark)
	LastSeq    uint64 `json:"last_seq"`
	Candidates int    `json:"candidates"`
	// Detections counts confirmed live detections whose streaming
	// witness this node's candidate completed.
	Detections int  `json:"detections"`
	Done       bool `json:"done"`
	Bye        bool `json:"bye"`
	// LagMs is the age of the node's last metrics snapshot; -1 until
	// one arrives.
	LagMs float64 `json:"lag_ms"`
	// Metrics folds the node's last snapshot into per-name totals
	// (counters and gauges, labels summed out) so pollers need not
	// parse series keys.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status assembles the live status document. Safe to call while the
// run streams; it takes only brief per-session locks.
func (c *Coordinator) Status() CoordStatus {
	now := time.Now()
	c.mu.Lock()
	s := CoordStatus{
		N: c.n, Epoch: c.epoch, Restarts: c.restarts,
		Done: c.doneCount, Byes: c.byeCount,
		UptimeMs:   now.Sub(c.start).Milliseconds(),
		Live:       c.ld != nil,
		Detections: len(c.detections),
		ReExecs:    c.reexecs,
	}
	doneSeen := append([]bool(nil), c.doneSeen...)
	byeSeen := append([]bool(nil), c.byeSeen...)
	detByNode := append([]int(nil), c.detByNode...)
	c.mu.Unlock()
	if c.ld != nil {
		s.LiveFired = c.ld.Fired()
	}
	c.shutdownMu.Lock()
	s.Shutdown, s.Committed = c.shutdown, c.committed
	c.shutdownMu.Unlock()
	for _, st := range c.sessionsSorted() {
		st.mu.Lock()
		row := CoordNodeStatus{
			Node: st.id, Epoch: st.epoch, LastSeq: st.lastSeq,
			Candidates: st.cands, LagMs: -1,
			Metrics: obs.SumByName(toObsPoints(st.lastSnap)),
		}
		if !st.lastSnapAt.IsZero() {
			// Read under the lock, not against now: a snapshot ingested
			// since Status began would read negative — "none yet".
			row.LagMs = float64(time.Since(st.lastSnapAt).Microseconds()) / 1e3
		}
		st.mu.Unlock()
		if st.id >= 0 && st.id < len(doneSeen) {
			row.Done, row.Bye = doneSeen[st.id], byeSeen[st.id]
		}
		if st.id >= 0 && st.id < len(detByNode) {
			row.Detections = detByNode[st.id]
		}
		s.Nodes = append(s.Nodes, row)
	}
	s.Relays = c.relayStatusRows()
	if c.store != nil {
		s.StoreSegments, s.StoreBytes = c.store.Stats()
	}
	return s
}

// Annotate records a cluster-level instant event — a chaos injection,
// an epoch bump — on the merged journal's timeline. Annotations use
// Proc -1 (no logical process; the trace exporter renders them on a
// cluster pseudo-row) and survive epoch discards: they describe the
// run's real history, which controlled re-execution does not rewrite.
func (c *Coordinator) Annotate(name string, a, b int64) {
	c.AnnotateAt(time.Since(c.start).Nanoseconds(), name, a, b)
}

// AnnotateAt is Annotate with an explicit timestamp (nanoseconds
// relative to the run start) — for events whose schedule is known a
// priori, like partition windows.
func (c *Coordinator) AnnotateAt(atNs int64, name string, a, b int64) {
	e := obs.Event{
		At: atNs, Proc: -1,
		Kind: obs.KindControl, Name: name, A: a, B: b,
	}
	c.mu.Lock()
	c.annots = append(c.annots, e)
	c.mu.Unlock()
}

// ingestCandidate stages one candidate report and, when live detection
// is on, offers it to the incremental checker at the stream's epoch (so
// an abandoned execution's stragglers are discarded, not believed). It
// reports whether the caller owes a prefix-confirmation pass. The
// candidate's journal event is emitted node-side (with a real
// timestamp) rather than synthesized here.
func (c *Coordinator) ingestCandidate(st *nodeSession, v wire.Candidate) bool {
	c.cands.Inc()
	st.mu.Lock()
	st.cands++
	e := st.epoch
	st.mu.Unlock()
	if c.ld == nil {
		return false
	}
	return c.ld.Offer(e, livedetect.Interval{
		Proc: int(v.Proc), LoIdx: v.LoIdx, HiIdx: v.HiIdx, Lo: v.Lo, Hi: v.Hi,
	})
}

// fireDetection runs the confirming stage after the streaming checker
// triggered: assemble the staged capture's causally closed prefix and
// decide possibly(¬B) on it for real. Like the other terminal
// decisions it runs under shutdownMu and revalidates — a trigger a
// concurrent restart just voided dies here instead of firing into the
// wrong epoch. witness is the node whose frame carried the triggering
// candidate (display attribution only; the record prefers the
// checker's own triggering interval).
func (c *Coordinator) fireDetection(witness int) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.ld == nil || c.committed {
		return
	}
	c.mu.Lock()
	e := c.epoch
	c.mu.Unlock()
	if !c.ld.Pending(e) {
		return // superseded by a restart, or already confirmed
	}
	c.confirmLocked(e, witness, false)
}

// confirmLocked decides possibly(¬B) on epoch e's captured prefix and,
// when a consistent cut is found, records the detection and fires the
// OnDetect response. A not-found is not a verdict — the cut may lie
// beyond the current prefix, so the trigger stays pending and later
// candidates retry on the grown capture. Caller holds shutdownMu.
func (c *Coordinator) confirmLocked(e uint32, witness int, final bool) {
	got, err := c.collect(e, true, false)
	if err != nil {
		c.logf("coordinator: live confirm: %v", err)
		return
	}
	d, consumed, err := livedetect.AssemblePrefix(c.n, got.byProc)
	if err != nil {
		c.logf("coordinator: live confirm: %v", err)
		return
	}
	if final {
		// Every bye is in: unless the sweep stopped short (a corrupt
		// capture, which Wait's strict assembly will report), d is the
		// run's deposet and Wait need not build it again.
		c.assemblies.Inc()
		whole := true
		for p, ops := range got.byProc {
			whole = whole && consumed[p] == len(ops)
		}
		if whole {
			c.mu.Lock()
			c.sealed = d
			c.mu.Unlock()
		}
	}
	cut, found := detect.PossiblyGeneral(d, c.violation)
	if !found {
		return
	}
	if !c.ld.Confirm(e) {
		return // a concurrent confirmer won, or the epoch moved on
	}
	rec := DetectionRecord{
		Epoch: e, Node: witness, AtNs: time.Since(c.start).Nanoseconds(),
		Cut: cutToInt64(cut), Final: final,
	}
	if iv, ok := c.ld.Trigger(); ok {
		rec.Node, rec.WitnessHiIdx = iv.Proc, iv.HiIdx
	}
	// The active-debugging payload: §4's off-line control algorithm on
	// the confirmed prefix yields the synchronization strategy the
	// controlled re-execution would drive the run through. Failure to
	// find one (¬B may be uncontrollable) downgrades the response to a
	// plain uncontrolled re-execution, it does not suppress the
	// detection.
	if rel, _, err := offline.ControlGeneral(d, c.liveCfg.Predicate); err == nil {
		rec.StrategyEdges = len(rel)
	} else {
		c.logf("coordinator: live detection: no control strategy: %v", err)
	}
	c.mu.Lock()
	canReExec := !final && c.liveCfg.OnDetect == OnDetectReExec && c.reexecs < c.liveCfg.MaxReExecs
	rec.ReExec = canReExec
	c.detections = append(c.detections, rec)
	if rec.Node >= 0 && rec.Node < len(c.detByNode) {
		c.detByNode[rec.Node]++
	}
	c.mu.Unlock()
	c.detMeter.Inc()
	// Stamped with the confirmation time, not now: the strategy above
	// can take far longer than the detection did.
	c.AnnotateAt(rec.AtNs, obs.EvDetect, int64(rec.Node), int64(e))
	c.logf("coordinator: live detection: possibly(¬B) confirmed at epoch %d (witness node %d, cut %v)",
		e, rec.Node, cut)
	if canReExec {
		c.reexecClusterLocked(rec)
	}
}

// reexecClusterLocked is restartClusterLocked's detection-triggered
// twin — the paper's active-debugging response, driven automatically:
// void the epoch the violation was observed in, announce the detection
// (Detection frame, so every node knows it now runs under control) and
// order the §8 controlled re-execution (ReExec frame, which nodes
// treat as a Restart). Caller holds shutdownMu.
func (c *Coordinator) reexecClusterLocked(rec DetectionRecord) {
	c.shutdown = false
	c.mu.Lock()
	c.epoch++
	c.reexecs++
	ne := c.epoch
	c.doneCount, c.byeCount = 0, 0
	for i := range c.doneSeen {
		c.doneSeen[i] = false
		c.byeSeen[i] = false
	}
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	c.ld.Reset(ne)
	c.logf("coordinator: detection at epoch %d: controlled re-execution at epoch %d (%d strategy edges)",
		rec.Epoch, ne, rec.StrategyEdges)
	c.Annotate(obs.EvEpochReExec, int64(rec.Node), int64(ne))
	c.broadcast(conns, wire.Detection{
		Epoch: rec.Epoch, Node: int32(rec.Node), AtNs: rec.AtNs, Cut: rec.Cut,
	}, "detection")
	c.broadcast(conns, wire.ReExec{Epoch: ne, Edges: uint32(rec.StrategyEdges)}, "reexec")
}

// finalLiveLocked is the commit-time closing pass: force the trigger
// and confirm once more on the complete final-epoch capture, so the
// live verdict coincides exactly with the offline decision on the
// assembled trace — the streaming stage's conservatism (node-level
// clocks over-approximate causality) cannot cost a detection, only
// immediacy. The run is complete, so the pass never re-executes.
// Caller holds shutdownMu.
func (c *Coordinator) finalLiveLocked(e uint32) {
	if c.ld == nil {
		return
	}
	if c.ld.ForceTrigger(e) {
		c.confirmLocked(e, -1, true)
	}
}

func cutToInt64(cut deposet.Cut) []int64 {
	out := make([]int64, len(cut))
	for i, v := range cut {
		out[i] = int64(v)
	}
	return out
}

// IngestBench replays pre-encoded frame bodies through the
// coordinator's decode-and-stage path — exactly what handleNode does
// per frame, minus the socket — so the cluster bench can measure
// ingest allocations per trace op without standing up a listener. It
// returns the number of trace ops staged.
func IngestBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	c := &Coordinator{
		n: n, journal: journal, logf: func(string, ...any) {},
		sessions: map[int]*nodeSession{},
		stats:    make([]Stats, n),
		doneSeen: make([]bool, n), byeSeen: make([]bool, n),
	}
	st := &nodeSession{id: 0}
	for _, body := range bodies {
		_, m, err := wire.DecodeBody(body)
		if err != nil {
			return 0, err
		}
		c.ingest(st, m)
	}
	for _, e := range st.events {
		journal.Append(e)
	}
	return st.ops.staged, nil
}

// IngestRelayBench replays pre-encoded RelayBatch frame bodies through
// the root's relayed-ingest path — unpack, per-origin inner-sequence
// dedup, decode-and-stage — the socket-free twin of IngestBench for the
// tree topology. It returns the number of trace ops staged across all
// origins.
func IngestRelayBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	c := &Coordinator{
		n: n, journal: journal, logf: func(string, ...any) {},
		sessions: map[int]*nodeSession{},
		relays:   map[int]*relaySession{},
		stats:    make([]Stats, n),
		doneSeen: make([]bool, n), byeSeen: make([]bool, n),
	}
	rs := &relaySession{origins: map[int]bool{}}
	for _, body := range bodies {
		_, m, err := wire.DecodeBody(body)
		if err != nil {
			return 0, err
		}
		batch, ok := m.(wire.RelayBatch)
		if !ok {
			return 0, fmt.Errorf("node: relay ingest bench: %T, want RelayBatch", m)
		}
		for _, f := range batch.Frames {
			c.ingestRelayed(rs, f)
		}
	}
	ops := 0
	for _, st := range c.sessions {
		ops += st.ops.staged
		for _, e := range st.events {
			journal.Append(e)
		}
	}
	return ops, nil
}

// broadcastShutdown tells every node the execution at epoch e is
// complete — once the decision survives revalidation. A crashed-node
// rejoin can land between the last Done being counted and this call
// taking shutdownMu; the restart voided epoch e, and the stale
// decision must die here rather than race its Restart onto the wire
// (the node side latches whichever arrives first, so a raced Shutdown
// would strand part of the cluster in its bye phase while the rest
// re-executes — the 2/4-done hang).
func (c *Coordinator) broadcastShutdown(e uint32) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.shutdown || c.committed {
		return
	}
	c.mu.Lock()
	valid := c.epoch == e && c.doneCount == c.n
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	if !valid {
		return
	}
	c.shutdown = true
	c.broadcast(conns, wire.Shutdown{Epoch: e}, "shutdown")
}

// commitRun seals the run at epoch e once every bye is in and the
// decision survives revalidation (a rejoin after the last bye restarts
// the cluster instead — until this commit, a completed execution is
// still voidable). After it, no restart is possible, parked nodes may
// exit, and Wait assembles the capture.
func (c *Coordinator) commitRun(e uint32) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.committed || !c.shutdown {
		return
	}
	c.mu.Lock()
	valid := c.epoch == e && c.byeCount == c.n
	conns := c.snapshotConnsLocked()
	c.mu.Unlock()
	if !valid {
		return
	}
	c.committed = true
	c.broadcast(conns, wire.Commit{}, "commit")
	// Closing live pass after the Commit goes out but before allByes
	// releases Wait: every bye is in, so the staged capture is the
	// complete final-epoch trace, and one last confirmation makes the
	// live verdict coincide with offline detection on the assembled
	// run. Running it after the broadcast overlaps the confirm with the
	// nodes' teardown; the record can't be observed partially because
	// Wait blocks on allByes below (and no restart can void it — the
	// seal is already set, and shutdownMu is held throughout).
	c.finalLiveLocked(e)
	if c.store != nil {
		// Seal after the closing live pass (which still replays from the
		// store) but before Wait is released: the directory is a complete,
		// verifiable capture bundle the moment the run result exists.
		if err := c.store.Seal(c.n, e); err != nil {
			c.logf("coordinator: store seal: %v", err)
		}
	}
	c.byeOnce.Do(func() { close(c.allByes) })
}
