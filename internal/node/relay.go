package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Relay is the middle tier of a hierarchical ingest tree: it terminates
// the resumable capture streams of a subset of nodes exactly the way
// the root coordinator would — sequence-checked ingest, session resume
// with per-child cumulative acks, handshake replay of cached terminal
// decisions — but instead of staging capture it re-batches the raw
// frame bodies into sequence-renumbered wire.RelayBatch frames and
// forwards them to the root over one session. The root therefore
// handles O(relays) connections instead of O(n), while resume and
// epoch semantics compose across both hops:
//
//   - child → relay: the child's coordClient session machinery is
//     untouched; the relay answers Resume with the child's cumulative
//     inner sequence and replays cached Restart/Detection/Shutdown/
//     Commit decisions, so a relay looks exactly like a coordinator.
//   - relay → root: the relay's uplink IS a coordClient (the same
//     session log, redial/backoff and retransmit code), with a
//     RelayHello handshake and an intercept that fans every decision
//     frame out to the children.
//
// A relay crash heals like a coordinator-stream sever: children redial
// with backoff and offer Resume; the relaunched relay has no per-child
// state, acks Cum=0, and the children replay their entire session logs
// — the root's per-origin inner-sequence dedup absorbs the overlap.
//
// The relay also performs the staging merges ingest does today, before
// bytes ever reach the root: metrics-snapshot folding (only the newest
// pending snapshot per origin survives), epoch discards (pending
// capture frames of an origin are dropped when its EpochMark voids
// them) and batch coalescing under a byte cap.
type Relay struct {
	cfg  RelayConfig
	opt  Timeouts
	ln   net.Listener
	cc   *coordClient
	logf func(string, ...any)

	// Cached upstream decisions, replayed to (re)connecting children —
	// the relay-local mirror of the root's handshake replay state.
	mu        sync.Mutex
	epoch     uint32
	committed bool
	shutdown  bool
	detection *wire.Detection
	children  map[int]*relayChild
	contacted bool // a RelayHello reached the root at least once
	closing   bool
	// conns is every accepted downstream connection, owner or not —
	// Close must reach conns mid-handshake and superseded readers too,
	// or a child that registered after Close's snapshot keeps its
	// stream alive and wg.Wait never returns.
	conns map[net.Conn]struct{}

	// flushMu makes dequeue → uplink enqueue one step. flush is entered
	// by the flusher goroutine and by any handler staging a Hello; if
	// two dequeued under pendMu and sent after releasing it, the later
	// batch could reach the uplink first and the root's inner-sequence
	// dedup would drop the earlier one's frames. Taken before pendMu.
	flushMu   sync.Mutex
	pendMu    sync.Mutex
	pending   []relayPending
	pendBytes int
	// urgent is the control-kind coalescing timer; urgentArmed (under
	// pendMu) keeps one window open at a time.
	urgent      *time.Timer
	urgentArmed bool

	kick     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// RelayConfig configures one relay.
type RelayConfig struct {
	// Index identifies this relay (0..Relays-1); Relays is the tree's
	// fan-in width, N the cluster size.
	Index  int
	Relays int
	N      int
	// Upstream is the root coordinator's address.
	Upstream string
	// Addr/Listener is the downstream side the children dial. When
	// Listener is non-nil it is used directly (Addr ignored).
	Addr     string
	Listener net.Listener
	// Batching paces the upstream flush (withDefaults applied).
	Batching Batching
	Timeouts Timeouts
	// Reg receives the relay's wire meters (uplink stream).
	Reg          *obs.Registry
	MetricLabels []obs.Label
	Logf         func(string, ...any)
}

// relayChild is the relay's per-node-id stream state: the downstream
// mirror of the root's nodeSession, minus the staging.
type relayChild struct {
	id      int
	mu      sync.Mutex
	owner   *coordConn
	lastSeq uint64
}

// relayPending is one frame queued for the next upstream flush. A nil
// body is a tombstone — the slot was voided by snapshot folding or an
// epoch discard and is skipped at flush.
type relayPending struct {
	origin int32
	kind   byte
	body   []byte
}

// maxRelayBatchBytes caps one RelayBatch's payload, comfortably under
// wire.MaxFrame with envelope overhead to spare.
const maxRelayBatchBytes = 512 << 10

// relayControlFlush is the urgent-coalescing window for completion-
// latency kinds (Hello, Done, bye, EpochMark): long enough that a wave
// of them from many children — every child sends Done within the same
// workload tail — folds into a few upstream frames instead of one
// frame each, short enough to be invisible next to the dial timeout
// and the capture interval it undercuts.
const relayControlFlush = time.Millisecond

// relayMaxPendFrames is the early-kick threshold on queued child
// frames. A relay item is a whole child frame (itself a batch of up to
// Batching.MaxItems capture items), so the node-level item cap would
// kick mid-interval on every busy subtree and shred the upstream
// coalescing; pendBytes against maxRelayBatchBytes is the real memory
// guard, this only backstops pathological tiny-frame floods.
const relayMaxPendFrames = 1024

// StartRelay establishes the upstream session (blocking until the root
// answers or the coordinator deadline passes), then begins accepting
// children. The synchronous uplink handshake is what guarantees every
// child handshake can be answered with the cluster's current epoch.
func StartRelay(cfg RelayConfig) (*Relay, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.N < 2 || cfg.Relays < 1 || cfg.Index < 0 || cfg.Index >= cfg.Relays {
		return nil, fmt.Errorf("node: relay %d/%d for n=%d: bad shape", cfg.Index, cfg.Relays, cfg.N)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("node: relay listen %s: %w", cfg.Addr, err)
		}
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Relay{
		cfg:      cfg,
		opt:      cfg.Timeouts.withDefaults(),
		ln:       ln,
		logf:     logf,
		children: map[int]*relayChild{},
		conns:    map[net.Conn]struct{}{},
		urgent:   time.NewTimer(time.Hour),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if !r.urgent.Stop() {
		<-r.urgent.C
	}
	// The uplink flushes at twice the children's cadence: a relay
	// aggregates an entire subtree, so one extra interval of staleness
	// buys roughly double the child frames per upstream RelayBatch.
	batch := cfg.Batching.withDefaults()
	batch.Interval *= 2
	wm := newWireMeters(reg, "uplink", cfg.MetricLabels)
	cc := &coordClient{
		id: -(cfg.Index + 1), n: cfg.N, addr: cfg.Upstream,
		opt: r.opt, batch: batch, wm: wm, logf: logf,
		shutdownEv: make(chan uint32, 1),
		restartCh:  make(chan uint32, 1),
		commitCh:   make(chan struct{}),
		quit:       make(chan struct{}),
		sessDone:   make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	cc.mkResume = r.mkResume
	cc.onMsg = r.onUpstream
	cc.onResumeAck = r.onResumeAck
	r.cc = cc

	// First contact runs the same resume path every later redial runs:
	// RelayHello out, ResumeAck in, retransmit past Cum (nothing, yet).
	conn, br, err := cc.resume()
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("node: relay %d: root %s: %w", cfg.Index, cfg.Upstream, err)
	}
	go cc.session(conn, br)

	r.wg.Add(2)
	go r.acceptLoop()
	go r.flusher()
	return r, nil
}

// Addr returns the relay's downstream listen address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close tears the relay down abruptly: listener, children, uplink. A
// chaos kill uses exactly this — no drain, no goodbye — and the tree
// heals through the two resume hops.
func (r *Relay) Close() {
	r.quitOnce.Do(func() { close(r.quit) })
	r.ln.Close()
	r.mu.Lock()
	r.closing = true
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	r.cc.close()
	r.wg.Wait()
}

// mkResume builds the uplink handshake. Resume=false (a fresh relay
// process) tells the root to reset the outer session numbering while
// keeping every per-origin inner session — the difference between a
// relay relaunch (children keep their capture logs) and a node
// relaunch (its log died with it).
func (r *Relay) mkResume(epoch uint32) wire.Msg {
	r.mu.Lock()
	resumed := r.contacted
	r.mu.Unlock()
	return wire.RelayHello{
		Relay: int32(r.cfg.Index), Relays: int32(r.cfg.Relays), N: int32(r.cfg.N),
		Resume: resumed, Epoch: epoch,
	}
}

// onResumeAck observes every uplink handshake: it initializes (or
// refreshes) the cached cluster epoch, and on an epoch the children
// may have missed — a Restart decided while the uplink was down —
// fans the catch-up out downstream.
func (r *Relay) onResumeAck(ack wire.ResumeAck) {
	r.mu.Lock()
	r.contacted = true
	bumped := ack.Epoch > r.epoch
	if bumped {
		r.epoch = ack.Epoch
	}
	conns := r.childConnsLocked()
	r.mu.Unlock()
	r.cc.mu.Lock()
	r.cc.epoch = ack.Epoch
	r.cc.mu.Unlock()
	if bumped {
		r.fanOut(conns, wire.Restart{Epoch: ack.Epoch}, "restart catch-up")
	}
}

// onUpstream intercepts every frame the root sends: cache the decision
// for handshake replay, fan it out to the children. Consumes
// everything — the relay has no node-side epoch loop to feed.
func (r *Relay) onUpstream(m wire.Msg) bool {
	r.mu.Lock()
	switch v := m.(type) {
	case wire.Shutdown:
		r.shutdown = true
	case wire.Commit:
		r.committed = true
	case wire.Restart:
		if v.Epoch > r.epoch {
			r.epoch = v.Epoch
		}
		r.shutdown = false
	case wire.ReExec:
		if v.Epoch > r.epoch {
			r.epoch = v.Epoch
		}
		r.shutdown = false
	case wire.Detection:
		det := v
		r.detection = &det
	case wire.ResumeAck:
		// Handled in resume(); a stray one carries nothing to forward.
		r.mu.Unlock()
		return true
	default:
		r.mu.Unlock()
		r.logf("relay %d: root sent unexpected %T", r.cfg.Index, m)
		return true
	}
	conns := r.childConnsLocked()
	r.mu.Unlock()
	r.fanOut(conns, m, fmt.Sprintf("%T", m))
	return true
}

// childConnsLocked snapshots the downstream connections. Caller holds
// r.mu.
func (r *Relay) childConnsLocked() map[int]*coordConn {
	conns := make(map[int]*coordConn, len(r.children))
	for id, ch := range r.children {
		ch.mu.Lock()
		if ch.owner != nil {
			conns[id] = ch.owner
		}
		ch.mu.Unlock()
	}
	return conns
}

// fanOut writes m to every child connection, closing any whose write
// fails — the child's session resume replays the cached decision state
// at the handshake, the same recovery the root's broadcast relies on.
func (r *Relay) fanOut(conns map[int]*coordConn, m wire.Msg, what string) {
	for id, conn := range conns {
		if err := conn.writeFrame(r.opt, m); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				r.logf("relay %d: node %d: %s write: %v", r.cfg.Index, id, what, err)
			}
			conn.Close()
		}
	}
}

func (r *Relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
			default:
				r.logf("relay %d: accept: %v", r.cfg.Index, err)
			}
			return
		}
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer func() {
				r.mu.Lock()
				delete(r.conns, conn)
				r.mu.Unlock()
			}()
			r.handleChild(conn)
		}()
	}
}

// child returns (creating if needed) the state for node id.
func (r *Relay) child(id int) *relayChild {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.children[id]
	if ch == nil {
		ch = &relayChild{id: id}
		r.children[id] = ch
	}
	return ch
}

// handleChild serves one child connection: the same handshake contract
// handleNode implements at the root — Hello opens (and is forwarded so
// the root owns the restart decision), Resume continues with a
// cumulative ack and cached-decision replay — then sequence-checked
// pass-through of raw frame bodies into the forward queue.
func (r *Relay) handleChild(rawConn net.Conn) {
	conn := &coordConn{Conn: rawConn}
	defer conn.Close()
	br := bufReader(rawConn)
	rawConn.SetReadDeadline(time.Now().Add(r.opt.DialTimeout))
	body, err := wire.ReadRawBody(br)
	if err != nil {
		r.logf("relay %d: handshake: %v", r.cfg.Index, err)
		return
	}
	seq, first, err := wire.DecodeBody(body)
	if err != nil {
		r.logf("relay %d: handshake: %v", r.cfg.Index, err)
		return
	}

	var ch *relayChild
	switch h := first.(type) {
	case wire.Hello:
		if int(h.N) != r.cfg.N || h.From < 0 || int(h.From) >= r.cfg.N {
			r.logf("relay %d: bad hello %#v", r.cfg.Index, first)
			return
		}
		r.mu.Lock()
		committed, epoch, det := r.committed, r.epoch, r.detection
		r.mu.Unlock()
		if committed {
			// The run is sealed; a relaunched child gets the same
			// Shutdown+Commit exit ramp the root would give it, and the
			// Hello is not forwarded — there is no run left to restart.
			conn.writeFrame(r.opt, wire.Shutdown{Epoch: epoch})
			conn.writeFrame(r.opt, wire.Commit{})
			r.logf("relay %d: node %d rejoined after commit; refused", r.cfg.Index, int(h.From))
			return
		}
		ch = r.child(int(h.From))
		ch.mu.Lock()
		ch.owner = conn
		ch.lastSeq = seq
		ch.mu.Unlock()
		// The root decides fresh-vs-rejoin (its per-origin attached bit
		// survives relay crashes); the raw Hello is forwarded with the
		// write-through frames so the decision is prompt.
		r.stage(int32(h.From), wire.KindHello, body)
		// Relay-local catch-up replaces the root's targeted writes: a
		// child at an older epoch ignores nothing it shouldn't (nodes
		// discard Restart at or below their own epoch), and a fresh
		// late joiner starts the in-flight epoch instead of epoch 0.
		if det != nil {
			conn.writeFrame(r.opt, *det)
		}
		if epoch > 0 {
			conn.writeFrame(r.opt, wire.Restart{Epoch: epoch})
		}
	case wire.Resume:
		if int(h.N) != r.cfg.N || h.From < 0 || int(h.From) >= r.cfg.N {
			r.logf("relay %d: bad resume %#v", r.cfg.Index, first)
			return
		}
		ch = r.child(int(h.From))
		ch.mu.Lock()
		ch.owner = conn
		cum := ch.lastSeq
		ch.mu.Unlock()
		r.mu.Lock()
		epoch, det, shut, committed := r.epoch, r.detection, r.shutdown, r.committed
		r.mu.Unlock()
		err := conn.writeFrame(r.opt, wire.ResumeAck{Cum: cum, Epoch: epoch})
		if err == nil && det != nil {
			err = conn.writeFrame(r.opt, *det)
		}
		if err == nil && shut {
			err = conn.writeFrame(r.opt, wire.Shutdown{Epoch: epoch})
		}
		if err == nil && committed {
			err = conn.writeFrame(r.opt, wire.Commit{})
		}
		if err != nil {
			r.logf("relay %d: node %d: resume: %v", r.cfg.Index, int(h.From), err)
			return
		}
	default:
		r.logf("relay %d: first frame is %T, want Hello or Resume", r.cfg.Index, first)
		return
	}

	for {
		rawConn.SetReadDeadline(time.Now().Add(30 * time.Second))
		body, err := wire.ReadRawBody(br)
		if err != nil {
			select {
			case <-r.quit:
			default:
				if !errors.Is(err, net.ErrClosed) {
					r.logf("relay %d: node %d stream: %v", r.cfg.Index, ch.id, err)
				}
			}
			return
		}
		kind, seq, err := wire.PeekBody(body)
		if err != nil {
			r.logf("relay %d: node %d: %v", r.cfg.Index, ch.id, err)
			return
		}
		ch.mu.Lock()
		if ch.owner != conn {
			// Superseded mid-read, exactly as at the root: a newer
			// connection owns the stream, and this one's buffered frames
			// must not interleave with it.
			ch.mu.Unlock()
			return
		}
		switch {
		case seq <= ch.lastSeq:
			ch.mu.Unlock()
			continue
		case seq == ch.lastSeq+1:
			ch.lastSeq = seq
			ch.mu.Unlock()
		default:
			ch.mu.Unlock()
			r.logf("relay %d: node %d: sequence gap (%d after %d); dropping connection for resume",
				r.cfg.Index, ch.id, seq, ch.lastSeq)
			return
		}
		r.stage(int32(ch.id), kind, body)
	}
}

// stage queues one raw child frame body for the upstream flush,
// applying the relay-side merges:
//
//   - MetricsSnapshot folding: cumulative set semantics mean only the
//     newest pending snapshot per origin matters; the older one is
//     tombstoned (never replaced in place — the new frame's higher
//     inner seq must stay behind it in forward order).
//   - Epoch discard: an EpochMark voids the origin's pending capture
//     frames, so they are tombstoned instead of forwarded — the root
//     would discard them on the mark anyway. Control frames survive.
//
// Completion-latency frames (Done, bye, EpochMark) flush within
// relayControlFlush rather than riding the full batch cadence; capture
// volume rides the interval. Hello flushes synchronously — see below.
func (r *Relay) stage(origin int32, kind byte, body []byte) {
	writeThrough := false
	switch kind {
	case wire.KindHello, wire.KindDone, wire.KindShutdown, wire.KindEpochMark:
		writeThrough = true
	}
	r.pendMu.Lock()
	switch kind {
	case wire.KindMetricsSnapshot:
		for i := range r.pending {
			if r.pending[i].origin == origin && r.pending[i].kind == wire.KindMetricsSnapshot && r.pending[i].body != nil {
				r.pendBytes -= len(r.pending[i].body)
				r.pending[i].body = nil
			}
		}
	case wire.KindEpochMark:
		for i := range r.pending {
			if r.pending[i].origin != origin || r.pending[i].body == nil {
				continue
			}
			switch r.pending[i].kind {
			case wire.KindTrace, wire.KindTraceOpBatch, wire.KindJournalEvent,
				wire.KindJournalBatch, wire.KindCandidate, wire.KindCandidateBatch,
				wire.KindMetricsSnapshot:
				r.pendBytes -= len(r.pending[i].body)
				r.pending[i].body = nil
			}
		}
	}
	r.pending = append(r.pending, relayPending{origin: origin, kind: kind, body: body})
	r.pendBytes += len(body)
	full := r.pendBytes >= maxRelayBatchBytes || len(r.pending) >= relayMaxPendFrames
	if writeThrough && kind != wire.KindHello && !full && !r.urgentArmed {
		// Don't flush synchronously: open a short window so the control
		// wave — every child's Done lands in the same workload tail —
		// coalesces before the uplink write.
		r.urgentArmed = true
		r.urgent.Reset(relayControlFlush)
	}
	r.pendMu.Unlock()
	if kind == wire.KindHello {
		// Hello is the one frame that lives outside the child's session
		// log (it is the dial handshake, so a session resume never
		// replays it): every instant it sits staged here is a window
		// where this relay's death silently unregisters the child — or
		// swallows a crashed node's rejoin, wedging its WaitRestart hold.
		// Push it upstream now; Hellos are far too rare to batch.
		r.flush()
		return
	}
	if full {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// flusher paces the upstream flush on the batching interval, the same
// size-or-interval policy the node-side capture batcher uses.
func (r *Relay) flusher() {
	defer r.wg.Done()
	t := time.NewTicker(r.cc.batch.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-r.kick:
		case <-r.urgent.C:
		case <-t.C:
		}
		r.flush()
	}
}

// flush drains the pending queue into RelayBatch frames (skipping
// tombstones) under the byte cap and sends them through the uplink's
// session log — renumbered, resumable, metered.
func (r *Relay) flush() {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.pendMu.Lock()
	pend := r.pending
	r.pending = nil
	r.pendBytes = 0
	if r.urgentArmed {
		// Any flush satisfies an open control window; stop the timer so
		// a stale fire doesn't wake the flusher for nothing (a drained
		// timer channel is left as-is — the extra empty flush is free).
		r.urgentArmed = false
		r.urgent.Stop()
	}
	r.pendMu.Unlock()
	if len(pend) == 0 {
		return
	}
	var frames []wire.RelayFrame
	bytes := 0
	send := func() {
		if len(frames) > 0 {
			r.cc.sendItems(wire.RelayBatch{Frames: frames}, len(frames))
			frames, bytes = nil, 0
		}
	}
	for _, p := range pend {
		if p.body == nil {
			continue
		}
		frames = append(frames, wire.RelayFrame{Origin: p.origin, Body: p.body})
		bytes += len(p.body)
		if bytes >= maxRelayBatchBytes {
			send()
		}
	}
	send()
}
