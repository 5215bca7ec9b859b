package node

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Relay is the middle tier of a hierarchical ingest tree: it terminates
// the resumable capture streams of a subset of nodes with the session
// layer the root coordinator uses (session.go), so to a child a relay
// looks exactly like a coordinator — but instead of staging capture it
// re-batches the raw frame bodies into wire.RelayBatch frames and
// forwards them to the root over one session. The root therefore
// handles O(relays) connections instead of O(n), while resume and
// epoch semantics compose across both hops: the relay's uplink IS a
// coordClient (the same session log, redial/backoff and retransmit
// code), with a RelayHello handshake and an intercept that caches every
// decision frame and fans it out to the children.
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
	endpoint // the shared session layer's half: listener, connections, streams
	cfg      RelayConfig
	cc       *coordClient

	// decideMu is the relay's shutdownMu: caching an upstream decision
	// plus fanning it out, and a child handshake's adoption plus decision
	// replay, are atomic against each other — no fan-out can reach a
	// resuming child ahead of its ResumeAck. Taken before mu.
	decideMu sync.Mutex

	mu        sync.Mutex
	dec       decisions // the root's decisions as last heard, replayed to (re)connecting children
	children  map[int]*relayChild
	contacted bool // a RelayHello reached the root at least once

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

	kick chan struct{}
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
	Reg  *obs.Registry
	Logf func(string, ...any)
}

// relayChild is the relay's per-node-id stream state: the downstream
// mirror of the root's nodeSession, minus the staging.
type relayChild struct {
	id int
	inbound
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
	if cfg.N < 2 || cfg.Relays < 1 || cfg.Index < 0 || cfg.Index >= cfg.Relays {
		return nil, fmt.Errorf("node: relay %d/%d for n=%d: bad shape", cfg.Index, cfg.Relays, cfg.N)
	}
	r := &Relay{
		endpoint: newEndpoint("relay "+strconv.Itoa(cfg.Index), cfg.Timeouts.withDefaults(), cfg.Logf),
		cfg:      cfg,
		children: map[int]*relayChild{},
		urgent:   time.NewTimer(time.Hour),
		kick:     make(chan struct{}, 1),
	}
	if !r.urgent.Stop() {
		<-r.urgent.C
	}
	if err := r.listen(cfg.Listener, cfg.Addr); err != nil {
		return nil, err
	}
	// The uplink flushes at twice the children's cadence: a relay
	// aggregates an entire subtree, so one extra interval of staleness
	// buys roughly double the child frames per upstream RelayBatch.
	batch := cfg.Batching.withDefaults()
	batch.Interval *= 2
	wm := newWireMeters(cfg.Reg, "uplink")
	cc := newCoordClient(cfg.Upstream, -(cfg.Index + 1), cfg.N, batch, wm, r.opt, nil, r.logf)
	cc.mkResume = r.mkResume
	cc.onMsg = r.onUpstream
	cc.onResumeAck = r.onResumeAck
	r.cc = cc

	// First contact runs the same resume path every later redial runs:
	// RelayHello out, ResumeAck in, retransmit past Cum (nothing, yet).
	conn, br, err := cc.resume()
	if err != nil {
		r.ln.Close()
		return nil, fmt.Errorf("node: relay %d: root %s: %w", cfg.Index, cfg.Upstream, err)
	}
	go cc.session(conn, br)

	r.wg.Add(2)
	go r.acceptLoop(r.handleChild)
	go r.flusher()
	return r, nil
}

// Close tears the relay down abruptly: listener, children, uplink. A
// chaos kill uses exactly this — no drain, no goodbye — and the tree
// heals through the two resume hops.
func (r *Relay) Close() {
	r.stop()
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
	r.cc.mu.Lock()
	r.cc.epoch = ack.Epoch
	r.cc.mu.Unlock()
	r.decideMu.Lock()
	defer r.decideMu.Unlock()
	r.mu.Lock()
	r.contacted = true
	bumped := ack.Epoch > r.dec.epoch
	if bumped {
		r.dec.epoch = ack.Epoch
	}
	r.mu.Unlock()
	if bumped {
		r.broadcast(wire.Restart{Epoch: ack.Epoch})
	}
}

// onUpstream intercepts every frame the root sends: cache the decision
// for handshake replay, fan it out to the children. Consumes
// everything — the relay has no node-side epoch loop to feed.
func (r *Relay) onUpstream(m wire.Msg) bool {
	r.decideMu.Lock()
	defer r.decideMu.Unlock()
	r.mu.Lock()
	switch v := m.(type) {
	case wire.Shutdown:
		r.dec.shutdown = true
	case wire.Commit:
		r.dec.committed = true
	case wire.Restart:
		r.dec.epoch, r.dec.shutdown = max(r.dec.epoch, v.Epoch), false
	case wire.ReExec:
		r.dec.epoch, r.dec.shutdown = max(r.dec.epoch, v.Epoch), false
	case wire.Detection:
		r.dec.detection = &v
	case wire.ResumeAck:
		// Handled in resume(); a stray one carries nothing to forward.
		r.mu.Unlock()
		return true
	default:
		r.mu.Unlock()
		r.logf("relay %d: root sent unexpected %T", r.cfg.Index, m)
		return true
	}
	r.mu.Unlock()
	r.broadcast(m)
	return true
}

// child returns (creating if needed) the state for node id.
func (r *Relay) child(id int) *relayChild {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.children[id]
	if ch == nil {
		ch = &relayChild{id: id}
		r.children[id] = ch
		r.register(&ch.inbound)
	}
	return ch
}

// handleChild serves one child connection: the handshake contract the
// root implements — Resume continues with a cumulative ack and the
// cached decisions replayed; Hello opens, is answered from the cache,
// and is forwarded so the root owns the restart decision (its
// per-origin attached bit survives relay crashes) — then sequence-gated
// pass-through of raw frame bodies into the forward queue.
func (r *Relay) handleChild(raw net.Conn) {
	conn, body, seq, first, err := r.open(raw)
	if err != nil {
		return
	}
	id, _, fresh, err := nodeHandshake(first, r.cfg.N)
	if err != nil {
		r.logf("relay %d: bad handshake: %v", r.cfg.Index, err)
		return
	}
	conn.peer = "node " + strconv.Itoa(id)
	ch := r.child(id)
	r.decideMu.Lock()
	r.mu.Lock()
	d := r.dec
	r.mu.Unlock()
	switch {
	case !fresh:
		err = d.replay(conn, ch.adopt(conn, false, 0))
	case d.committed:
		// Not forwarded either: there is no run left to restart.
		err = d.refuse(conn)
	default:
		// The cached catch-up stands in for the root's targeted writes.
		ch.adopt(conn, true, seq)
		err = d.catchUp(conn)
	}
	r.decideMu.Unlock()
	if err != nil {
		r.logf("relay %d: node %d: handshake: %v", r.cfg.Index, id, err)
		return
	}
	if fresh {
		r.stage(int32(id), wire.KindHello, body)
	}
	r.serve(conn, nil, func(body []byte) error {
		kind, seq, err := wire.PeekBody(body)
		if err != nil {
			return err
		}
		return ch.deliver(conn, seq, func() { r.stage(int32(id), kind, body) })
	})
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
// volume rides the interval. A candidate kicks the flusher outright: the
// child flushed it ahead of its own tick because the root's live checker
// is waiting on it, and it must not pick up a timer here. The pass takes
// everything queued ahead of it along, so the candidate still arrives
// behind the ops it probes; when candidates come faster than passes the
// kicks coalesce and each pass carries what gathered during the last.
// Hello flushes synchronously — see below.
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
	kick := full || kind == wire.KindCandidate || kind == wire.KindCandidateBatch
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
	if kick {
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
		case <-r.closed:
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
// session log — renumbered, resumable, metered — with one write for the
// pass.
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
			r.cc.logItems(wire.RelayBatch{Frames: frames}, len(frames))
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
	r.cc.writeLogged()
}
