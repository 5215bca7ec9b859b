package node

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// CoordConfig parameterizes the cluster coordinator.
type CoordConfig struct {
	N        int
	Addr     string       // listen address (ignored when Listener is set)
	Listener net.Listener // optional pre-bound listener
	// Journal receives the merged cluster journal: every control event
	// forwarded by every node, plus candidate reports. May be nil.
	Journal  *obs.Journal
	Reg      *obs.Registry
	Timeouts Timeouts
	Logf     func(string, ...any)
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
	// Store, when non-nil, receives every staged capture frame (trace
	// ops, journal events) as it is staged in RAM — a write-through copy
	// that nothing reads during the run. The coordinator seals it into
	// a capture bundle at commit; the caller owns Open/Close.
	Store *store.Store
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
	// connections are O(relays) instead of O(n), while frames are those
	// of a flat cluster: a relay forwards each child frame as its own.
	RootConns  int64
	RootFrames int64
	RootBytes  int64
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
// form: when a crashed node relaunches (a Hello of a new incarnation
// for a known id), the coordinator bumps the cluster epoch and broadcasts
// Restart{epoch} — every node aborts, resets its mesh, discards its
// local capture and deterministically re-executes from scratch. Each
// stream's EpochMark then discards that stream's staged capture, so
// what Wait assembles is exactly the final epoch: a trace
// indistinguishable from a fault-free run.
//
// Each decision is one step under c.mu, taken where the frame that makes
// it is counted: the last Done at the epoch decides Shutdown, the last
// bye Commit, a relaunch's Hello a Restart, and a landed live verdict
// Detection + ReExec. The step folds the frames into c.dec and queues
// them to every connection; writers put them on the wire with no lock
// held, so a peer that stops reading delays nobody else.
type Coordinator struct {
	endpoint // the shared session layer's half: listener, connections, streams
	n        int
	journal  *obs.Journal
	cands    *obs.Counter
	start    time.Time

	// live is the merged cluster registry: every node's streamed
	// MetricsSnapshot applied with a node label, plus the coordinator's
	// scrape-time ingest-lag gauges. It backs the introspection
	// server's /metrics and feeds CoordStatus.
	live *obs.Registry
	insp *obs.Introspection

	// Live online detection (nil ld when CoordConfig.Live is off):
	// every ingested candidate feeds ld; a trigger runs the prefix
	// verdict off the decision lock, and land records a found cut and
	// takes the OnDetect response as one decision.
	ld        *livedetect.Checker
	liveCfg   LiveConfig
	violation predicate.Expr // ¬B, precomputed from Live.Predicate
	detMeter  *obs.Counter

	// assemblies counts whole-capture assemblies on the commit path —
	// Wait's, which the closing verdict reuses: one per committed run.
	assemblies *obs.Counter

	// store, when non-nil, gets the raw body of every staged capture
	// frame (stageCapture) and is sealed into the bundle at commit.
	store       spillStore
	spillFailed atomic.Bool // an append failed: no more appends, no seal

	// Root-side ingest accounting for the tree-vs-flat bench: frames
	// and payload bytes read off accepted streams, and handshakes that
	// opened or resumed one.
	rootFrames atomic.Int64
	rootBytes  atomic.Int64
	rootConns  atomic.Int64

	mu         sync.Mutex // the decision lock (session.go has the order)
	sessions   map[int]*nodeSession
	relays     map[int]*relaySession
	stats      []Stats
	dec        decisions // the run's decisions, written by decide (session.go has the rule)
	restarts   int
	reexecs    int               // detection-triggered re-executions (written by land)
	detections []DetectionRecord // confirmed live detections, all epochs (written by land)
	detByNode  []int             // confirmed detections per witness node (written by land)
	doneSeen   []bool
	byeSeen    []bool
	doneCount  int
	byeCount   int
	annots     []obs.Event // cluster-level annotations (chaos, epoch bumps)

	// allByes is closed once Commit is decided and the store sealed:
	// Wait's release.
	allByes chan struct{}

	// ingestHook, when a test sets it (before any stream attaches), sees
	// every frame as ingestStored is about to fold it in.
	ingestHook func(st *nodeSession, m wire.Msg)
}

// spillStore is what the coordinator uses of the trace store
// (*store.Store in production; tests substitute one that fails). It
// writes and seals; the bundle is read only once sealed.
type spillStore interface {
	Append(origin int32, epoch uint32, body []byte) error
	Seal(n int, epoch uint32) error
	Stats() (segments int, bytes int64)
}

// newCoordinator builds the listener-free core — session tables and
// completion state — that NewCoordinator wires to a socket and the
// ingest benches drive directly.
func newCoordinator(n int, journal *obs.Journal, logf func(string, ...any)) *Coordinator {
	return &Coordinator{
		endpoint: newEndpoint("coordinator", Timeouts{}.withDefaults(), logf),
		n:        n,
		journal:  journal,
		live:     obs.NewRegistry(),
		sessions: map[int]*nodeSession{},
		relays:   map[int]*relaySession{},
		stats:    make([]Stats, n),
		doneSeen: make([]bool, n),
		byeSeen:  make([]bool, n),
		allByes:  make(chan struct{}),
	}
}

// NewCoordinator starts a coordinator for an n-node cluster.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: coordinator needs n ≥ 2, got %d", cfg.N)
	}
	c := newCoordinator(cfg.N, cfg.Journal, cfg.Logf)
	if err := c.listen(cfg.Listener, cfg.Addr); err != nil {
		return nil, err
	}
	c.opt = cfg.Timeouts.withDefaults()
	if c.start = cfg.Start; c.start.IsZero() {
		c.start = time.Now()
	}
	c.cands = cfg.Reg.Counter("predctl_monitor_candidates_total")
	c.assemblies = cfg.Reg.Counter("predctl_coord_commit_assemblies_total")
	if cfg.Store != nil {
		c.store = cfg.Store
	}
	if cfg.Live.Predicate != nil {
		lc := cfg.Live
		if lc.OnDetect == "" {
			lc.OnDetect = OnDetectReExec
		}
		if lc.OnDetect != OnDetectReExec && lc.OnDetect != OnDetectNote {
			c.ln.Close()
			return nil, fmt.Errorf("node: coordinator: unknown OnDetect mode %q", lc.OnDetect)
		}
		if lc.MaxReExecs == 0 {
			lc.MaxReExecs = 1
		}
		c.liveCfg = lc
		c.violation = predicate.Not(lc.Predicate)
		c.ld = livedetect.New(cfg.N)
		c.detMeter = cfg.Reg.Counter("predctl_live_detections_total")
		c.detByNode = make([]int, cfg.N)
	}
	if cfg.HTTPAddr != "" || cfg.HTTPListener != nil {
		insp, err := obs.ServeIntrospection(obs.IntrospectionConfig{
			Addr: cfg.HTTPAddr, Listener: cfg.HTTPListener,
			Reg:     c.live,
			Status:  func() any { return c.Status() },
			Healthy: c.healthy,
			Refresh: c.refreshLag,
			Logf:    c.logf,
		})
		if err != nil {
			c.ln.Close()
			return nil, err
		}
		c.insp = insp
	}
	c.wg.Add(1)
	go c.acceptLoop(c.handleConn)
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

// Close shuts the coordinator's listener and connections down.
func (c *Coordinator) Close() {
	c.insp.Close() // first: /healthz must not outlive the run as a 503
	c.stop()
	c.wg.Wait()
}

// session returns (creating if needed) the state for node id.
func (c *Coordinator) session(id int) *nodeSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.sessions[id]
	if st == nil {
		st = &nodeSession{id: id}
		c.sessions[id] = st
		c.register(&st.inbound)
	}
	return st
}

// handleConn serves one accepted connection: the handshake — Resume to
// continue a session, RelayHello for a relay uplink, or a Hello, which
// is simply the stream's first frame — then sequence-gated ingest into
// the session's staging.
func (c *Coordinator) handleConn(raw net.Conn) {
	conn, body, _, first, err := c.open(raw)
	if err != nil {
		return
	}
	c.rootConns.Add(1)
	if h, ok := first.(wire.RelayHello); ok {
		c.handleRelay(conn, h)
		return
	}
	id, _, fresh, err := nodeHandshake(first, c.n)
	if err != nil {
		c.logf("coordinator: bad handshake: %v", err)
		return
	}
	conn.peer = "node " + strconv.Itoa(id)
	st := c.session(id)
	frame := func(body []byte) error {
		detected, err := c.ingest(st, conn, conn, body)
		if detected {
			c.fireDetection(id)
		}
		return err
	}
	if fresh {
		err = frame(body)
	} else {
		c.handshake(&st.inbound, conn, false)
	}
	if err != nil {
		c.logf("coordinator: node %d: handshake: %v", id, err)
		conn.flush()
		return
	}
	c.serve(conn, c.countFrame, frame)
}

// handshake adopts conn as in's owner and queues the decision replay
// to it, as one step under the decision lock: a decision taken meanwhile
// either reached the old owner and is in the replay, or follows the
// ResumeAck. fresh restarts the stream's numbering (adoptLocked).
func (c *Coordinator) handshake(in *inbound, conn *coordConn, fresh bool) {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dec.replay(conn, in.adoptLocked(conn, fresh, 0))
}

// ingest is the one per-origin frame path, for a node's own connection
// and for a relay-forwarded frame alike: owner is the gate's (nil when
// relayed), answer the connection the frame came on. A Hello goes to
// the Hello decision, which takes it unless it names the incarnation
// already on record — a resume replaying frame 1 — and everything else
// goes through the session's gate into ingestStored. It reports whether
// the live checker triggered: the caller runs the verdict once its own
// locks are released.
func (c *Coordinator) ingest(st *nodeSession, owner, answer *coordConn, body []byte) (detected bool, err error) {
	seq, m, err := wire.DecodeBody(body)
	if err != nil {
		return false, err
	}
	if h, ok := m.(wire.Hello); ok {
		if decided, err := c.hello(st, owner, answer, seq, h.Inc); decided {
			return false, err
		}
	}
	err = st.deliver(owner, seq, func() { detected = c.ingestStored(st, m, body) })
	return detected, err
}

// countFrame is the root's ingest accounting: one frame and its bytes
// (body plus length prefix) read off an accepted stream.
func (c *Coordinator) countFrame(bodyLen int) {
	c.rootFrames.Add(1)
	c.rootBytes.Add(int64(bodyLen + 4))
}

// hello runs the Hello decision for node st, whose per-origin
// incarnation record survives relay crashes: owner becomes the gate's,
// and the answer is queued to answer, the connection the Hello came on
// (a relay's uplink fans it out). It reports whether it decided: a
// Hello of the incarnation on record is a resume replaying frame 1,
// left to the gate. A first incarnation opens the session. A different
// one is a relaunched process: it has no session to resume, its old
// incarnation's stream state is void, and — until Commit — the cluster
// restarts, even between the Shutdown broadcast and the last bye: the
// "completed" execution is re-run, because refusing the relaunch would
// strand the byes the dead incarnation never sent. After Commit the
// staged capture is (being) assembled: the session is left untouched
// and the relaunch told to stand down. The adoption, the answer and the
// restart are one step under the session's ingestMu and the decision
// lock, so the answer is ordered with every decision.
func (c *Coordinator) hello(st *nodeSession, owner, answer *coordConn, seq, inc uint64) (decided bool, err error) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	st.mu.Lock()
	known, rejoin := st.inc == inc, st.inc != 0
	refused := rejoin && c.dec.committed
	if !known && !refused {
		st.inc = inc
		st.discardEpochLocked(0)
	}
	st.mu.Unlock()
	switch {
	case known:
		return false, nil
	case refused:
		return true, c.dec.refuse(answer)
	}
	st.adoptLocked(owner, true, seq)
	if !rejoin {
		if c.dec.epoch > 0 {
			c.logf("coordinator: node %d joined late; catching up to epoch %d", st.id, c.dec.epoch)
		}
		c.dec.catchUp(answer)
		return true, nil
	}
	// The §8 controlled re-execution: the Restart reaches the relaunch
	// with everyone else's, by the broadcast; the Detection broadcast it
	// missed does not.
	c.dec.detect(answer)
	c.restarts++
	e := c.dec.epoch + 1
	c.logf("coordinator: node %d rejoined; restarting cluster at epoch %d", st.id, e)
	c.annotateLocked(time.Since(c.start).Nanoseconds(), obs.EvEpochRestart, int64(st.id), int64(e))
	c.decide(wire.Restart{Epoch: e})
	return true, nil
}

// decide takes the decisions ms: it folds them into c.dec, then queues
// them to every stream's connection, both in order. If they move the
// epoch, the fold has voided a pending Shutdown (its byes can now never
// come), and decide voids the abandoned execution's completion progress
// with it. The caller holds c.mu from the check that made ms valid
// through here, so every node sees the decisions in decision order.
func (c *Coordinator) decide(ms ...wire.Msg) {
	was := c.dec.epoch
	for _, m := range ms {
		c.dec.fold(m)
	}
	if c.dec.epoch != was {
		c.newEpochLocked()
	}
	c.broadcast(ms...)
}

// newEpochLocked voids the completion progress of the execution the
// cluster just left for c.dec.epoch, and re-arms the live checker at it:
// the abandoned epoch's candidates must not seed a detection in the new
// one. Caller holds c.mu.
func (c *Coordinator) newEpochLocked() {
	c.doneCount, c.byeCount = 0, 0
	clear(c.doneSeen)
	clear(c.byeSeen)
	if c.ld != nil {
		c.ld.Reset(c.dec.epoch)
	}
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
	c.mu.Lock()
	c.annotateLocked(atNs, name, a, b)
	c.mu.Unlock()
}

// annotateLocked is AnnotateAt under the caller's c.mu.
func (c *Coordinator) annotateLocked(atNs int64, name string, a, b int64) {
	c.annots = append(c.annots, obs.Event{
		At: atNs, Proc: -1,
		Kind: obs.KindControl, Name: name, A: a, B: b,
	})
}

// seal ends the run once Commit at epoch e is decided: the store is
// sealed, then Wait is released. The ingest step that decided Commit
// calls it after releasing c.mu — exactly once, since Commit is decided
// once — so the directory is a complete, verifiable capture bundle the
// moment the run result exists, and Status answers meanwhile. An append
// that failed leaves the store unsealed: a manifest would bless a bundle
// that is not the run.
func (c *Coordinator) seal(e uint32) {
	if c.store != nil {
		if c.spillFailed.Load() {
			c.logf("coordinator: store not sealed: an append failed, so the store does not hold the whole capture")
		} else if err := c.store.Seal(c.n, e); err != nil {
			c.logf("coordinator: store seal: %v", err)
		}
	}
	close(c.allByes)
}
