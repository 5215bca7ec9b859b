package node

import (
	"cmp"
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
	// forwarded by every node, the monitor.candidate twins among them.
	// May be nil.
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
	// Candidates counts the monitor.candidate journal twins staged for
	// the final epoch, one per critical section a node left (discarded
	// epochs' are not included).
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
	// for the final epoch. Because commit takes a closing verdict over
	// the complete final-epoch capture, this coincides exactly with the
	// offline detect.PossiblyGeneral verdict on Deposet.
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
// reassembles them into a deposet trace plus a merged journal. Its
// decisions are the rootCore's (core.go); around the core it owns the
// sockets, the per-session staging and the store. Each stream's
// EpochMark discards that stream's staged capture, so what Wait
// assembles is exactly the final epoch, and writers put what the core
// decided on the wire with no lock held, so a peer that stops reading
// delays nobody else.
type Coordinator struct {
	endpoint // the shared session layer's half: listener, connections, streams
	n        int
	journal  *obs.Journal
	cands    *obs.Counter // the monitor.candidate journal twins staged
	start    time.Time

	// live is the merged cluster registry: every node's streamed
	// MetricsSnapshot applied with a node label, plus the coordinator's
	// scrape-time ingest-lag gauges. It backs the introspection
	// server's /metrics and feeds CoordStatus.
	live *obs.Registry
	insp *obs.Introspection

	// Live online detection (nil ld when CoordConfig.Live is off): the
	// epoch assembler derives ¬B's intervals into ld as it feeds, when
	// locals (B's, by process) say it can, or confirms on the fed prefix
	// when it cannot (locals nil); the verdict is taken off the decision
	// lock, and the core's land records a found cut and takes the
	// OnDetect response as one decision.
	ld        *livedetect.Checker
	locals    []*predicate.VarLocal
	violation predicate.Expr // ¬B, precomputed from Live.Predicate
	detMeter  *obs.Counter

	// asm is the cluster epoch's one assembler (commit.go); the feeder
	// goroutine (feed) runs a pass on each kick, which stageCapture sends
	// (nil kick: no feeder, as in the ingest benches), and takes the
	// mid-run live verdict the pass owes.
	asm  epochAsm
	kick chan struct{}

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

	// sessions is the node session table, one per node id, and relays
	// the relay session table, one per possible relay index (a tree has
	// at most n relays); both are fixed at construction, so reading them
	// takes no lock.
	sessions []*nodeSession
	relays   []*relaySession

	mu   sync.Mutex // the decision lock (session.go has the order)
	core rootCore   // every root decision and the state it reads

	// allByes is closed once Commit is decided and the store sealed:
	// Wait's release.
	allByes chan struct{}
}

// spillStore is what the coordinator uses of the trace store
// (*store.Store in production; tests substitute one that fails). It
// writes and seals; the bundle is read only once sealed.
type spillStore interface {
	Append(origin int32, epoch uint32, body []byte) error
	Seal(n int, epoch uint32) error
	Stats() (segments int, bytes int64)
}

// newCoordinator builds the listener-free coordinator — the session
// table, the decision core and the epoch assembler — that NewCoordinator
// wires to a socket and the ingest benches drive directly. It starts no
// feeder: ingest then times decode and staging alone.
func newCoordinator(n int, journal *obs.Journal, logf func(string, ...any)) *Coordinator {
	c := &Coordinator{
		endpoint: newEndpoint("coordinator", Timeouts{}.withDefaults(), logf),
		n:        n,
		journal:  journal,
		live:     obs.NewRegistry(),
		sessions: make([]*nodeSession, n),
		relays:   make([]*relaySession, n),
		allByes:  make(chan struct{}),
	}
	c.core = newRootCore(n, c.logf)
	c.asm.fed = make([]uint64, n)
	for id := range c.sessions {
		c.sessions[id] = &nodeSession{id: id}
		c.register(&c.sessions[id].inbound)
	}
	for i := range c.relays {
		c.relays[i] = &relaySession{index: i, origins: map[int]bool{}}
		c.register(&c.relays[i].inbound)
	}
	return c
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
		if err := c.light(cfg.Live); err != nil {
			c.ln.Close()
			return nil, err
		}
		c.detMeter = cfg.Reg.Counter("predctl_live_detections_total")
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
	c.kick = make(chan struct{}, 1)
	c.wg.Add(2)
	go c.feed()
	go c.acceptLoop(c.handleConn)
	return c, nil
}

// light turns live detection on for lc, its defaults filled in: the
// checker, and the response policy the core applies to its verdicts.
func (c *Coordinator) light(lc LiveConfig) error {
	switch lc.OnDetect {
	case "":
		lc.OnDetect = OnDetectReExec
	case OnDetectReExec, OnDetectNote:
	default:
		return fmt.Errorf("node: coordinator: unknown OnDetect mode %q", lc.OnDetect)
	}
	lc.MaxReExecs = cmp.Or(lc.MaxReExecs, 1)
	// Without locals the checker is offered nothing: it keeps one
	// verdict per epoch.
	c.locals, _ = livedetect.Locals(lc.Predicate, 2*c.n)
	c.ld = livedetect.NewFor(c.locals)
	c.core.ld, c.core.live, c.violation = c.ld, lc, predicate.Not(lc.Predicate)
	return nil
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
	st := c.sessions[id]
	frame := func(body []byte) error { return c.ingest(st, conn, conn, body) }
	if fresh {
		err = frame(body)
	} else {
		c.handshake(&st.inbound, conn, false, id)
	}
	if err != nil {
		c.logf("coordinator: node %d: handshake: %v", id, err)
		conn.out.wait()
		return
	}
	c.serve(conn, c.countFrame, frame)
}

// handshake adopts conn as in's owner and queues the decision replay
// to it, with the answers of the nodes in ids (rootCore.resume), as one
// step under the decision lock: a decision taken meanwhile either
// reached the old owner and is in the replay, or follows the
// ResumeAck. fresh restarts the stream's numbering (adoptLocked).
func (c *Coordinator) handshake(in *inbound, conn *coordConn, fresh bool, ids ...int) {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	conn.send(c.core.resume(in.adoptLocked(conn, fresh, 0), ids...)...)
}

// ingest is the one per-origin frame path, for a node's own connection
// and for a relay-forwarded frame alike: owner is the gate's (nil when
// relayed), answer the connection the frame came on. A Hello goes to
// the Hello decision, which takes it unless it names the incarnation
// already on record — a resume replaying frame 1 — and everything else
// goes through the session's gate into ingestStored.
func (c *Coordinator) ingest(st *nodeSession, owner, answer *coordConn, body []byte) error {
	seq, m, err := wire.DecodeBody(body)
	if err != nil {
		return err
	}
	if h, ok := m.(wire.Hello); ok {
		if decided, err := c.hello(st, owner, answer, seq, h); decided {
			return err
		}
	}
	return st.deliver(owner, seq, func() { c.ingestStored(st, m, body) })
}

// countFrame is the root's ingest accounting: one frame and its bytes
// (body plus length prefix) read off an accepted stream.
func (c *Coordinator) countFrame(bodyLen int) {
	c.rootFrames.Add(1)
	c.rootBytes.Add(int64(bodyLen + 4))
}

// hello takes node st's Hello to the core and reports whether it
// decided (step). A new incarnation voids its predecessor's stream state
// and makes owner the gate's; the answer goes to answer, the connection
// the Hello came on (a relay's uplink fans it out). All of it is one
// step under the session's ingestMu and the decision lock.
func (c *Coordinator) hello(st *nodeSession, owner, answer *coordConn, seq uint64, h wire.Hello) (decided bool, err error) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.core.step(st.id, 0, h, c.sinceStart())
	if o.refused {
		err = errRefused
	} else if !o.known {
		st.mu.Lock()
		st.discardEpochLocked(0)
		st.mu.Unlock()
		st.adoptLocked(owner, true, seq)
	}
	c.carry(answer, o)
	return !o.known, err
}

// errRefused ends the handshake of a relaunch that arrived after Commit,
// or of a Hello that arrived after its successor's.
var errRefused = errors.New("relaunched after commit, or superseded; refused")

// carry queues what a core step decided, under c.mu: the reply to
// answer, the connection its input came on, then the rest to every
// stream — so every peer sees the decisions in decision order.
func (c *Coordinator) carry(answer *coordConn, o out) {
	answer.send(o.reply...)
	if len(o.all) > 0 {
		c.broadcast(o.all...)
	}
}

// sinceStart is now, relative to the run start: the core's clock.
func (c *Coordinator) sinceStart() int64 { return time.Since(c.start).Nanoseconds() }

// AnnotateAt records a cluster-level instant event — a chaos injection,
// a partition window — at atNs relative to the run start.
func (c *Coordinator) AnnotateAt(atNs int64, name string, a, b int64) {
	c.mu.Lock()
	c.core.annotate(atNs, name, a, b)
	c.mu.Unlock()
}

// seal ends the run once Commit at epoch e is decided: the store is
// sealed, then Wait is released. The ingest step that decided Commit
// calls it once, after releasing c.mu, so the bundle is complete the
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
