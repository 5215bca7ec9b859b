// Package node is the real network runtime for the paper's on-line
// predicate control: where internal/online runs applications and
// controllers as processes on the discrete-event sim kernel, this
// package hosts them as daemons over real TCP. Each node runs one
// application process and its co-located controller (the paper's
// "control system is a distinct distributed system"), embedding the
// transport-neutral online.Machine — the sim kernel and this package
// are two Hosts driving the same Figure 3 protocol code.
//
// The runtime earns what the simulator gave for free: per-peer reliable
// in-order exactly-once delivery (sequence numbers, cumulative acks,
// retransmission, dedup — link.go, transport.go) over connections that
// redial with capped exponential backoff, with a deterministic
// fault-injection shim (fault.go) exercising the recovery paths.
//
// A coordinator (coord.go) collects each node's capture stream and
// reassembles the run as a deposet trace — apps are logical processes
// 0..n-1, controllers n..2n-1, exactly the sim layout — so pctl replay,
// detection and offline control consume a networked run unchanged. It
// also merges the nodes' journals and tallies so the obs invariant
// checkers (single scapegoat chain, handoff response window) run
// against a real TCP execution.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/obs"
	"predctl/internal/online"
	"predctl/internal/wire"
)

// ErrCrashed reports that a node was torn down by its Config.Crash
// channel: the in-process stand-in for kill -9. Everything stops
// abruptly — no final flush, no bye, connections just close — so the
// cluster observes exactly what a dead process would leave behind. The
// harness (or an operator relaunching `pctl node`) starts a fresh Run
// with the same Config, whose Hello the coordinator recognizes as a
// rejoin and answers with a controlled re-execution restart.
var ErrCrashed = errors.New("node: crashed by injection")

// Stats aggregates one node's run, mirroring online.Stats with
// wall-clock latencies.
type Stats struct {
	Requests    int
	Handoffs    int
	CtlMessages int
	Responses   []time.Duration // per-request grant latency
}

// Config parameterizes one node of a controlled cluster running the
// anti-token (n−1)-mutex workload: Rounds critical sections of length
// CS separated by think times in (Think/2, Think].
type Config struct {
	ID        int
	N         int
	Addrs     []string // Addrs[i] is node i's listen address
	Coord     string   // coordinator address (required)
	Scapegoat int      // initial anti-token holder
	Broadcast bool
	Rounds    int
	Think     time.Duration
	CS        time.Duration
	Seed      int64
	Faults    Faults
	Timeouts  Timeouts
	// Batching is the flush policy for the coordinator capture stream
	// (zero value: batch frames of ≤128 items flushed every 2ms).
	Batching Batching
	Listener net.Listener // optional pre-bound listener for this node
	// Journal, when non-nil, receives this node's local copy of the
	// control events (the coordinator gets them too, via the capture
	// stream).
	Journal *obs.Journal
	// Reg, when non-nil, receives the node's protocol metrics.
	Reg  *obs.Registry
	Logf func(string, ...any)
	// Start is the run epoch journal timestamps are relative to; the
	// zero value means "now". Clusters share one epoch so the merged
	// journal's timestamps are comparable (and partition windows line
	// up across nodes).
	Start time.Time
	// Crash, when non-nil, injects a crash: a receive makes Run abandon
	// everything mid-flight and return ErrCrashed, the in-process
	// equivalent of killing the daemon.
	Crash <-chan struct{}
	// HTTPAddr, when non-empty (or HTTPListener non-nil), opts into the
	// node's introspection server: /metrics (the node's registry),
	// /statusz (NodeStatus), /healthz, /debug/pprof/.
	HTTPAddr     string
	HTTPListener net.Listener
	// Rogue plants a protocol violation for live detection to catch:
	// the application enters its critical sections without the
	// mayFalse/grant handshake (and never reports NowTrue), so its
	// controller believes the local predicate stayed true while the CS
	// overlaps everyone else's. The candidate stream still reports the
	// false-intervals faithfully — the monitor observes the application,
	// it does not police it. A rogue reverts to controlled behavior the
	// moment the coordinator's Detection/ReExec broadcast arrives, so a
	// detection-triggered re-execution satisfies the invariants.
	Rogue bool
}

// meters is the node's metric set (nil-safe, like online's). Response
// latencies split by path: predctl_response_ns records every grant,
// predctl_response_handoff_ns only grants that paid for an anti-token
// handoff — the observations the paper's [2T, 2T+Emax] window bounds.
type meters struct {
	ctl         *obs.Counter
	handoffs    *obs.Counter
	cancels     *obs.Counter
	requests    *obs.Counter
	resp        *obs.Histogram
	respHandoff *obs.Histogram
}

func newMeters(reg *obs.Registry) meters {
	return meters{
		ctl:         reg.Counter("predctl_ctl_messages_total"),
		handoffs:    reg.Counter("predctl_handoffs_total"),
		cancels:     reg.Counter("predctl_broadcast_cancels_total"),
		requests:    reg.Counter("predctl_requests_total"),
		resp:        reg.Histogram("predctl_response_ns"),
		respHandoff: reg.Histogram("predctl_response_handoff_ns"),
	}
}

// localKind discriminates app → controller inputs on the node-local
// channel (the networked stand-in for the sim's zero-delay local hop).
type localKind uint8

const (
	locMayFalse localKind = iota
	locNowTrue
)

type localInput struct {
	kind localKind
	id   uint64 // trace id of the local message
}

// node is one epoch's execution state: application goroutine,
// controller goroutine, capture, clocks. The transport and coordinator
// stream outlive it — a controlled re-execution restart discards the
// node state and builds a fresh one at the next epoch on the same
// transport (reset) and stream (epoch-marked).
type node struct {
	cfg     Config
	epoch   uint32
	app     int // logical trace process of the application (= cfg.ID)
	ctl     int // logical trace process of the controller (= cfg.N + cfg.ID)
	tr      *Transport
	cc      *coordClient
	cap     *capture
	clk     *clock
	rng     *rand.Rand // controller-owned (PickTarget)
	m       meters
	statsMu sync.Mutex // app and controller both tally into stats
	stats   Stats
	start   time.Time
	logf    func(string, ...any)
	journal *obs.Journal

	ctlIn     chan localInput
	grantCh   chan grantMsg
	ctlQuit   chan struct{} // stops the controller loop
	ctlExited chan struct{}
	abort     chan struct{} // unblocks the app on restart/crash
	appExited chan struct{}
	appDone   chan struct{}

	// handoffPending pairs Released with the Grant it unblocks (both on
	// the controller goroutine): a grant that required an anti-token
	// handoff is tagged, so its response time is held to the paper's
	// [2T, 2T+Emax] window while local grants (the paper's "0") are not.
	handoffPending bool
}

// grantMsg is the controller → app grant: the trace id of the grant
// message, tagged with whether the grant paid for a handoff.
type grantMsg struct {
	id      uint64
	handoff bool
}

func (nd *node) since() int64 { return time.Since(nd.start).Nanoseconds() }

// journalCtl records a control event locally and forwards it to the
// coordinator, so both the node's journal and the merged cluster
// journal see it.
func (nd *node) journalCtl(proc int, kind obs.Kind, name string, a, b, c int64, vc []int32) {
	e := obs.Event{At: nd.since(), Proc: proc, Kind: kind, Name: name, A: a, B: b, C: c, VC: vc}
	nd.journal.Append(e)
	nd.cap.journal(e)
}

// Run executes one node to completion: the application's Rounds
// critical sections under anti-token control, then serving handoffs
// for the rest of the cluster until the coordinator says Shutdown. It
// returns the node's final tallies.
//
// Nothing runs before the coordinator answers this process's Hello, so
// a first start and a relaunch (its Hello names a new incarnation) take
// one path; a relaunch after Commit stands down with empty tallies.
//
// A Restart from the coordinator (another node crashed and relaunched)
// triggers the paper's §8 controlled re-execution: the current
// execution is abandoned wherever it stands, the mesh resets to the
// new epoch, the abandoned capture is discarded on the stream, and the
// whole workload re-executes from scratch. Only the final epoch's
// capture survives at the coordinator, so recovery yields the same
// trace a fault-free run would have.
func Run(cfg Config) (*Stats, error) {
	if cfg.N < 2 || cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("node: id %d of %d out of range", cfg.ID, cfg.N)
	}
	if cfg.Scapegoat < 0 || cfg.Scapegoat >= cfg.N {
		return nil, fmt.Errorf("node: scapegoat %d out of range", cfg.Scapegoat)
	}
	if cfg.Coord == "" {
		return nil, fmt.Errorf("node: a coordinator address is required")
	}
	if err := cfg.Faults.check(cfg.N); err != nil {
		return nil, err
	}
	if err := checkPace(cfg.Think, cfg.CS); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Now()
	}
	opt := cfg.Timeouts.withDefaults()
	parts := newPartitions(cfg.Faults, start)
	cc, err := dialCoord(cfg.Coord, cfg.ID, cfg.N, newWireMeters(cfg.Reg, "coord"), opt, parts, logf)
	if err != nil {
		return nil, err
	}
	tr, err := NewTransport(TransportConfig{
		ID: cfg.ID, N: cfg.N, Addrs: cfg.Addrs, Listener: cfg.Listener,
		Faults: cfg.Faults, Timeouts: cfg.Timeouts,
		Reg: cfg.Reg, Logf: logf,
		Start: start,
	})
	if err != nil {
		cc.close()
		return nil, err
	}

	// cur tracks the epoch's execution state for /statusz; it trails the
	// epoch loop by design (a restart swaps it when the new state is up).
	var cur atomic.Pointer[node]
	var insp *obs.Introspection
	if cfg.HTTPAddr != "" || cfg.HTTPListener != nil {
		insp, err = obs.ServeIntrospection(obs.IntrospectionConfig{
			Addr: cfg.HTTPAddr, Listener: cfg.HTTPListener,
			Reg:     cfg.Reg,
			Status:  func() any { return nodeStatus(cfg, cur.Load(), cc) },
			Healthy: cc.healthy,
			Logf:    logf,
		})
		if err != nil {
			tr.Close()
			cc.close()
			return nil, err
		}
		defer insp.Close()
		logf("node %d: introspection at %s", cfg.ID, insp.URL())
	}

	// One loop over the incarnation's step (held, then start, restart,
	// bye, leave): the loop does the I/O, and waits only when the step
	// has nothing left to do.
	s := incarnation{inc: cc.inc}
	var nd *node // the running epoch; nil while held
	var appDone chan struct{}
	for {
		next := s.step(cc.decisions())
		switch {
		case next == s:
			select {
			case <-appDone:
				// App finished: report Done (responses are complete; the
				// controller keeps serving handoffs, so message tallies grow
				// until shutdown — and the flusher keeps streaming capture).
				appDone = nil
				cc.send(nd.doneFrame())
			case <-cc.decCh:
			case <-cc.sessDone:
				// Terminal session loss: no answer or Commit can come. A
				// refused relaunch's ends behind the refusal: it stands down.
				if nd != nil {
					return nd.leave(s.phase == byed, opt.CoordDeadline), nil
				}
				if !cc.decisions().committed {
					tr.Close()
					cc.close()
					return nil, fmt.Errorf("node %d: coordinator session lost before its Hello was answered", cfg.ID)
				}
			case <-cfg.Crash:
				// kill -9 semantics: connections just die, nothing is
				// flushed, no bye is sent. The coordinator keeps the session
				// state and treats the relaunch's Hello as a rejoin.
				if nd != nil {
					nd.halt()
				}
				tr.Close()
				cc.close()
				return nil, ErrCrashed
			}
		case next.phase == running:
			if nd != nil {
				logf("node %d: restarting at epoch %d (controlled re-execution)", cfg.ID, next.epoch)
				nd.halt()
			}
			if next.epoch > 0 {
				tr.Reset(next.epoch)
				cc.markEpoch(next.epoch)
			}
			nd = launch(cfg, next.epoch, tr, cc, start, logf)
			appDone = nd.appDone
			cur.Store(nd)
		case next.phase == byed:
			// The epoch is complete. After the bye the node PARKS, mesh up
			// and session resident, until the Commit: a straggler's
			// crash-rejoin can still restart it.
			nd.bye()
		default: // gone
			if nd != nil {
				return nd.leave(s.phase == byed, opt.CoordDeadline), nil
			}
			// Relaunched after the run was sealed: nothing to re-execute.
			logf("node %d: rejoin refused (run committed); standing down", cfg.ID)
			tr.Close()
			cc.close()
			return &Stats{}, nil
		}
		s = next
	}
}

// leave ends a started node's run: one that never byed (its session
// lost, maybe to close()-vs-teardown noise) sends its closing frames
// anyway; the workers stop, the mesh closes, and the session drains, so
// that resume delivers a bye stuck behind a sever, then closes.
func (nd *node) leave(byed bool, drain time.Duration) *Stats {
	if !byed {
		nd.bye()
	}
	nd.halt()
	nd.tr.Close()
	nd.cc.drain(drain)
	nd.cc.close()
	nd.statsMu.Lock()
	defer nd.statsMu.Unlock()
	s := nd.stats
	return &s
}

// NodeStatus is a node's /statusz document.
type NodeStatus struct {
	Node  int    `json:"node"`
	N     int    `json:"n"`
	Epoch uint32 `json:"epoch"`
	// StreamFrames is the coordinator capture stream's session-log
	// length: every frame ever sequenced, survives reconnects.
	StreamFrames uint64 `json:"stream_frames"`
	Requests     int    `json:"requests"`
	Handoffs     int    `json:"handoffs"`
	CtlMessages  int    `json:"ctl_messages"`
}

// nodeStatus assembles the live status snapshot; nd may be nil before
// the first epoch starts.
func nodeStatus(cfg Config, nd *node, cc *coordClient) NodeStatus {
	s := NodeStatus{Node: cfg.ID, N: cfg.N, StreamFrames: cc.sentFrames()}
	if nd != nil {
		s.Epoch = nd.epoch
		nd.statsMu.Lock()
		s.Requests = nd.stats.Requests
		s.Handoffs = nd.stats.Handoffs
		s.CtlMessages = nd.stats.CtlMessages
		nd.statsMu.Unlock()
	}
	return s
}

// launch builds one epoch's fresh execution state and starts it: its
// capture, then the controller and the application. A re-execution's
// first event, in the fresh epoch's capture, marks where the surviving
// execution began in the merged journal (and the cluster trace).
func launch(cfg Config, epoch uint32, tr *Transport, cc *coordClient, start time.Time, logf func(string, ...any)) *node {
	nd := &node{
		cfg: cfg, epoch: epoch, app: cfg.ID, ctl: cfg.N + cfg.ID,
		tr: tr, cc: cc,
		cap:       newCapture(cc, cfg, epoch, start),
		clk:       newClock(cfg.N, cfg.ID),
		rng:       rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID)*7919)),
		m:         newMeters(cfg.Reg),
		start:     start,
		logf:      logf,
		journal:   cfg.Journal,
		ctlIn:     make(chan localInput, 4),
		grantCh:   make(chan grantMsg, 1),
		ctlQuit:   make(chan struct{}),
		ctlExited: make(chan struct{}),
		abort:     make(chan struct{}),
		appExited: make(chan struct{}),
		appDone:   make(chan struct{}),
	}
	nd.cap.start()
	if epoch > 0 {
		nd.journalCtl(nd.ctl, obs.KindControl, obs.EvEpochRestart, int64(cfg.ID), 0, int64(epoch), nil)
	}
	go nd.controller()
	go nd.application()
	return nd
}

// halt abandons the epoch: both workers stop and are joined, so no stale
// append lands in the capture, which stops unflushed, before its mark.
func (nd *node) halt() {
	close(nd.abort)
	close(nd.ctlQuit)
	<-nd.ctlExited
	<-nd.appExited
	nd.cap.stop(false)
}

// bye is the epoch's bye phase: the final flush, the complete tallies
// and the epoch-tagged Shutdown.
func (nd *node) bye() {
	nd.cap.stop(true)
	nd.cc.send(nd.doneFrame())
	nd.cc.send(wire.Shutdown{Epoch: nd.epoch})
}

// doneFrame snapshots the node's tallies as a wire.Done. At the first
// Done the controller is still serving handoffs, so its message counts
// keep growing; the final Done (sent after the controller exits)
// carries the complete tallies.
func (nd *node) doneFrame() wire.Done {
	nd.statsMu.Lock()
	defer nd.statsMu.Unlock()
	d := wire.Done{
		Proc:        int32(nd.cfg.ID),
		Requests:    uint64(nd.stats.Requests),
		Handoffs:    uint64(nd.stats.Handoffs),
		CtlMessages: uint64(nd.stats.CtlMessages),
	}
	for _, r := range nd.stats.Responses {
		d.Responses = append(d.Responses, r.Nanoseconds())
	}
	return d
}

// --- controller ---

// controller runs the Figure 3 machine, feeding it local inputs and
// transport deliveries. Machine effects come back through the Host
// methods below, all on this goroutine.
func (nd *node) controller() {
	defer close(nd.ctlExited)
	mach := online.NewMachine(nd.cfg.ID, nd.cfg.N, nd.cfg.ID == nd.cfg.Scapegoat, true, nd.cfg.Broadcast, (*nodeHost)(nd))
	if mach.Scapegoat() {
		nd.journalCtl(nd.ctl, obs.KindControl, obs.EvScapegoatInit, int64(nd.cfg.ID), 0, 0, nd.clk.snapshot())
	}
	for {
		select {
		case <-nd.ctlQuit:
			return
		case in := <-nd.ctlIn:
			nd.cap.append(wire.TraceOp{Op: wire.TraceRecv, Proc: int32(nd.ctl), MsgID: in.id})
			switch in.kind {
			case locMayFalse:
				mach.OnMayFalse()
			case locNowTrue:
				mach.OnNowTrue()
			}
		case rv := <-nd.tr.RecvCh():
			if rv.Epoch != nd.epoch {
				// Queued before a controlled re-execution reset: the
				// execution it belongs to is void.
				continue
			}
			m, ok := rv.Msg.(wire.Ctl)
			if !ok {
				nd.logf("node %d: dropping unexpected %T from %d", nd.cfg.ID, rv.Msg, rv.From)
				continue
			}
			nd.clk.observe(nd.cfg.ID, m.VC)
			nd.cap.append(wire.TraceOp{Op: wire.TraceRecv, Proc: int32(nd.ctl), MsgID: m.TraceID})
			mach.OnCtl(int(m.From), online.MsgKind(m.Kind), m.Gen)
		}
	}
}

// nodeHost adapts *node to online.Host. All methods run on the
// controller goroutine.
type nodeHost node

// SendCtl implements online.Host: a handoff protocol message to the
// controller co-located with application `to`, over the reliable link.
func (h *nodeHost) SendCtl(to int, k online.MsgKind, gen uint64) {
	nd := (*node)(h)
	vc := nd.clk.tick(nd.cfg.ID)
	id := nd.cap.msgID(nd.ctl)
	nd.cap.append(wire.TraceOp{Op: wire.TraceSend, Proc: int32(nd.ctl), MsgID: id})
	nd.statsMu.Lock()
	nd.stats.CtlMessages++
	nd.statsMu.Unlock()
	nd.m.ctl.Inc()
	if k == online.MsgCancel {
		nd.m.cancels.Inc()
	}
	nd.journalCtl(nd.ctl, obs.KindControl, obs.EvCtlPrefix+k.String(), int64(to), 0, int64(gen), vc)
	nd.tr.Send(to, wire.Ctl{
		// online.MsgKind and wire.CtlKind enumerate req/ack/confirm/
		// cancel in the same order; the conversion is the identity.
		Kind: wire.CtlKind(k), From: int32(nd.cfg.ID), To: int32(to),
		Gen: gen, TraceID: id, VC: vc,
	})
}

// Grant implements online.Host: permission to the co-located
// application, as a traced local message.
func (h *nodeHost) Grant() {
	nd := (*node)(h)
	id := nd.cap.msgID(nd.ctl)
	nd.cap.append(wire.TraceOp{Op: wire.TraceSend, Proc: int32(nd.ctl), MsgID: id})
	handoff := nd.handoffPending
	nd.handoffPending = false
	nd.grantCh <- grantMsg{id: id, handoff: handoff}
}

// Acquired implements online.Host: journal the anti-token transfer with
// its generation (Event.C), the field the networked chain invariant
// orders acquisitions by.
func (h *nodeHost) Acquired(from int, gen uint64) {
	nd := (*node)(h)
	nd.journalCtl(nd.ctl, obs.KindControl, obs.EvScapegoatAcquire,
		int64(nd.cfg.ID), int64(from), int64(gen), nd.clk.snapshot())
}

// Released implements online.Host: the releasing side of a handoff.
func (h *nodeHost) Released(to int) {
	nd := (*node)(h)
	nd.statsMu.Lock()
	nd.stats.Handoffs++
	nd.statsMu.Unlock()
	nd.m.handoffs.Inc()
	nd.handoffPending = true
}

// PickTarget implements online.Host: a seeded-random controller other
// than ourselves.
func (h *nodeHost) PickTarget() int {
	nd := (*node)(h)
	t := nd.rng.Intn(nd.cfg.N - 1)
	if t >= nd.cfg.ID {
		t++
	}
	return t
}

// --- application ---

// application runs the (n−1)-mutex workload of kmutex.RunScapegoat over
// the real controller: think, request permission to go false, enter the
// critical section (cs=1 — the local predicate ¬cs goes false), leave,
// report true again. Every state change and local protocol hop is
// captured as trace ops of logical process nd.app.
func (nd *node) application() {
	defer close(nd.appExited)
	rng := rand.New(rand.NewSource(nd.cfg.Seed + int64(nd.cfg.ID)*104729 + 1))
	nd.cap.append(wire.TraceOp{Op: wire.TraceInit, Proc: int32(nd.app), Name: "cs", Value: 0})
	for r := 0; r < nd.cfg.Rounds; r++ {
		nd.sleepThink(rng)

		// A rogue skips the permission protocol entirely — no mayFalse,
		// no grant, no NowTrue — until a Detection/ReExec broadcast puts
		// the node back under control. Its controller keeps believing the
		// local predicate is true, which is exactly the planted violation
		// the live checker exists to catch.
		rogue := nd.cfg.Rogue && nd.cc.decisions().detection == nil
		if !rogue {
			// RequestFalse: mayFalse to the controller, block on the grant.
			// Both local hops abort cleanly on restart/crash — the grant may
			// never come once the epoch is abandoned.
			begin := time.Now()
			id := nd.cap.msgID(nd.app)
			nd.cap.append(wire.TraceOp{Op: wire.TraceSend, Proc: int32(nd.app), MsgID: id})
			select {
			case nd.ctlIn <- localInput{kind: locMayFalse, id: id}:
			case <-nd.abort:
				return
			}
			var g grantMsg
			select {
			case g = <-nd.grantCh:
			case <-nd.abort:
				return
			}
			nd.cap.append(wire.TraceOp{Op: wire.TraceRecv, Proc: int32(nd.app), MsgID: g.id})
			d := time.Since(begin)
			nd.statsMu.Lock()
			nd.stats.Requests++
			nd.stats.Responses = append(nd.stats.Responses, d)
			nd.statsMu.Unlock()
			nd.m.requests.Inc()
			nd.m.resp.Observe(d.Nanoseconds())
			if g.handoff {
				nd.m.respHandoff.Observe(d.Nanoseconds())
			}
		}

		// Critical section: cs=1 is the false-interval of ¬cs.
		loIdx := nd.cap.append(wire.TraceOp{Op: wire.TraceSet, Proc: int32(nd.app), Name: "cs", Value: 1})
		lo := nd.clk.tick(nd.cfg.ID)
		nd.journalCtl(nd.app, obs.KindSet, "cs", 1, 0, 0, nil)
		time.Sleep(nd.cfg.CS)
		hiIdx := nd.cap.append(wire.TraceOp{Op: wire.TraceSet, Proc: int32(nd.app), Name: "cs", Value: 0})
		hi := nd.clk.tick(nd.cfg.ID)
		nd.journalCtl(nd.app, obs.KindSet, "cs", 0, 0, 0, nil)
		nd.cap.candidate(wire.Candidate{
			Proc: int32(nd.app), LoIdx: int64(loIdx), HiIdx: int64(hiIdx), Lo: lo, Hi: hi,
		})
		// The candidate's journal twin carries the real emission time;
		// detection-latency measurement joins it (by state indices)
		// against the coordinator's detect.fired timestamp.
		nd.journalCtl(nd.app, obs.KindControl, obs.EvCandidate, int64(loIdx), int64(hiIdx), 0, hi)

		if !rogue {
			// NowTrue: the local predicate holds again (A2 at the end).
			tid := nd.cap.msgID(nd.app)
			nd.cap.append(wire.TraceOp{Op: wire.TraceSend, Proc: int32(nd.app), MsgID: tid})
			select {
			case nd.ctlIn <- localInput{kind: locNowTrue, id: tid}:
			case <-nd.abort:
				return
			}
		}
	}
	close(nd.appDone)
}

// checkPace refuses a negative think or critical-section time, which
// would otherwise run as zero.
func checkPace(think, cs time.Duration) error {
	switch {
	case think < 0:
		return fmt.Errorf("node: think %v is negative", think)
	case cs < 0:
		return fmt.Errorf("node: cs %v is negative", cs)
	}
	return nil
}

// sleepThink sleeps a seeded-random think time in (Think/2, Think].
func (nd *node) sleepThink(rng *rand.Rand) {
	t := nd.cfg.Think
	if t <= 0 {
		return
	}
	half := int64(t) / 2
	time.Sleep(time.Duration(half + 1 + rng.Int63n(int64(t)-half)))
}
