// Package online implements the paper's on-line disjunctive predicate
// control (Figure 3): maintain B = l1 ∨ … ∨ ln over a computation as it
// runs, without knowing it in advance.
//
// Theorem 3 shows the unrestricted problem is unsolvable, so the
// strategy assumes A1 (no process blocks while its local predicate is
// false) and A2 (local predicates hold in final states). One controller
// is the scapegoat — the holder of an "anti-token", a liability rather
// than a privilege: its process must stay true until another controller,
// currently true, agrees to take the role over. The scapegoat requests
// the handoff with req, the successor replies ack (possibly deferred
// until its process is true again), and only then may the old
// scapegoat's process go false. Specialized to critical sections this
// solves (n−1)-mutual exclusion with 2 control messages per handoff and
// handoff response time in [2T, 2T+Emax] (paper §6).
//
// The broadcast variant (paper §6, Evaluation) trades messages for
// latency: the scapegoat asks every controller at once and proceeds on
// the first ack. A subtlety the paper does not spell out: letting every
// responder keep the scapegoat role is safe in real time but NOT under
// the paper's own deposet semantics — with several independent scapegoat
// chains, a rotation of ack causalities admits a *consistent cut* in
// which every process is false (found by the property tests in this
// package). The implementation therefore completes a broadcast handoff
// with a confirm/cancel round: responders hold themselves true while
// tentative, exactly one receives confirm and inherits the anti-token,
// and the rest are released, preserving the single chain that makes
// every consistent cut satisfy B.
//
// Controllers run as daemon processes on the sim kernel, co-located with
// their application process (zero-delay local channel), exactly as the
// paper's "control system is a distinct distributed system" prescribes.
package online

import (
	"fmt"
	"math/rand"

	"predctl/internal/obs"
	"predctl/internal/sim"
)

// kind discriminates protocol payloads.
type kind int

const (
	kindMayFalse kind = iota // app → own controller: request to go false
	kindGrant                // controller → own app: permission
	kindNowTrue              // app → own controller: local predicate true again
	kindReq                  // controller → controller: take the scapegoat role
	kindAck                  // controller → controller: role taken (tentatively, for broadcast)
	kindConfirm              // controller → controller: broadcast winner keeps the role
	kindCancel               // controller → controller: broadcast loser is released
	kindApp                  // app → app payload (guard-wrapped)
)

// ctlEventNames labels controller-to-controller messages in the
// observability journal (obs.EvCtlPrefix + name).
var ctlEventNames = map[kind]string{
	kindReq:     obs.EvCtlPrefix + "req",
	kindAck:     obs.EvCtlPrefix + "ack",
	kindConfirm: obs.EvCtlPrefix + "confirm",
	kindCancel:  obs.EvCtlPrefix + "cancel",
}

type envelope struct {
	kind    kind
	gen     uint64 // anti-token generation (controller-to-controller kinds)
	payload any
}

// kindOf / ctlKind translate between the machine's transport-neutral
// MsgKind and this package's sim envelope kinds.
var kindOf = map[MsgKind]kind{
	MsgReq: kindReq, MsgAck: kindAck, MsgConfirm: kindConfirm, MsgCancel: kindCancel,
}

var ctlKind = map[kind]MsgKind{
	kindReq: MsgReq, kindAck: MsgAck, kindConfirm: MsgConfirm, kindCancel: MsgCancel,
}

// Stats aggregates a run's control overhead. All fields are written
// under the simulator's single-active-process discipline.
type Stats struct {
	CtlMessages int           // req + ack messages between controllers
	Handoffs    int           // scapegoat role transfers
	Requests    int           // RequestFalse calls
	Responses   sim.Latencies // per-request latency (0 for non-scapegoats)
}

// Config parameterizes a controlled system.
type Config struct {
	N         int      // application processes
	Delay     sim.Time // message delay T between distinct nodes
	Seed      int64
	Trace     bool
	Broadcast bool // use the broadcast variant
	Scapegoat int  // index of the initial scapegoat's process (init(i))
	MaxEvents int
	// InitFalse marks processes whose local predicate is false at start
	// (e.g. after_e before the event e has happened). Such a process
	// answers scapegoat requests only once it reports NowTrue, and it
	// cannot be the initial scapegoat. nil means all start true.
	InitFalse []bool
	// Journal, when non-nil, receives the kernel's structured events
	// plus protocol-level control events (ctl.req/ack/confirm/cancel,
	// scapegoat.init/acquire) consumed by the obs invariant checker.
	Journal *obs.Journal
	// Reg, when non-nil, receives the run's protocol metrics
	// (predctl_ctl_messages_total, predctl_handoffs_total,
	// predctl_response_vtime, …), each carrying MetricLabels.
	Reg *obs.Registry
	// MetricLabels dimensions every metric this run records (e.g.
	// {proto=scapegoat, n=8}), letting one registry hold a sweep.
	MetricLabels []obs.Label
}

// meters is the run's resolved metric set. All fields may be nil (no
// registry): the obs instruments are nil-safe, so recording sites need
// no guards.
type meters struct {
	ctl      *obs.Counter
	handoffs *obs.Counter
	cancels  *obs.Counter
	requests *obs.Counter
	resp     *obs.Histogram
	chain    *obs.Gauge
}

func newMeters(reg *obs.Registry, labels []obs.Label) meters {
	return meters{
		ctl:      reg.Counter("predctl_ctl_messages_total", labels...),
		handoffs: reg.Counter("predctl_handoffs_total", labels...),
		cancels:  reg.Counter("predctl_broadcast_cancels_total", labels...),
		requests: reg.Counter("predctl_requests_total", labels...),
		resp:     reg.Histogram("predctl_response_vtime", labels...),
		chain:    reg.Gauge("predctl_scapegoat_chain_length", labels...),
	}
}

// Run executes the application bodies under on-line control and returns
// the trace (apps are processes 0..N-1, controllers N..2N-1), statistics,
// and any simulation failure. Application processes must satisfy A1/A2:
// start true, end true, and never block while false.
func Run(cfg Config, apps []func(*Guard)) (*sim.Trace, *Stats, error) {
	if cfg.N < 2 {
		// Theorem 3 territory: with one process there is no one to hand
		// the anti-token to, so control degenerates to "never go false".
		return nil, nil, fmt.Errorf("online: need at least 2 processes, got %d", cfg.N)
	}
	if len(apps) != cfg.N {
		return nil, nil, fmt.Errorf("online: %d app bodies for %d processes", len(apps), cfg.N)
	}
	if cfg.Scapegoat < 0 || cfg.Scapegoat >= cfg.N {
		return nil, nil, fmt.Errorf("online: initial scapegoat %d out of range", cfg.Scapegoat)
	}
	if cfg.InitFalse != nil {
		if len(cfg.InitFalse) != cfg.N {
			return nil, nil, fmt.Errorf("online: InitFalse has %d entries for %d processes", len(cfg.InitFalse), cfg.N)
		}
		if cfg.InitFalse[cfg.Scapegoat] {
			return nil, nil, fmt.Errorf("online: initial scapegoat %d starts false", cfg.Scapegoat)
		}
	}
	n := cfg.N
	delay := func(from, to int, _ *rand.Rand) sim.Time {
		if from%n == to%n { // app ↔ its controller: local channel
			return 0
		}
		return cfg.Delay
	}
	stats := &Stats{}
	m := newMeters(cfg.Reg, cfg.MetricLabels)
	k := sim.New(sim.Config{
		Procs:     2 * n,
		Delay:     delay,
		Seed:      cfg.Seed,
		Trace:     cfg.Trace,
		MaxEvents: cfg.MaxEvents,
		Journal:   cfg.Journal,
	})
	bodies := make([]func(*sim.Proc), 2*n)
	for i := 0; i < n; i++ {
		i := i
		bodies[i] = func(p *sim.Proc) {
			g := &Guard{p: p, n: n, stats: stats, m: m}
			apps[i](g)
		}
		bodies[n+i] = func(p *sim.Proc) {
			c := &controller{
				p:         p,
				n:         n,
				scapegoat: i == cfg.Scapegoat,
				localTrue: cfg.InitFalse == nil || !cfg.InitFalse[i],
				broadcast: cfg.Broadcast,
				stats:     stats,
				m:         m,
			}
			if c.scapegoat {
				p.Journal().Append(obs.Event{
					Proc: p.ID(), Kind: obs.KindControl,
					Name: obs.EvScapegoatInit, A: int64(i),
				})
			}
			c.run()
		}
	}
	tr, err := k.Run(bodies...)
	m.chain.Set(int64(stats.Handoffs))
	return tr, stats, err
}

// Guard is the application-side handle: it talks to the co-located
// controller and relays application messages.
type Guard struct {
	p     *sim.Proc
	n     int
	stats *Stats
	m     meters
	inbox []appMsg // app messages received while waiting for a grant
}

type appMsg struct {
	from    int
	payload any
}

// P exposes the underlying simulated process (Work, Set, Now, Rand).
func (g *Guard) P() *sim.Proc { return g.p }

// ID returns the application process index.
func (g *Guard) ID() int { return g.p.ID() }

// N returns the number of application processes.
func (g *Guard) N() int { return g.n }

func (g *Guard) ctl() int { return g.p.ID() + g.n }

// RequestFalse blocks until the controller permits the local predicate
// to become false (A1 is the caller's obligation: do not block while
// false). It returns the latency of the request.
func (g *Guard) RequestFalse() sim.Time {
	start := g.p.Now()
	g.p.Send(g.ctl(), envelope{kind: kindMayFalse})
	for {
		from, raw := g.p.Recv()
		env := raw.(envelope)
		switch env.kind {
		case kindGrant:
			d := g.p.Now() - start
			g.stats.Requests++
			g.stats.Responses = append(g.stats.Responses, d)
			g.m.requests.Inc()
			g.m.resp.Observe(int64(d))
			return d
		case kindApp:
			g.inbox = append(g.inbox, appMsg{from, env.payload})
		default:
			panic(fmt.Sprintf("online: app received unexpected control message %v", env.kind))
		}
	}
}

// NowTrue notifies the controller that the local predicate holds again.
func (g *Guard) NowTrue() {
	g.p.Send(g.ctl(), envelope{kind: kindNowTrue})
}

// Send delivers an application payload to application process `to`.
func (g *Guard) Send(to int, payload any) {
	g.p.Send(to, envelope{kind: kindApp, payload: payload})
}

// Recv returns the next application message.
func (g *Guard) Recv() (from int, payload any) {
	if len(g.inbox) > 0 {
		m := g.inbox[0]
		g.inbox = g.inbox[1:]
		return m.from, m.payload
	}
	for {
		from, raw := g.p.Recv()
		env := raw.(envelope)
		if env.kind == kindApp {
			return from, env.payload
		}
		panic(fmt.Sprintf("online: app received unexpected control message %v", env.kind))
	}
}

// controller hosts the Figure 3 strategy — factored into the
// transport-neutral Machine (machine.go) — as a sim daemon process: it
// translates kernel messages into machine inputs and implements the
// machine's effects (Host) on the simulator.
type controller struct {
	p         *sim.Proc
	n         int
	scapegoat bool
	localTrue bool
	broadcast bool
	mach      *Machine
	stats     *Stats
	m         meters
}

// faultDelayGrant is a test-only fault injection point: when positive,
// a controller completing a handoff works this long before granting,
// pushing the response time past the paper's 2T+Emax bound so the obs
// invariant checker can be shown to trip. Never set outside tests.
var faultDelayGrant sim.Time

// SendCtl implements Host: deliver a protocol message to the controller
// co-located with application process `to`, counting and journaling it.
func (c *controller) SendCtl(to int, k MsgKind, gen uint64) {
	c.p.Send(c.n+to, envelope{kind: kindOf[k], gen: gen})
	c.stats.CtlMessages++
	c.m.ctl.Inc()
	if k == MsgCancel {
		c.m.cancels.Inc()
	}
	if j := c.p.Journal(); j != nil {
		j.Append(obs.Event{
			At: int64(c.p.Now()), Proc: c.p.ID(), Kind: obs.KindControl,
			Name: ctlEventNames[kindOf[k]], A: int64(to),
		})
	}
}

// Acquired implements Host: record this controller taking the anti-token
// from controller `from` (application-index space), for the chain
// invariant; C carries the anti-token generation so checkers can order
// acquisitions without trusting event order. (The handoff *counter*
// increments beside stats.Handoffs at the releasing side, so metrics
// mirror Stats exactly.)
func (c *controller) Acquired(from int, gen uint64) {
	if j := c.p.Journal(); j != nil {
		j.Append(obs.Event{
			At: int64(c.p.Now()), Proc: c.p.ID(), Kind: obs.KindControl,
			Name: obs.EvScapegoatAcquire, A: int64(c.p.ID() - c.n), B: int64(from),
			C: int64(gen),
		})
	}
}

// Released implements Host: the releasing side of a completed handoff.
func (c *controller) Released(to int) {
	c.stats.Handoffs++
	c.m.handoffs.Inc()
}

// Grant implements Host: permit the co-located application to go false.
func (c *controller) Grant() {
	if faultDelayGrant > 0 {
		c.p.Work(faultDelayGrant) // test-only: break the 2T+Emax bound
	}
	c.p.Send(c.p.ID()-c.n, envelope{kind: kindGrant})
}

// PickTarget implements Host: a deterministic random controller other
// than ourselves, from the process's seeded stream.
func (c *controller) PickTarget() int {
	app := c.p.ID() - c.n
	t := c.p.Rand().Intn(c.n - 1)
	if t >= app {
		t++
	}
	return t
}

func (c *controller) run() {
	c.p.Daemon()
	c.mach = NewMachine(c.p.ID()-c.n, c.n, c.scapegoat, c.localTrue, c.broadcast, c)
	for {
		from, raw := c.p.Recv()
		env := raw.(envelope)
		switch env.kind {
		case kindMayFalse:
			c.mach.OnMayFalse()
		case kindNowTrue:
			c.mach.OnNowTrue()
		case kindReq, kindAck, kindConfirm, kindCancel:
			c.mach.OnCtl(from-c.n, ctlKind[env.kind], env.gen)
		default:
			panic(fmt.Sprintf("online: controller received unexpected message %v", env.kind))
		}
	}
}
