// Package kmutex provides the (n−1)-mutual-exclusion comparison of the
// paper's §6 Evaluation. The on-line scapegoat strategy, specialized to
// critical sections (false-intervals = CS occupancy), solves k-mutual
// exclusion for k = n−1 with a single *anti-token*; this package supplies
// the baselines it is compared against — a centralized coordinator and a
// distributed k-token algorithm — plus an uncontrolled run (showing the
// violation control prevents), all over the same workload on the same
// simulator.
package kmutex

import (
	"fmt"

	"predctl/internal/obs"
	"predctl/internal/online"
	"predctl/internal/sim"
)

// Workload describes the shared critical-section benchmark: each of N
// processes alternates thinking (uniform in [1, ThinkMax]) and a critical
// section of CS time units, Rounds times. Message delay between distinct
// nodes is Delay (the paper's T; CS is the paper's Emax).
type Workload struct {
	N        int
	K        int // concurrent CS bound; 0 means N-1
	Rounds   int
	ThinkMax sim.Time
	CS       sim.Time
	Delay    sim.Time
	Seed     int64
	Trace    bool
	// Journal, when non-nil, records the run's structured event trace
	// (kernel + protocol events; see internal/obs).
	Journal *obs.Journal
	// Reg, when non-nil, receives the run's protocol metrics. Every
	// run records into a registry — a private one when Reg is nil —
	// and the returned Metrics is a *view over that registry*, so the
	// numbers a caller dumps in Prometheus format and the numbers the
	// experiment tables print cannot drift.
	Reg *obs.Registry
	// MetricLabels dimensions the metrics (a proto=... label is added
	// by each runner).
	MetricLabels []obs.Label
}

// meters resolves the workload's metric instruments for one protocol.
type meters struct {
	reg     *obs.Registry
	labels  []obs.Label
	ctl     *obs.Counter
	entries *obs.Counter
	resp    *obs.Histogram
	end     *obs.Gauge
}

func (w Workload) meters(proto string) meters {
	reg := w.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	labels := append([]obs.Label{obs.L("proto", proto)}, w.MetricLabels...)
	return meters{
		reg:     reg,
		labels:  labels,
		ctl:     reg.Counter("predctl_ctl_messages_total", labels...),
		entries: reg.Counter("predctl_cs_entries_total", labels...),
		resp:    reg.Histogram("predctl_response_vtime", labels...),
		end:     reg.Gauge("predctl_run_end_vtime", labels...),
	}
}

// metrics packages the registry's view as the legacy Metrics struct.
func (m meters) metrics() *Metrics {
	vals := m.resp.Values()
	responses := make([]sim.Time, len(vals))
	for i, v := range vals {
		responses[i] = sim.Time(v)
	}
	return &Metrics{
		CtlMessages: int(m.ctl.Value()),
		Entries:     int(m.entries.Value()),
		Responses:   responses,
		End:         sim.Time(m.end.Value()),
	}
}

func (w Workload) k() int {
	if w.K == 0 {
		return w.N - 1
	}
	return w.K
}

// Metrics aggregates protocol overhead for one run.
type Metrics struct {
	CtlMessages int           // protocol messages (excludes zero-delay local hops)
	Entries     int           // critical-section entries
	Responses   sim.Latencies // request → entry latency per entry
	End         sim.Time      // completion time of the run
}

// MessagesPerEntry is the paper's headline overhead metric.
func (m *Metrics) MessagesPerEntry() float64 {
	if m.Entries == 0 {
		return 0
	}
	return float64(m.CtlMessages) / float64(m.Entries)
}

func think(p *sim.Proc, w Workload) {
	p.Work(1 + sim.Time(p.Rand().Int63n(int64(w.ThinkMax))))
}

// RunScapegoat drives the workload through the on-line predicate-control
// strategy with B = ∨ᵢ ¬csᵢ — i.e. (n−1)-mutual exclusion via the
// anti-token (paper Figure 3; broadcast variant per §6).
func RunScapegoat(w Workload, broadcast bool) (*sim.Trace, *Metrics, error) {
	if w.k() != w.N-1 {
		return nil, nil, fmt.Errorf("kmutex: the anti-token solves only k = n-1 (n=%d, k=%d)", w.N, w.k())
	}
	apps := make([]func(*online.Guard), w.N)
	proto := "scapegoat"
	if broadcast {
		proto = "scapegoat-broadcast"
	}
	// The online layer owns the control-message counter and the
	// response histogram (the Guard observes each grant latency); the
	// workload records only what the protocol cannot see — CS entries.
	// Sharing one registry keyspace means the returned Metrics, the
	// Prometheus dump, and online.Stats are views of the same counts.
	m := w.meters(proto)
	for i := range apps {
		apps[i] = func(g *online.Guard) {
			p := g.P()
			p.Init("cs", 0)
			for r := 0; r < w.Rounds; r++ {
				think(p, w)
				g.RequestFalse()
				m.entries.Inc()
				p.Set("cs", 1)
				p.Work(w.CS)
				p.Set("cs", 0)
				g.NowTrue()
			}
		}
	}
	tr, _, err := online.Run(online.Config{
		N:            w.N,
		Delay:        w.Delay,
		Seed:         w.Seed,
		Trace:        w.Trace,
		Broadcast:    broadcast,
		Journal:      w.Journal,
		Reg:          m.reg,
		MetricLabels: m.labels,
	}, apps)
	if err != nil {
		return nil, nil, err
	}
	m.end.Set(int64(tr.Stats.End))
	return tr, m.metrics(), nil
}

// RunUncontrolled runs the workload with no synchronization at all: the
// baseline in which the bug "all processes in their critical sections"
// is possible. Used to show what control removes.
func RunUncontrolled(w Workload) (*sim.Trace, *Metrics, error) {
	m := w.meters("uncontrolled")
	k := sim.New(sim.Config{Procs: w.N, Delay: sim.ConstantDelay(w.Delay), Seed: w.Seed, Trace: w.Trace, Journal: w.Journal})
	bodies := make([]func(*sim.Proc), w.N)
	for i := range bodies {
		bodies[i] = func(p *sim.Proc) {
			p.Init("cs", 0)
			for r := 0; r < w.Rounds; r++ {
				think(p, w)
				m.entries.Inc()
				m.resp.Observe(0)
				p.Set("cs", 1)
				p.Work(w.CS)
				p.Set("cs", 0)
			}
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		return nil, nil, err
	}
	m.end.Set(int64(tr.Stats.End))
	return tr, m.metrics(), nil
}

// --- Centralized coordinator ---

type centralKind int

const (
	centralReq centralKind = iota
	centralGrant
	centralRelease
)

type centralMsg struct{ kind centralKind }

// RunCentral runs a coordinator-based k-mutex: every entry costs a
// request, a grant, and a release (3 messages, ≥ 2T response), the
// textbook centralized algorithm the paper's distributed strategy is
// contrasted with.
func RunCentral(w Workload) (*sim.Trace, *Metrics, error) {
	m := w.meters("central")
	coord := w.N
	k := sim.New(sim.Config{Procs: w.N + 1, Delay: sim.ConstantDelay(w.Delay), Seed: w.Seed, Trace: w.Trace, Journal: w.Journal})
	bodies := make([]func(*sim.Proc), w.N+1)
	for i := 0; i < w.N; i++ {
		bodies[i] = func(p *sim.Proc) {
			p.Init("cs", 0)
			for r := 0; r < w.Rounds; r++ {
				think(p, w)
				start := p.Now()
				p.Send(coord, centralMsg{centralReq})
				m.ctl.Inc()
				for {
					from, raw := p.Recv()
					if from == coord && raw.(centralMsg).kind == centralGrant {
						break
					}
					panic("kmutex: unexpected message at client")
				}
				m.resp.Observe(int64(p.Now() - start))
				m.entries.Inc()
				p.Set("cs", 1)
				p.Work(w.CS)
				p.Set("cs", 0)
				p.Send(coord, centralMsg{centralRelease})
				m.ctl.Inc()
			}
		}
	}
	bodies[coord] = func(p *sim.Proc) {
		p.Daemon()
		active := 0
		var queue []int
		for {
			from, raw := p.Recv()
			switch raw.(centralMsg).kind {
			case centralReq:
				if active < w.k() {
					active++
					p.Send(from, centralMsg{centralGrant})
					m.ctl.Inc()
				} else {
					queue = append(queue, from)
				}
			case centralRelease:
				if len(queue) > 0 {
					next := queue[0]
					queue = queue[1:]
					p.Send(next, centralMsg{centralGrant})
					m.ctl.Inc()
				} else {
					active--
				}
			}
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		return nil, nil, err
	}
	m.end.Set(int64(tr.Stats.End))
	return tr, m.metrics(), nil
}

// --- Distributed k-token algorithm ---

type tokenKind int

const (
	tokenReq tokenKind = iota
	tokenGrant
)

type tokenMsg struct{ kind tokenKind }

// RunToken runs a distributed k-token k-mutex: k tokens circulate; a
// process holding a token enters freely, a token-less process broadcasts
// a request and waits for any holder with a spare token to pass one on
// (the class of algorithms the paper's anti-token is contrasted with —
// k privileges instead of n−k liabilities).
func RunToken(w Workload) (*sim.Trace, *Metrics, error) {
	m := w.meters("token")
	k := sim.New(sim.Config{Procs: w.N, Delay: sim.ConstantDelay(w.Delay), Seed: w.Seed, Trace: w.Trace, Journal: w.Journal})
	bodies := make([]func(*sim.Proc), w.N)
	for i := 0; i < w.N; i++ {
		i := i
		bodies[i] = func(p *sim.Proc) {
			tokens := 0
			if i < w.k() {
				tokens = 1
			}
			inCS := false
			var queue []int // deferred requests
			grantSpare := func() {
				for len(queue) > 0 && tokens > 0 && !(inCS && tokens == 1) {
					to := queue[0]
					queue = queue[1:]
					tokens--
					p.Send(to, tokenMsg{tokenGrant})
					m.ctl.Inc()
				}
			}
			handle := func(from int, raw any) {
				switch raw.(tokenMsg).kind {
				case tokenReq:
					queue = append(queue, from)
					grantSpare()
				case tokenGrant:
					tokens++
				}
			}
			drain := func() {
				for {
					from, raw, ok := p.TryRecv()
					if !ok {
						return
					}
					handle(from, raw)
				}
			}
			p.Init("cs", 0)
			for r := 0; r < w.Rounds; r++ {
				think(p, w)
				drain()
				start := p.Now()
				if tokens == 0 {
					for q := 0; q < w.N; q++ {
						if q != i {
							p.Send(q, tokenMsg{tokenReq})
							m.ctl.Inc()
						}
					}
					for tokens == 0 {
						handle(p.Recv())
					}
				}
				m.resp.Observe(int64(p.Now() - start))
				m.entries.Inc()
				inCS = true
				p.Set("cs", 1)
				p.Work(w.CS)
				p.Set("cs", 0)
				inCS = false
				drain()
				grantSpare()
			}
			// Keep serving token requests as a daemon so late requesters
			// are never starved by an early finisher hoarding tokens.
			p.Daemon()
			for {
				handle(p.Recv())
				grantSpare()
			}
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		return nil, nil, err
	}
	m.end.Set(int64(tr.Stats.End))
	return tr, m.metrics(), nil
}
