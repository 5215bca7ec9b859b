// Package sim is a deterministic discrete-event simulator for
// asynchronous message-passing systems: the experimental substrate on
// which the on-line control strategies and the mutual-exclusion
// baselines run, standing in for the paper's (abstract) testbed.
//
// Processes are ordinary Go functions running in goroutines, written in
// direct style against a blocking API (Send/Recv/Work/Set); goroutines
// and channels map one-to-one onto the paper's process/message model.
// The kernel multiplexes them onto a virtual clock: exactly one process
// runs at a time, events are ordered by (time, sequence), message delays
// come from a seeded configuration, and identical configurations replay
// identical executions. Every run can be traced into a deposet, closing
// the loop with the off-line analyses.
//
// There is no kernel goroutine. The event loop (next) runs on whichever
// goroutine is giving up the processor: it pops events until one makes a
// process runnable, then either keeps running (the event was its own) or
// hands the processor straight to that process. Exactly one goroutine is
// ever between a receive on its resume channel and its next hand-off, and
// only that goroutine touches kernel state, so the channel operations are
// all the synchronization there is.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"

	"predctl/internal/deposet"
	"predctl/internal/obs"
	"predctl/internal/vclock"
)

// Time is virtual time, in abstract units.
type Time int64

// Latencies is a run's per-request latency record, with the two
// summaries the protocol tables print.
type Latencies []Time

// Max returns the largest latency, 0 if there are none.
func (l Latencies) Max() Time {
	if len(l) == 0 {
		return 0
	}
	return slices.Max(l)
}

// Mean returns the average latency, 0 if there are none.
func (l Latencies) Mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var t Time
	for _, r := range l {
		t += r
	}
	return float64(t) / float64(len(l))
}

// DelayFn computes the in-flight delay of a message. It must be
// deterministic given the rng.
type DelayFn func(from, to int, r *rand.Rand) Time

// ConstantDelay returns a DelayFn with a fixed delay T.
func ConstantDelay(t Time) DelayFn {
	return func(_, _ int, _ *rand.Rand) Time { return t }
}

// UniformDelay returns a DelayFn uniform over [lo, hi]. Bounds are
// validated up front: inverted bounds (hi < lo) panic immediately with a
// clear message instead of surfacing later as an opaque rand.Int63n
// failure on the first send, and hi == lo degenerates cleanly to
// ConstantDelay(lo) without consuming randomness.
func UniformDelay(lo, hi Time) DelayFn {
	if hi < lo {
		panic(fmt.Sprintf("sim: UniformDelay bounds inverted: lo=%d > hi=%d", lo, hi))
	}
	if hi == lo {
		return ConstantDelay(lo)
	}
	return func(_, _ int, r *rand.Rand) Time { return lo + Time(r.Int63n(int64(hi-lo+1))) }
}

// Config parameterizes a run.
type Config struct {
	Procs int
	Delay DelayFn // nil means constant 1
	Seed  int64
	Trace bool // record the computation as a deposet
	// FIFO forces per-channel FIFO delivery: messages between one ordered
	// pair of processes arrive in send order even when the delay function
	// says otherwise (the monitor's checker relies on it). Messages from
	// different senders still interleave freely.
	FIFO bool
	// MaxEvents caps kernel events as a runaway guard; 0 means 10^7.
	MaxEvents int
	// Journal, when non-nil, receives a structured observability event
	// for every send, receive, block/unblock, work step and variable
	// assignment (virtual time, process id, operands); see internal/obs
	// for the exporters. nil (the default) records nothing and adds no
	// allocations to the kernel paths.
	Journal *obs.Journal
}

// Stats summarizes a run.
type Stats struct {
	Messages int  // messages sent
	Events   int  // kernel events processed
	End      Time // virtual time when the last process finished
}

// Trace is the recorded computation of a run.
type Trace struct {
	D     *deposet.Deposet
	Times [][]Time // Times[p][k]: virtual time state (p,k) was entered
	Stats Stats
}

// ErrDeadlock is reported when no process can make progress.
type ErrDeadlock struct{ Blocked []int }

func (e ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock; processes %v blocked on receive", e.Blocked)
}

type procStatus int

const (
	ready procStatus = iota
	running
	blockedRecv
	done
)

type message struct {
	from    int
	payload any
	arrival Time
	seq     int
	handle  deposet.MsgHandle // trace handle
}

// event is a kernel heap entry: either a process wake-up or a message
// delivery.
type event struct {
	at   Time
	seq  int
	proc int      // wake this process, or deliver to it
	msg  *message // nil for wake-ups
}

// before orders events by (time, sequence). Sequence numbers are unique,
// so the order is total and any correct heap pops the same sequence.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// push adds ev to the kernel's binary min-heap.
func (k *Kernel) push(ev event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	k.events = h
}

// pop removes and returns the earliest event of a non-empty heap.
func (k *Kernel) pop() event {
	h := k.events
	top, last := h[0], h[len(h)-1]
	h[len(h)-1] = event{} // drop the message reference
	h = h[:len(h)-1]
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && h[child+1].before(h[child]) {
			child++
		}
		if !h[child].before(last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if len(h) > 0 {
		h[i] = last
	}
	k.events = h
	return top
}

// Kernel drives one simulation run.
type Kernel struct {
	cfg       Config
	rng       *rand.Rand
	events    []event // binary min-heap by (at, seq); see push and pop
	seq       int
	procs     []*Proc
	stats     Stats
	builder   *deposet.Builder
	times     [][]Time
	idle      chan struct{} // the processor handed back to Run: nothing is runnable
	overrun   bool          // next stopped at MaxEvents with events still queued
	failMu    sync.Mutex
	failure   error // first panic captured from a process; guarded by failMu
	cancelled bool  // tear-down: blocked processes unwind via cancelPanic
	lastArr   map[[2]int]Time
}

// setFailure records the first process failure; later ones are dropped.
// Panics are recovered on process goroutines, so two processes failing
// in the same run write concurrently — the mutex keeps the
// check-then-set atomic (a bare failure == nil test would race).
func (k *Kernel) setFailure(err error) {
	k.failMu.Lock()
	if k.failure == nil {
		k.failure = err
	}
	k.failMu.Unlock()
}

// takeFailure reads the recorded failure under the lock.
func (k *Kernel) takeFailure() error {
	k.failMu.Lock()
	defer k.failMu.Unlock()
	return k.failure
}

// cancelPanic unwinds a process goroutine that is still blocked when the
// run ends (deadlock or event-budget tear-down), so runs never leak
// goroutines.
type cancelPanic struct{}

// Proc is the handle a simulated process uses to interact with the world.
type Proc struct {
	k      *Kernel
	id     int
	now    Time
	status procStatus
	// avail[head:] are the messages delivered but not yet taken by the
	// application, in arrival order; the queue rewinds when it drains.
	avail  []*message
	head   int
	resume chan struct{} // the processor handed to this process; see handOff
	rng    *rand.Rand
	daemon bool
}

// Daemon marks the process as a background service: the run completes
// when every non-daemon process has finished, and still-blocked daemons
// are then unwound instead of being reported as deadlocked.
func (p *Proc) Daemon() { p.daemon = true }

// New creates a kernel for cfg.
func New(cfg Config) *Kernel {
	if cfg.Procs < 1 {
		panic("sim: need at least one process")
	}
	if cfg.Delay == nil {
		cfg.Delay = ConstantDelay(1)
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 1e7
	}
	k := &Kernel{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		idle: make(chan struct{}, 1),
	}
	if cfg.Trace {
		k.builder = deposet.NewBuilder(cfg.Procs)
		k.times = make([][]Time, cfg.Procs)
		for p := range k.times {
			k.times[p] = []Time{0}
		}
	}
	for i := 0; i < cfg.Procs; i++ {
		k.procs = append(k.procs, &Proc{
			k:      k,
			id:     i,
			resume: make(chan struct{}, 1),
			rng:    rand.New(rand.NewSource(procSeed(cfg.Seed, i))),
		})
	}
	return k
}

// procSeed derives process i's RNG seed from the run seed by a
// splitmix64 step over (Seed, i). The previous scheme — Seed XOR a
// multiple of a 32-bit constant — barely mixed: nearby run seeds moved
// only low bits, so seeds s and s^1 gave several processes correlated
// (sometimes identical) streams. Splitmix64's finalizer avalanches every
// input bit across the whole output, so distinct (seed, proc) pairs get
// decorrelated streams.
func procSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15 // golden-ratio increment
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Reserve sizes a tracing kernel for events[p] traced events on each
// process p, sends of them sends in all, so a run of known length — a
// replay — grows neither the trace builder nor the time table. It is a
// capacity hint: it changes no behaviour, and does nothing without
// Config.Trace.
func (k *Kernel) Reserve(events []int, sends int) {
	if k.builder == nil {
		return
	}
	k.builder.Reserve(events, sends)
	for p, n := range events {
		k.times[p] = slices.Grow(k.times[p], n)
	}
}

// Run executes the process bodies to completion and returns the trace
// (nil unless Config.Trace) and statistics. It fails on deadlock, on a
// process panic, or when MaxEvents is exceeded; on every path, each
// process goroutine has exited before Run returns.
func (k *Kernel) Run(bodies ...func(*Proc)) (*Trace, error) {
	if len(bodies) != k.cfg.Procs {
		return nil, fmt.Errorf("sim: %d process bodies for %d processes", len(bodies), k.cfg.Procs)
	}
	for i, body := range bodies {
		p := k.procs[i]
		body := body
		k.push(event{at: 0, seq: k.nextSeq(), proc: i})
		go func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isCancel := r.(cancelPanic); !isCancel {
						k.setFailure(fmt.Errorf("sim: process %d panicked: %v\n%s", p.id, r, debug.Stack()))
					}
				}
				p.status = done
				if k.cancelled {
					k.handOff(nil) // unwound: back to Run's tear-down
					return
				}
				k.handOff(k.next())
			}()
			<-p.resume // the first wake-up, or the tear-down of a run that never got to it
			if !k.cancelled {
				body(p)
			}
		}()
	}
	if p := k.next(); p != nil {
		k.handOff(p)
		<-k.idle
	}
	// Nothing is runnable: every process finished, or the rest are
	// blocked for good, or the event budget is spent. Unwind whoever is
	// left, one at a time.
	var blocked []int
	k.cancelled = true
	for _, p := range k.procs {
		if p.status != done {
			if !p.daemon {
				blocked = append(blocked, p.id)
			}
			k.handOff(p) // unwinds via cancelPanic
			<-k.idle
		}
	}
	if k.overrun {
		return nil, fmt.Errorf("sim: exceeded %d events (runaway?)", k.cfg.MaxEvents)
	}
	if err := k.takeFailure(); err != nil {
		return nil, err
	}
	if len(blocked) > 0 {
		return nil, ErrDeadlock{Blocked: blocked}
	}
	if k.builder == nil {
		return &Trace{Stats: k.stats}, nil
	}
	d, err := k.builder.Build()
	if err != nil {
		return nil, fmt.Errorf("sim: trace invalid: %w", err)
	}
	return &Trace{D: d, Times: k.times, Stats: k.stats}, nil
}

// next is the kernel's event loop. It pops events in (time, sequence)
// order — delivering messages, skipping finished processes — until one
// makes a process runnable, and returns that process with its clock
// advanced. It returns nil when no event is left or the event budget is
// spent (overrun). The caller must hold the processor and must have
// recorded its own status first: its own pending wake-up may be the very
// next event.
func (k *Kernel) next() *Proc {
	for len(k.events) > 0 {
		if k.stats.Events >= k.cfg.MaxEvents {
			k.overrun = true
			return nil
		}
		ev := k.pop()
		k.stats.Events++
		p := k.procs[ev.proc]
		if p.status == done {
			continue // a message to a finished receiver stays in flight
		}
		if ev.msg != nil {
			p.avail = append(p.avail, ev.msg)
			if p.status != blockedRecv {
				continue
			}
		}
		if ev.at > p.now {
			p.now = ev.at
		}
		if p.now > k.stats.End {
			k.stats.End = p.now
		}
		p.status = running
		return p
	}
	return nil
}

// handOff passes the processor to p, or back to Run when p is nil. The
// caller touches no kernel state afterwards until it is resumed. Both
// channels hold one token, so the send never waits for the receiver to
// park: at most one hand-off to any goroutine is outstanding.
func (k *Kernel) handOff(p *Proc) {
	if p == nil {
		k.idle <- struct{}{}
		return
	}
	p.resume <- struct{}{}
}

func (k *Kernel) nextSeq() int { k.seq++; return k.seq }

// yield gives up the processor until an event makes the process
// runnable again. It runs the kernel loop itself: when the next runnable
// process is the caller (a Work wake-up, a message to itself) it returns
// without a goroutine switch.
func (p *Proc) yield(status procStatus) {
	k := p.k
	if k.cancelled {
		panic(cancelPanic{}) // a deferred call of an unwinding body blocked again
	}
	p.status = status
	q := k.next()
	if q == p {
		return
	}
	k.handOff(q)
	<-p.resume
	if k.cancelled {
		panic(cancelPanic{})
	}
}

// ID returns the process index; N the number of processes.
func (p *Proc) ID() int { return p.id }
func (p *Proc) N() int  { return p.k.cfg.Procs }

// Now returns the process's current virtual time.
func (p *Proc) Now() Time { return p.now }

// Rand is a per-process deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Journal returns the run's observability journal (nil when tracing is
// off). Protocol layers stacked on the simulator (internal/online,
// internal/monitor) use it to record protocol-level events alongside
// the kernel's; *obs.Journal methods are nil-safe, so the result can be
// used unconditionally.
func (p *Proc) Journal() *obs.Journal { return p.k.cfg.Journal }

// Send dispatches payload to process `to`; it does not block. The
// message arrives after the configured delay.
func (p *Proc) Send(to int, payload any) {
	if to < 0 || to >= p.k.cfg.Procs {
		panic(fmt.Sprintf("sim: send to unknown process %d", to))
	}
	m := &message{
		from:    p.id,
		payload: payload,
		arrival: p.now + p.k.cfg.Delay(p.id, to, p.k.rng),
		seq:     p.k.nextSeq(),
	}
	if p.k.cfg.FIFO {
		if p.k.lastArr == nil {
			p.k.lastArr = map[[2]int]Time{}
		}
		ch := [2]int{p.id, to}
		if last, ok := p.k.lastArr[ch]; ok && last > m.arrival {
			m.arrival = last // hold back: per-channel FIFO (seq breaks the tie)
		}
		p.k.lastArr[ch] = m.arrival
	}
	if b := p.k.builder; b != nil {
		_, h := b.Send(p.id)
		m.handle = h
		p.k.times[p.id] = append(p.k.times[p.id], p.now)
	}
	if j := p.k.cfg.Journal; j != nil {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindSend, A: int64(to), B: int64(m.seq)})
	}
	p.k.stats.Messages++
	p.k.push(event{at: m.arrival, seq: m.seq, proc: to, msg: m})
}

// Recv blocks until a message is available and returns its sender and
// payload, in arrival order.
func (p *Proc) Recv() (from int, payload any) {
	j := p.k.cfg.Journal
	blocked := false
	for p.head == len(p.avail) {
		if j != nil && !blocked {
			blocked = true
			j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindBlock, Name: "recv"})
		}
		p.yield(blockedRecv)
	}
	if blocked {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindUnblock})
	}
	m := p.avail[p.head]
	p.avail[p.head] = nil
	p.head++
	if p.head == len(p.avail) {
		p.avail, p.head = p.avail[:0], 0
	}
	if b := p.k.builder; b != nil {
		b.Recv(p.id, m.handle)
		p.k.times[p.id] = append(p.k.times[p.id], p.now)
	}
	if j != nil {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindRecv, A: int64(m.from), B: int64(m.seq)})
	}
	return m.from, m.payload
}

// TryRecv returns a message if one has already arrived.
func (p *Proc) TryRecv() (from int, payload any, ok bool) {
	if p.head == len(p.avail) {
		return 0, nil, false
	}
	from, payload = p.Recv()
	return from, payload, true
}

// Work advances the process's local clock by d, modeling computation.
func (p *Proc) Work(d Time) {
	if d < 0 {
		panic("sim: negative work duration")
	}
	if j := p.k.cfg.Journal; j != nil {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindWork, B: int64(d)})
	}
	p.k.push(event{at: p.now + d, seq: p.k.nextSeq(), proc: p.id})
	p.yield(ready)
}

// Tick records a local event in the trace without changing variables
// (a no-op without tracing).
func (p *Proc) Tick() {
	if b := p.k.builder; b != nil {
		b.Step(p.id)
		p.k.times[p.id] = append(p.k.times[p.id], p.now)
	}
}

// Let assigns a state variable at the process's *current* traced state
// without recording an event; use Set for the common "event that changes
// a variable" case. Assignments are journalled as predicate-flip events
// (KindSet) even when deposet tracing is off.
func (p *Proc) Let(name string, v int) {
	if b := p.k.builder; b != nil {
		b.Let(p.id, name, v)
	}
	if j := p.k.cfg.Journal; j != nil {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindSet, Name: name, A: int64(v)})
	}
}

// Set records a state-variable assignment as a local event in the trace
// (and is a no-op without tracing).
func (p *Proc) Set(name string, v int) {
	p.Tick()
	p.Let(name, v)
}

// Init sets a variable's value at the initial state ⊥; call before any
// other operation.
func (p *Proc) Init(name string, v int) {
	if b := p.k.builder; b != nil {
		b.Let(p.id, name, v)
	}
	if j := p.k.cfg.Journal; j != nil {
		j.Append(obs.Event{At: int64(p.now), Proc: p.id, Kind: obs.KindSet, Name: name, A: int64(v)})
	}
}

// StateIndex returns the index of the process's current traced state
// (0 before any event). It requires tracing; without it, -1 is returned.
func (p *Proc) StateIndex() int {
	if p.k.times == nil {
		return -1
	}
	return len(p.k.times[p.id]) - 1
}

// Deps returns the clock row of the process's current traced state
// (deposet.Builder.Deps; its own component may lag, the state's index
// is StateIndex), shared with the trace: do not modify it. Nil untraced.
func (p *Proc) Deps() vclock.VC {
	if p.k.builder == nil {
		return nil
	}
	return p.k.builder.Deps(deposet.StateID{P: p.id, K: p.StateIndex()})
}
