// Package monitor provides on-line detection of weak conjunctive
// predicates — possibly(q1 ∧ … ∧ qn) — while the system runs: the
// Garg–Waldecker detection algorithm ([4] in the paper) in its on-line,
// checker-process form. Together with package online it completes the
// paper's active-debugging loop for live systems: the monitor *detects*
// the bad combination of local conditions, on-line control *prevents*
// it.
//
// Application processes carry runtime vector clocks (Fidge–Mattern,
// maintained by the Probe wrapper and piggybacked on every message) and
// report each maximal interval in which their local predicate holds to a
// checker process, as a pair of clocks (interval start, interval end).
// The checker advances one candidate interval per process: if interval
// Iᵢ ends causally before Iⱼ begins (vc(loⱼ)[i] ≥ vc(hiᵢ)[i]), the two
// can never be simultaneous, and — since later intervals of j start even
// later — Iᵢ can be discarded. When the current intervals are pairwise
// overlappable, the weak-conjunctive-predicate theorem guarantees a
// consistent global state where every qᵢ holds, and the checker reports
// it.
package monitor

import (
	"fmt"

	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/sim"
	"predctl/internal/vclock"
)

// payloadKind discriminates probe-layer payloads.
type payloadKind int

const (
	kindApp payloadKind = iota
	kindCandidate
	kindDone
)

type envelope struct {
	kind  payloadKind
	vc    vclock.VC // sender's clock at send time (piggybacked)
	inner any
	cand  livedetect.Interval // one maximal true-interval of a local predicate
}

// Detection is the checker's verdict.
type Detection struct {
	Found bool
	// Intervals holds the pairwise-overlappable witness intervals (per
	// process) when Found; LoIdx/HiIdx are traced state indices usable
	// against the run's deposet.
	Intervals []livedetect.Interval
}

// Probe wraps an application process with a runtime vector clock and
// local-predicate reporting. All messaging must go through the probe.
type Probe struct {
	p       *sim.Proc
	n       int
	checker int
	vc      vclock.VC

	inTrue  bool
	lo      vclock.VC
	loIdx   int
	emitted int // intervals reported so far
}

// tick advances the local clock component (one tick per probe event).
func (pr *Probe) tick() { pr.vc[pr.p.ID()]++ }

// P exposes the wrapped process.
func (pr *Probe) P() *sim.Proc { return pr.p }

// N returns the number of application processes (excluding the checker).
func (pr *Probe) N() int { return pr.n }

// Clock returns a copy of the probe's current vector clock.
func (pr *Probe) Clock() vclock.VC { return pr.vc.Clone() }

// Send delivers an application payload, stamping the clock.
func (pr *Probe) Send(to int, v any) {
	pr.tick()
	pr.p.Send(to, envelope{kind: kindApp, vc: pr.vc.Clone(), inner: v})
}

// Recv returns the next application message, merging the sender's clock.
func (pr *Probe) Recv() (from int, v any) {
	f, raw := pr.p.Recv()
	env := raw.(envelope)
	if env.kind != kindApp {
		panic(fmt.Sprintf("monitor: app received %v", env.kind))
	}
	pr.vc.Merge(env.vc)
	pr.tick()
	return f, env.inner
}

// TryRecv is the non-blocking variant of Recv.
func (pr *Probe) TryRecv() (from int, v any, ok bool) {
	f, raw, got := pr.p.TryRecv()
	if !got {
		return 0, nil, false
	}
	env := raw.(envelope)
	if env.kind != kindApp {
		panic(fmt.Sprintf("monitor: app received %v", env.kind))
	}
	pr.vc.Merge(env.vc)
	pr.tick()
	return f, env.inner, true
}

// Step records a local event on the clock.
func (pr *Probe) Step() { pr.tick() }

// SetLocal reports the current truth of the process's local predicate.
// Call it immediately after the (traced) event that changed the truth:
// on a rising edge the current state is the interval's first state; on a
// falling edge the previous state was its last. Each transition is a
// local event on the clock, which keeps interval endpoints causally
// distinguishable even on otherwise silent processes.
func (pr *Probe) SetLocal(truth bool) {
	switch {
	case truth && !pr.inTrue:
		pr.tick()
		pr.inTrue = true
		pr.lo = pr.vc.Clone()
		pr.loIdx = pr.p.StateIndex()
	case !truth && pr.inTrue:
		pr.tick()
		pr.inTrue = false
		pr.emit(pr.p.StateIndex() - 1)
	}
}

// emit sends the just-closed interval to the checker. hiIdx is the
// traced index of the interval's last state; an untraced run has no
// state indices, and the interval's ordinal stands in for both ends so
// the checker's replay guard (HiIdx only grows) still sees progress.
func (pr *Probe) emit(hiIdx int) {
	loIdx := pr.loIdx
	if loIdx < 0 {
		loIdx, hiIdx = pr.emitted, pr.emitted
	}
	pr.emitted++
	hi := pr.vc.Clone()
	if j := pr.p.Journal(); j != nil {
		// Candidate intervals are the monitor's protocol events; the
		// journal entry carries the interval-end vector clock, the one
		// place runtime clocks are available to the trace.
		j.Append(obs.Event{
			At: int64(pr.p.Now()), Proc: pr.p.ID(), Kind: obs.KindControl,
			Name: "monitor.candidate", A: int64(loIdx), B: int64(hiIdx),
			VC: []int32(hi),
		})
	}
	pr.p.Send(pr.checker, envelope{kind: kindCandidate, cand: livedetect.Interval{
		Proc: pr.p.ID(), LoIdx: int64(loIdx), HiIdx: int64(hiIdx), Lo: pr.lo, Hi: hi,
	}})
}

// Close flushes a still-open interval and tells the checker this process
// is finished. Call it exactly once, when the application body ends.
func (pr *Probe) Close() {
	if pr.inTrue {
		pr.inTrue = false
		pr.emit(pr.p.StateIndex())
	}
	pr.p.Send(pr.checker, envelope{kind: kindDone})
}

// Run executes the application bodies (processes 0..n-1) with a checker
// at index n monitoring possibly(∧ local predicates). The returned
// Detection is valid after the run completes; cfg.Trace also yields the
// deposet (apps plus checker) for off-line cross-checking.
func Run(cfg sim.Config, apps []func(*Probe)) (*sim.Trace, *Detection, error) {
	n := len(apps)
	if cfg.Procs != 0 && cfg.Procs != n+1 {
		return nil, nil, fmt.Errorf("monitor: Procs must be unset or %d", n+1)
	}
	cfg.Procs = n + 1
	// The checker relies on a process's done notice not overtaking its
	// candidates; FIFO channels give exactly that.
	cfg.FIFO = true
	chk := livedetect.New(n)
	k := sim.New(cfg)
	bodies := make([]func(*sim.Proc), n+1)
	for i := 0; i < n; i++ {
		i := i
		bodies[i] = func(p *sim.Proc) {
			pr := &Probe{p: p, n: n, checker: n, vc: vclock.New(n)}
			for q := range pr.vc {
				pr.vc[q] = 0 // Fidge–Mattern convention: own component counts events
			}
			apps[i](pr)
			pr.Close()
		}
	}
	bodies[n] = func(p *sim.Proc) { runChecker(p, n, chk) }
	tr, err := k.Run(bodies...)
	det := &Detection{Intervals: chk.Witness()}
	det.Found = det.Intervals != nil
	return tr, det, err
}

// runChecker is the centralized Garg–Waldecker checker: the sim
// process that feeds livedetect's elimination loop, the same one the
// cluster coordinator feeds from the wire.
func runChecker(p *sim.Proc, n int, chk *livedetect.Checker) {
	found := false
	for done := 0; done < n && !found; {
		_, raw := p.Recv()
		env := raw.(envelope)
		switch env.kind {
		case kindCandidate:
			found = chk.Offer(0, env.cand)
		case kindDone:
			done++
		default:
			panic(fmt.Sprintf("monitor: checker received %v", env.kind))
		}
	}
	// Remaining messages are drained by the kernel; the checker's verdict
	// is final once every process reported done or a witness was found.
	p.Daemon()
	for {
		p.Recv()
	}
}
