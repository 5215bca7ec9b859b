// Package monitor detects weak conjunctive predicates on-line —
// possibly(q1 ∧ … ∧ qn) while the simulated system runs — with the
// Garg–Waldecker checker process ([4] in the paper): the detect half of
// the paper's active-debugging loop, whose control half is package
// online. Each process reports the maximal intervals in which its local
// predicate holds, with the computation's own clocks: the clock row of
// an interval's first traced state, as the cluster root's derived
// intervals carry. The checker feeds them to livedetect.Checker, which
// drops any interval that wholly precedes another process's and
// reports the first fronts that are pairwise concurrent: by the
// weak-conjunctive-predicate theorem, a consistent global state where
// every qᵢ holds.
package monitor

import (
	"fmt"

	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/sim"
)

// done is a process's last message to the checker.
type done struct{}

// Detection is the checker's verdict.
type Detection struct {
	Found bool
	// Intervals holds the pairwise-overlappable witness intervals (per
	// process) when Found; LoIdx/HiIdx are state indices of the run's
	// deposet.
	Intervals []livedetect.Interval
}

// Probe is an application process's handle: the process itself, and
// the reporting of its local predicate to the checker.
type Probe struct {
	p *sim.Proc
	n int // application processes; the checker is process n

	inTrue bool
	lo     []int32 // the clock row of the open interval's first state
	loIdx  int
}

// P exposes the process.
func (pr *Probe) P() *sim.Proc { return pr.p }

// N returns the number of application processes (excluding the checker).
func (pr *Probe) N() int { return pr.n }

// SetLocal reports the current truth of the process's local predicate.
// Call it immediately after the (traced) event that changed the truth:
// on a rising edge the current state is the interval's first state; on a
// falling edge the previous state was its last.
func (pr *Probe) SetLocal(truth bool) {
	switch {
	case truth && !pr.inTrue:
		pr.inTrue, pr.lo, pr.loIdx = true, pr.p.Deps(), pr.p.StateIndex()
	case !truth && pr.inTrue:
		pr.inTrue = false
		pr.emit(pr.p.StateIndex() - 1)
	}
}

// emit sends the just-closed interval, whose last state is hiIdx, to the
// checker.
func (pr *Probe) emit(hiIdx int) {
	pr.p.Journal().Append(obs.Event{
		At: int64(pr.p.Now()), Proc: pr.p.ID(), Kind: obs.KindControl,
		Name: obs.EvCandidate, A: int64(pr.loIdx), B: int64(hiIdx),
	})
	pr.p.Send(pr.n, livedetect.Interval{Proc: pr.p.ID(), LoIdx: int64(pr.loIdx), HiIdx: int64(hiIdx), Lo: pr.lo})
}

// close flushes a still-open interval and tells the checker this process
// is finished.
func (pr *Probe) close() {
	if pr.inTrue {
		pr.inTrue = false
		pr.emit(pr.p.StateIndex())
	}
	pr.p.Send(pr.n, done{})
}

// Run executes the application bodies (processes 0..n-1) with a checker
// at index n monitoring possibly(∧ local predicates). The returned
// Detection is valid after the run completes. The run is always traced
// — the intervals' clocks are the trace's — and the trace's deposet
// (apps plus checker) serves off-line cross-checking.
func Run(cfg sim.Config, apps []func(*Probe)) (*sim.Trace, *Detection, error) {
	n := len(apps)
	if cfg.Procs != 0 && cfg.Procs != n+1 {
		return nil, nil, fmt.Errorf("monitor: Procs must be unset or %d", n+1)
	}
	cfg.Procs = n + 1
	cfg.Trace = true
	// The checker relies on a process's done notice not overtaking its
	// candidates; FIFO channels give exactly that.
	cfg.FIFO = true
	chk := livedetect.New(n)
	bodies := make([]func(*sim.Proc), n+1)
	for i, app := range apps {
		bodies[i] = func(p *sim.Proc) {
			pr := &Probe{p: p, n: n}
			app(pr)
			pr.close()
		}
	}
	bodies[n] = func(p *sim.Proc) { runChecker(p, n, chk) }
	tr, err := sim.New(cfg).Run(bodies...)
	det := &Detection{Intervals: chk.Witness()}
	det.Found = det.Intervals != nil
	return tr, det, err
}

// runChecker is the centralized Garg–Waldecker checker: the sim
// process that feeds livedetect's elimination loop, the same one the
// cluster root feeds with the intervals it derives.
func runChecker(p *sim.Proc, n int, chk *livedetect.Checker) {
	found := false
	for running := n; running > 0 && !found; {
		_, m := p.Recv()
		switch m := m.(type) {
		case livedetect.Interval:
			found = chk.Offer(0, m)
		case done:
			running--
		default:
			panic(fmt.Sprintf("monitor: checker received %T", m))
		}
	}
	// Remaining messages are drained by the kernel; the checker's verdict
	// is final once every process reported done or a witness was found.
	p.Daemon()
	for {
		p.Recv()
	}
}
