// Package livedetect is the coordinator's online checker: it decides
// possibly(¬B) during the run, over the computation the root assembles,
// closing the paper's active debugging loop without waiting for the run
// to finish (DESIGN.md "Live detection" has the design).
//
// When B is a disjunction of variable locals (Locals), ¬B is a
// conjunction, and the root's Assembler derives each conjunct's
// true-intervals as it appends the states, with the computation's own
// clocks. The Checker runs the Garg–Waldecker
// weak-conjunction algorithm on them, and with exact clocks its
// trigger is the verdict, at the least cut where ¬B holds (Verdict):
// the cut detect.PossiblyGeneral finds on the whole computation. A
// mid-run trigger uses only closed intervals, whose states are final;
// at commit the strict Feed closes the rest, and the checker's state is
// the closing verdict. Any other ¬B is confirmed on a built prefix
// (ConfirmPrefix is that confirm for a caller that keeps no
// assembler): a consistent cut of a prefix is one of every extension.
//
// The checker is epoch-aware: offers of a superseded epoch are dropped,
// Reset re-arms it for a re-execution, Restart empties it when the
// stream its intervals come from starts over, and Confirm keeps one
// detection per epoch.
package livedetect

import (
	"sync"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// Interval is one true-interval of a process's local conjunct of ¬B:
// the states LoIdx..HiIdx of process Proc, both inclusive, and the
// vector clocks of those two states. The checker's precedence test
// reads of Lo every component but Proc's own, of Hi only that one.
// Both producers — the root's assembler and internal/monitor's probes —
// feed the computation's own clocks, which number a process's states:
// Lo is the builder's row for state LoIdx (deposet Order.Deps, whose
// own component may lag), and Hi is nil, the component read being
// HiIdx. Only the bench's stage replay and the reference tests set Hi,
// to a Fidge–Mattern clock of the last state.
type Interval struct {
	Proc         int
	LoIdx, HiIdx int64
	Lo, Hi       []int32
}

// Checker is the streaming Garg–Waldecker stage. All methods are safe
// for concurrent use.
type Checker struct {
	mu    sync.Mutex
	procs []int // the processes a witness needs an interval of
	epoch uint32
	// queues[p][heads[p]:] is p's queue: a dropped front only moves the
	// head, and Offer reuses the room before the head, so a queue that
	// drains and refills allocates nothing.
	queues [][]Interval
	heads  []int
	lastHi []int64    // per-proc newest accepted HiIdx (replay dedup)
	wit    []Interval // the GW fronts at the trigger; nil before one
	trig   Interval   // the offered interval that completed the witness
	fired  bool       // a detection was confirmed at this epoch

	offered, droppedN, staleN int64
}

// New returns a checker over n processes whose witness needs an
// interval of each, armed for epoch 0.
func New(n int) *Checker {
	procs := make([]int, n)
	for p := range procs {
		procs[p] = p
	}
	return newChecker(n, procs)
}

// NewFor returns a checker for the ¬B whose B has the given locals (by
// process, as Locals returns them): a witness needs an interval of
// every process with a local, none of one without.
func NewFor(locals []*predicate.VarLocal) *Checker {
	var procs []int
	for p, l := range locals {
		if l != nil {
			procs = append(procs, p)
		}
	}
	return newChecker(len(locals), procs)
}

func newChecker(n int, procs []int) *Checker {
	c := &Checker{procs: procs, queues: make([][]Interval, n), heads: make([]int, n), lastHi: make([]int64, n)}
	c.restart()
	return c
}

// Locals recognizes a B whose violation the assembler derives
// intervals for: l₁ ∨ … ∨ lₖ over variable locals (predicate.AsDisjunction,
// then VarLocals) on procs processes, at least one of them. It returns
// each process's local, nil where B has none.
func Locals(b predicate.Expr, procs int) ([]*predicate.VarLocal, bool) {
	dj, ok := predicate.AsDisjunction(b, procs)
	if !ok {
		return nil, false
	}
	ls, ok := dj.VarLocals()
	if !ok || len(ls) == 0 {
		return nil, false
	}
	locals := make([]*predicate.VarLocal, procs)
	for i := range ls {
		locals[ls[i].P] = &ls[i]
	}
	return locals, true
}

// restart empties the queues and the witness for a new stream. Caller
// holds c.mu (or owns c).
func (c *Checker) restart() {
	for p := range c.queues {
		c.queues[p], c.heads[p] = c.queues[p][:0], 0
		c.lastHi[p] = -1 // an interval may end at state 0
	}
	c.wit, c.trig = nil, Interval{}
}

// Reset re-arms the checker for epoch: the abandoned epoch's intervals
// must not seed a detection in the re-execution, mirroring the
// coordinator's capture discard.
func (c *Checker) Reset(epoch uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch, c.fired = epoch, false
	c.restart()
}

// Restart voids every interval offered at epoch so far, when the stream
// they were derived from starts over (the assembler's capture was
// discarded under it), so they never seed a detection. A detection
// already confirmed at epoch stands; at another epoch Restart does
// nothing.
func (c *Checker) Restart(epoch uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == epoch {
		c.restart()
	}
}

// Offer feeds one interval of stream epoch `epoch` and reports whether
// the checker has a witness: the fronts of every constrained process
// are pairwise overlappable. Stale-epoch offers and replays are
// dropped; once triggered, the checker only counts offers.
func (c *Checker) Offer(epoch uint32, iv Interval) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch || iv.Proc < 0 || iv.Proc >= len(c.queues) || iv.HiIdx <= c.lastHi[iv.Proc] {
		c.staleN++ // stale epoch, or a replayed or reordered duplicate
		return false
	}
	c.lastHi[iv.Proc] = iv.HiIdx
	c.offered++
	if c.wit != nil {
		return true
	}
	q, h := c.queues[iv.Proc], c.heads[iv.Proc]
	if len(q) == cap(q) && h > 0 {
		q, c.heads[iv.Proc] = q[:copy(q, q[h:])], 0
	}
	c.queues[iv.Proc] = append(q, iv)
	if c.advance() {
		c.trig = iv // this offer completed the witness
	}
	return c.wit != nil
}

// advance runs the GW elimination loop, the one copy internal/monitor's
// sim checker and the root both feed: drop any front interval
// that wholly precedes another queue's front; trigger when every
// constrained queue is non-empty and no drop applies. It reports a
// trigger. Caller holds c.mu.
func (c *Checker) advance() bool {
	for {
		for _, p := range c.procs {
			if c.heads[p] == len(c.queues[p]) {
				return false // need more intervals before a verdict
			}
		}
		dropped := false
		for _, i := range c.procs {
			for _, j := range c.procs {
				if i == j {
					continue
				}
				lo := c.queues[j][c.heads[j]].Lo
				end, ok := c.queues[i][c.heads[i]].end()
				// Iᵢ wholly precedes Iⱼ: Iᵢ's last state causally
				// precedes Iⱼ's first. A malformed clock grounds no drop.
				if ok && i < len(lo) && int64(lo[i]) >= end {
					c.heads[i]++
					c.droppedN++
					dropped = true
					break
				}
			}
			if dropped {
				break
			}
		}
		if !dropped {
			c.wit = make([]Interval, len(c.procs))
			for k, p := range c.procs {
				c.wit[k] = c.queues[p][c.heads[p]]
			}
			return true
		}
	}
}

// end returns iv's clock component of its own process at its last
// state, and false for a malformed Hi.
func (iv *Interval) end() (int64, bool) {
	if iv.Hi == nil {
		return iv.HiIdx, true
	}
	if iv.Proc < len(iv.Hi) {
		return int64(iv.Hi[iv.Proc]), true
	}
	return 0, false
}

// Verdict returns the trigger at epoch — the least consistent cut
// through the witness fronts' first states, and the interval whose
// offer completed the witness — unless there is none or a detection was
// already confirmed there. With the computation's own clocks the cut is
// the least one where ¬B holds.
func (c *Checker) Verdict(epoch uint32) (deposet.Cut, Interval, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || c.wit == nil || c.fired {
		return nil, Interval{}, false
	}
	// A front's first state requires, of each other process q, the
	// state after the last one its clock says precedes it.
	cut := make(deposet.Cut, len(c.queues))
	for _, w := range c.wit {
		for q, k := range w.Lo {
			k++
			if q == w.Proc {
				k = int32(w.LoIdx)
			}
			cut[q] = max(cut[q], int(k))
		}
	}
	return cut, c.trig, true
}

// Confirm records a detection at epoch. It returns false when the epoch
// moved on or already has its detection.
func (c *Checker) Confirm(epoch uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || c.fired {
		return false
	}
	c.fired = true
	return true
}

// Fired reports whether this epoch has a confirmed detection.
func (c *Checker) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Witness returns the GW fronts at the trigger, one per constrained
// process (nil before a trigger).
func (c *Checker) Witness() []Interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wit
}

// Depth returns the total number of queued intervals.
func (c *Checker) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := 0
	for p, q := range c.queues {
		d += len(q) - c.heads[p]
	}
	return d
}

// Stats returns cumulative offer accounting: intervals accepted,
// intervals eliminated by the GW loop, and offers discarded as
// stale-epoch or replayed.
func (c *Checker) Stats() (offered, dropped, stale int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offered, c.droppedN, c.staleN
}
