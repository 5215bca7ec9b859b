// Package livedetect is the coordinator's incremental online checker:
// it watches the candidate stream as wire.Candidate frames arrive and
// decides possibly(¬B) *during* the run, closing the paper's active
// debugging loop (detect a suspect global state, then control a
// re-execution through it) without waiting for the run to finish.
//
// Detection is two-stage. The streaming stage is the Garg–Waldecker
// weak-conjunction checker of internal/monitor lifted to the cluster:
// one queue of candidate intervals per node, the elimination loop
// dropping any interval that wholly precedes another queue's front,
// a trigger when the fronts are pairwise overlappable. The candidate
// vector clocks are node-level, and the node-shared clock induces
// causality the captured computation does not have (an app event and a
// later controller send on the same node are clock-ordered even with
// no message between them), so the trigger is conservative: it can
// miss cuts the trace admits, and its witness is a hint, not a
// verdict. The confirming stage therefore re-decides on the captured
// trace itself: an Assembler — the coordinator keeps one per epoch and
// feeds it the capture ops as they are staged — builds the largest
// causally closed prefix deposet, and detect.PossiblyGeneral —
// which tabulates a regular ¬B per state and runs the Garg–Waldecker
// fixpoint (detect.PossiblyTruth) on it, no lattice walk — either finds
// a consistent cut or defers. A consistent cut of a prefix is a
// consistent cut of the full computation (consistency only constrains
// the causal past), so a confirmed detection is sound mid-run; and
// because the final prefix is the whole trace, the coordinator's
// closing verdict on the committed capture makes the live verdict
// coincide exactly with the offline one.
//
// The coordinator computes each verdict with no decision lock held and
// lands it as one decision; Confirm is the step that keeps one verdict
// per epoch when two confirmers race.
//
// The checker is epoch-aware (offers tagged with a superseded epoch
// are discarded, Reset re-arms it for the re-execution) and
// resume-safe (per-process interval indices only move forward, so a
// session-resume replay of a candidate frame is a no-op even if it
// slips past the coordinator's sequence dedup).
package livedetect

import "sync"

// Interval is one maximal true-interval of a node's local predicate
// component of ¬B (a wire.Candidate): endpoints as node-level vector
// clocks plus the traced state indices of the app process.
type Interval struct {
	Proc         int
	LoIdx, HiIdx int64
	Lo, Hi       []int32
}

// Checker is the streaming GW stage. All methods are safe for
// concurrent use; the coordinator calls Offer from per-connection
// ingest goroutines.
type Checker struct {
	mu        sync.Mutex
	n         int
	epoch     uint32
	queues    [][]Interval
	lastHi    []int64 // per-proc newest accepted HiIdx (replay dedup)
	triggered bool    // GW fronts pairwise overlappable, awaiting prefix confirmation
	confirmed bool    // prefix-confirmed detection recorded for this epoch
	witness   []Interval
	trig      Interval // the offered interval that completed the witness
	trigSet   bool

	offered, droppedN, staleN int64
}

// New returns a checker for an n-node cluster, armed for epoch 0.
func New(n int) *Checker {
	c := &Checker{n: n}
	c.reset(0)
	return c
}

func (c *Checker) reset(epoch uint32) {
	c.epoch = epoch
	c.queues = make([][]Interval, c.n)
	c.lastHi = make([]int64, c.n)
	for p := range c.lastHi {
		c.lastHi[p] = -1 // an interval may end at state 0
	}
	c.triggered = false
	c.confirmed = false
	c.witness = nil
	c.trig = Interval{}
	c.trigSet = false
}

// Reset discards every queued interval and re-arms the checker for
// epoch: the abandoned epoch's candidates must not seed a detection in
// the re-execution, mirroring the coordinator's capture discard.
func (c *Checker) Reset(epoch uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset(epoch)
}

// Offer feeds one candidate interval ingested at stream epoch `epoch`.
// It returns true when the caller should run (or re-run) the prefix
// confirmation: either this interval just made the GW fronts pairwise
// overlappable, or a trigger is still pending confirmation and new
// evidence has arrived. Stale-epoch offers and replays are dropped.
func (c *Checker) Offer(epoch uint32, iv Interval) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch || iv.Proc < 0 || iv.Proc >= c.n {
		c.staleN++
		return false
	}
	if iv.HiIdx <= c.lastHi[iv.Proc] {
		c.staleN++ // session-resume replay (or reordered duplicate)
		return false
	}
	c.lastHi[iv.Proc] = iv.HiIdx
	c.offered++
	if c.confirmed {
		return false
	}
	if c.triggered {
		return true // retry confirmation on the grown prefix
	}
	c.queues[iv.Proc] = append(c.queues[iv.Proc], iv)
	c.advance()
	if c.triggered && !c.trigSet {
		c.trig, c.trigSet = iv, true // this offer completed the witness
	}
	return c.triggered
}

// advance runs the GW elimination loop, the one copy internal/monitor's
// sim checker and the coordinator both feed: drop any front interval
// that wholly precedes another queue's front; trigger when every queue
// is non-empty and no drop applies. Caller holds c.mu.
func (c *Checker) advance() {
	for {
		for i := 0; i < c.n; i++ {
			if len(c.queues[i]) == 0 {
				return // need more candidates before a verdict
			}
		}
		dropped := false
		for i := 0; i < c.n && !dropped; i++ {
			for j := 0; j < c.n; j++ {
				if i == j {
					continue
				}
				lo, hi := c.queues[j][0].Lo, c.queues[i][0].Hi
				if i >= len(lo) || i >= len(hi) {
					continue // malformed clock; never grounds a drop
				}
				// Iᵢ wholly precedes Iⱼ: Iᵢ's last state causally
				// precedes Iⱼ's first.
				if lo[i] >= hi[i] {
					c.queues[i] = c.queues[i][1:]
					c.droppedN++
					dropped = true
					break
				}
			}
		}
		if !dropped {
			c.triggered = true
			c.witness = make([]Interval, c.n)
			for i := 0; i < c.n; i++ {
				c.witness[i] = c.queues[i][0]
			}
			return
		}
	}
}

// Pending reports whether a trigger for epoch awaits confirmation.
func (c *Checker) Pending(epoch uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch == epoch && c.triggered && !c.confirmed
}

// Confirm records that the prefix check validated the epoch's trigger.
// It returns false when the epoch moved on or the detection was
// already confirmed (a concurrent confirmer won the race).
func (c *Checker) Confirm(epoch uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || c.confirmed {
		return false
	}
	c.confirmed = true
	return true
}

// Epoch returns the epoch the checker is armed for.
func (c *Checker) Epoch() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Fired reports whether this epoch has a confirmed detection.
func (c *Checker) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.confirmed
}

// Trigger returns the interval whose arrival completed the GW witness,
// and whether one exists (none before a trigger: a closing verdict may
// find a cut the streaming stage never saw). The
// coordinator uses it to attribute detection latency to the candidate
// send that made the violation observable.
func (c *Checker) Trigger() (Interval, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trig, c.trigSet
}

// Witness returns the GW front at trigger time (nil before a trigger).
func (c *Checker) Witness() []Interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.witness
}

// Depth returns the total number of queued intervals.
func (c *Checker) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := 0
	for _, q := range c.queues {
		d += len(q)
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
