package node

import (
	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/wire"
)

// LiveConfig parameterizes the live online-detection subsystem: the
// coordinator decides possibly(¬B) over the capture as its epoch
// assembler appends it (internal/livedetect) and, on a detection,
// closes the paper's active-debugging loop without waiting for the run
// to end.
type LiveConfig struct {
	// Predicate is the good-state invariant B; the checker watches for
	// possibly(¬B). Nil disables live detection entirely.
	Predicate predicate.Expr
	// OnDetect selects the response to a confirmed mid-run detection:
	// OnDetectReExec (the default) broadcasts Detection + ReExec frames
	// and drives a §8 controlled re-execution; OnDetectNote records the
	// detection and lets the run finish undisturbed.
	OnDetect string
	// MaxReExecs caps detection-triggered re-executions so a violation
	// the control strategy cannot suppress does not re-execute forever.
	// Zero means the default of 1; negative disables re-execution.
	MaxReExecs int
}

// OnDetect modes.
const (
	OnDetectReExec = "reexec"
	OnDetectNote   = "note"
)

// CSMutexPredicate returns the cluster workload's control predicate
// B = ∨ᵢ (csᵢ = 0) over the n application processes: at least one
// application is outside its critical section. Its violation,
// possibly(¬B) = "a consistent cut with every application in CS", is
// what live detection watches the (n−1)-mutex runs for.
func CSMutexPredicate(n int) predicate.Expr {
	xs := make([]predicate.Expr, n)
	for i := range xs {
		xs[i] = predicate.VarLocal{P: i, Var: "cs", Op: predicate.Eq}.Expr()
	}
	return predicate.Or(xs...)
}

// DetectionRecord is one confirmed live detection as the run's history
// keeps it (detections survive epoch discards like annotations do: they
// describe what really happened, which re-execution does not rewrite).
type DetectionRecord struct {
	// Epoch is the execution epoch the detection fired in.
	Epoch uint32 `json:"epoch"`
	// Node is the node whose process's interval completed the streaming
	// witness, or -1 for a verdict confirmed on a built prefix (a ¬B the
	// root derives no intervals for).
	Node int `json:"node"`
	// AtNs is when the consistent cut was found, relative to the run
	// start (before the strategy is computed).
	AtNs int64 `json:"at_ns"`
	// Cut is the confirmed consistent cut — one consumed-state index per
	// logical process (apps 0..n-1, controllers n..2n-1).
	Cut []int64 `json:"cut"`
	// WitnessHiIdx is one past the last state of the triggering
	// interval: the traced index of the state whose Set closed it, which
	// latency attribution joins with the HiIdx of the node's
	// monitor.candidate journal twin.
	WitnessHiIdx int64 `json:"witness_hi_idx"`
	// StrategyEdges counts the added synchronization edges of the
	// control strategy computed on the confirmed prefix (0 when the
	// off-line algorithm found none or failed).
	StrategyEdges int `json:"strategy_edges"`
	// Final marks a detection found only by Wait's closing verdict on
	// the committed capture rather than strictly mid-run.
	Final bool `json:"final"`
	// ReExec marks a detection that triggered a controlled
	// re-execution.
	ReExec bool `json:"reexec"`
}

// frame is the record as the Detection frame nodes receive.
func (r DetectionRecord) frame() wire.Detection {
	return wire.Detection{Epoch: r.Epoch, Node: int32(r.Node), AtNs: r.AtNs, Cut: r.Cut}
}

// verdictLocked takes the live verdict a feed of epoch e's assembler a
// owes: the trigger the derived stream may have reached, or, for a ¬B
// the root derives no intervals for, a confirm on the fed prefix. With
// final it is the closing verdict on d, the whole committed capture.
// The caller holds the assembler's lock, so no restart of the stream
// comes between the intervals and the verdict on them; the decision
// lock is not held.
func (c *Coordinator) verdictLocked(e uint32, a *livedetect.Assembler, d *deposet.Deposet, final bool) {
	rec := DetectionRecord{Epoch: e, Node: -1, Final: final}
	if c.locals != nil {
		cut, trig, ok := c.ld.Verdict(e)
		if !ok {
			return
		}
		rec.AtNs, rec.Cut = c.sinceStart(), cutToInt64(cut)
		rec.Node, rec.WitnessHiIdx = trig.Proc%c.n, trig.HiIdx+1
	} else if c.ld.Fired() {
		return
	}
	if d == nil {
		var err error
		if d, err = a.Build(); err != nil {
			c.logf("coordinator: live verdict: %v", err)
			return
		}
	}
	if c.locals == nil {
		cut, found := detect.PossiblyGeneral(d, c.violation)
		if !found || !final && !c.settled(d, cut) {
			return
		}
		rec.AtNs, rec.Cut = c.sinceStart(), cutToInt64(cut)
	}
	// The active-debugging payload: §4's off-line control algorithm on
	// the prefix yields the synchronization strategy the controlled
	// re-execution would drive the run through. Failure to find one (¬B
	// may be uncontrollable) downgrades the response to a plain
	// uncontrolled re-execution, it does not suppress the detection.
	if rel, err := liveStrategy(d, c.core.live.Predicate); err == nil {
		rec.StrategyEdges = len(rel)
	} else {
		c.logf("coordinator: live detection: no control strategy: %v", err)
	}
	// The core's land revalidates the verdict, as one decision.
	c.mu.Lock()
	o := c.core.land(rec, c.sinceStart())
	c.carry(nil, o)
	c.mu.Unlock()
	if o.counted {
		c.detMeter.Inc()
	}
}

// settled reports whether ¬B's truth at cut of the prefix d is final:
// cut selects no app's top state. Every state below a top is final, but
// an app's top state — the only kind the capture sets variables on — may
// still take a Let, or its Init, so a cut through one is no verdict yet;
// a later pass or the closing verdict decides.
func (c *Coordinator) settled(d *deposet.Deposet, cut deposet.Cut) bool {
	for p := range c.n {
		if d.IsTop(deposet.StateID{P: p, K: cut[p]}) {
			return false
		}
	}
	return true
}

// liveStrategy synthesizes the control relation that keeps b true on d.
// A disjunctive b — every live workload's ∨(csᵢ = 0) — gets the paper's
// Figure 2 chain, O(n²p) and at most n(p+1) edges; only a predicate
// outside that class reaches the general controller, which decides a
// regular b on its computation slice in polynomial time and any other b
// by the search Theorem 1 proves NP-hard.
func liveStrategy(d *deposet.Deposet, b predicate.Expr) (control.Relation, error) {
	if dj, ok := predicate.AsDisjunction(b, d.NumProcs()); ok {
		res, err := offline.Control(d, dj, offline.Options{})
		if err != nil {
			return nil, err
		}
		return res.Relation, nil
	}
	rel, _, err := offline.ControlGeneral(d, b)
	return rel, err
}

func cutToInt64(cut deposet.Cut) []int64 {
	out := make([]int64, len(cut))
	for i, v := range cut {
		out[i] = int64(v)
	}
	return out
}
