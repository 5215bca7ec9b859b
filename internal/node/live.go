package node

import (
	"time"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/wire"
)

// LiveConfig parameterizes the live online-detection subsystem: the
// coordinator feeds every ingested candidate to an incremental checker
// (internal/livedetect) and, on a confirmed detection, closes the
// paper's active-debugging loop without waiting for the run to end.
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
	// Node is the node whose candidate completed the streaming witness,
	// or -1 when only Wait's closing verdict found the cut.
	Node int `json:"node"`
	// AtNs is when the consistent cut was found, relative to the run
	// start (before the strategy is computed).
	AtNs int64 `json:"at_ns"`
	// Cut is the confirmed consistent cut — one consumed-state index per
	// logical process (apps 0..n-1, controllers n..2n-1).
	Cut []int64 `json:"cut"`
	// WitnessHiIdx is the last traced app-state index of the triggering
	// candidate interval (latency attribution joins it with the node's
	// monitor.candidate journal event).
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

// fireDetection runs the confirming stage after the streaming checker
// triggered: bring the epoch's assembler up to the staged capture, build
// its causally closed prefix and confirm on it. witness is the node whose
// frame carried the triggering candidate (display attribution only;
// the record prefers the checker's own triggering interval).
func (c *Coordinator) fireDetection(witness int) {
	c.mu.Lock()
	e, committed := c.core.dec.epoch, c.core.dec.committed
	c.mu.Unlock()
	if committed || !c.ld.Pending(e) {
		return // sealed, superseded by a restart, or already confirmed
	}
	d, err := c.advance(e, false, true)
	if err != nil {
		c.logf("coordinator: live confirm: %v", err)
	}
	if d != nil {
		c.confirm(d, e, witness, false)
	}
}

// confirm takes the verdict possibly(¬B) on d — epoch e's captured
// prefix, or with final the whole committed capture Wait assembled —
// and lands a found cut as a detection. The verdict and its strategy
// are computed with no decision lock held, so a slow predicate holds up
// no handshake and no decision; two ingest goroutines may compute one
// epoch's verdict at once, and the core's land keeps one, as one
// decision under c.mu. A not-found mid-run is
// not a verdict — the cut may lie beyond the current prefix, so the
// trigger stays pending and later candidates retry on the grown
// capture.
func (c *Coordinator) confirm(d *deposet.Deposet, e uint32, witness int, final bool) {
	cut, found := detect.PossiblyGeneral(d, c.violation)
	if !found {
		return
	}
	rec := DetectionRecord{
		Epoch: e, Node: witness, AtNs: time.Since(c.start).Nanoseconds(),
		Cut: cutToInt64(cut), Final: final,
	}
	if iv, ok := c.ld.Trigger(); ok {
		rec.Node, rec.WitnessHiIdx = iv.Proc, iv.HiIdx
	}
	// The active-debugging payload: §4's off-line control algorithm on
	// the confirmed prefix yields the synchronization strategy the
	// controlled re-execution would drive the run through. Failure to
	// find one (¬B may be uncontrollable) downgrades the response to a
	// plain uncontrolled re-execution, it does not suppress the
	// detection.
	if rel, err := liveStrategy(d, c.core.live.Predicate); err == nil {
		rec.StrategyEdges = len(rel)
	} else {
		c.logf("coordinator: live detection: no control strategy: %v", err)
	}
	c.mu.Lock()
	o := c.core.land(rec, c.sinceStart())
	c.carry(nil, o)
	c.mu.Unlock()
	if o.counted {
		c.detMeter.Inc()
	}
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
