package node

import (
	"time"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
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
		xs[i] = predicate.LocalVarEq(i, "cs", 0)
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
	// or -1 when only the commit-time closing pass found the cut.
	Node int `json:"node"`
	// AtNs is when the confirmation landed, relative to the run start.
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
	// Final marks a detection found only by the commit-time closing
	// pass rather than strictly mid-run.
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
// triggered: assemble the staged capture's causally closed prefix and
// decide possibly(¬B) on it for real. Like the other terminal
// decisions it runs under shutdownMu and revalidates — a trigger a
// concurrent restart just voided dies here instead of firing into the
// wrong epoch. witness is the node whose frame carried the triggering
// candidate (display attribution only; the record prefers the
// checker's own triggering interval).
func (c *Coordinator) fireDetection(witness int) {
	c.shutdownMu.Lock()
	defer c.shutdownMu.Unlock()
	if c.ld == nil {
		return
	}
	c.mu.Lock()
	e, committed := c.dec.epoch, c.dec.committed
	c.mu.Unlock()
	if committed || !c.ld.Pending(e) {
		return // sealed, superseded by a restart, or already confirmed
	}
	c.confirmLocked(e, witness, false)
}

// confirmLocked decides possibly(¬B) on epoch e's captured prefix and,
// when a consistent cut is found, records the detection and fires the
// OnDetect response. A not-found is not a verdict — the cut may lie
// beyond the current prefix, so the trigger stays pending and later
// candidates retry on the grown capture. Caller holds shutdownMu.
func (c *Coordinator) confirmLocked(e uint32, witness int, final bool) {
	got := c.collect(e)
	d, consumed, err := livedetect.AssemblePrefix(c.n, got.byProc)
	if err != nil {
		c.logf("coordinator: live confirm: %v", err)
		return
	}
	if final {
		// Every bye is in: unless the sweep stopped short (a corrupt
		// capture, which Wait's strict assembly will report), d is the
		// run's deposet and Wait need not build it again.
		c.assemblies.Inc()
		whole := true
		for p, ops := range got.byProc {
			whole = whole && consumed[p] == len(ops)
		}
		if whole {
			c.mu.Lock()
			c.sealed = d
			c.mu.Unlock()
		}
	}
	cut, found := detect.PossiblyGeneral(d, c.violation)
	if !found {
		return
	}
	if !c.ld.Confirm(e) {
		return // a concurrent confirmer won, or the epoch moved on
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
	if rel, err := liveStrategy(d, c.liveCfg.Predicate); err == nil {
		rec.StrategyEdges = len(rel)
	} else {
		c.logf("coordinator: live detection: no control strategy: %v", err)
	}
	c.mu.Lock()
	canReExec := !final && c.liveCfg.OnDetect == OnDetectReExec && c.reexecs < c.liveCfg.MaxReExecs
	rec.ReExec = canReExec
	c.detections = append(c.detections, rec)
	if rec.Node >= 0 && rec.Node < len(c.detByNode) {
		c.detByNode[rec.Node]++
	}
	c.mu.Unlock()
	c.detMeter.Inc()
	// Stamped with the confirmation time, not now: the strategy above
	// can take far longer than the detection did.
	c.AnnotateAt(rec.AtNs, obs.EvDetect, int64(rec.Node), int64(e))
	c.logf("coordinator: live detection: possibly(¬B) confirmed at epoch %d (witness node %d, cut %v)",
		e, rec.Node, cut)
	if canReExec {
		c.reexecClusterLocked(rec)
	}
}

// liveStrategy synthesizes the control relation that keeps b true on d.
// A disjunctive b — every live workload's ∨(csᵢ = 0) — gets the paper's
// Figure 2 chain, O(n²p) and at most n(p+1) edges; only a predicate
// outside that class reaches the general controller, whose exhaustive
// search is the problem Theorem 1 proves NP-hard.
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

// reexecClusterLocked is the rejoin restart's detection-triggered
// twin — the paper's active-debugging response, driven automatically:
// void the epoch the violation was observed in, announce the detection
// (Detection frame, so every node knows it now runs under control) and
// order the §8 controlled re-execution (ReExec frame, which nodes
// treat as a Restart). Caller holds shutdownMu.
func (c *Coordinator) reexecClusterLocked(rec DetectionRecord) {
	c.mu.Lock()
	c.reexecs++
	ne := c.dec.epoch + 1
	c.mu.Unlock()
	c.logf("coordinator: detection at epoch %d: controlled re-execution at epoch %d (%d strategy edges)",
		rec.Epoch, ne, rec.StrategyEdges)
	c.Annotate(obs.EvEpochReExec, int64(rec.Node), int64(ne))
	c.decide(rec.frame(), wire.ReExec{Epoch: ne, Edges: uint32(rec.StrategyEdges)})
}

// finalLiveLocked is the commit-time closing pass: force the trigger
// and confirm once more on the complete final-epoch capture, so the
// live verdict coincides exactly with the offline decision on the
// assembled trace — the streaming stage's conservatism (node-level
// clocks over-approximate causality) cannot cost a detection, only
// immediacy. The run is complete, so the pass never re-executes.
// Caller holds shutdownMu.
func (c *Coordinator) finalLiveLocked(e uint32) {
	if c.ld == nil {
		return
	}
	if c.ld.ForceTrigger(e) {
		c.confirmLocked(e, -1, true)
	}
}

func cutToInt64(cut deposet.Cut) []int64 {
	out := make([]int64, len(cut))
	for i, v := range cut {
		out[i] = int64(v)
	}
	return out
}
