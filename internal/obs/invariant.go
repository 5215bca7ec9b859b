package obs

import (
	"fmt"
	"strings"
	"time"
)

// invariant.go turns the paper's analytic evaluation into live,
// machine-checked assertions on instrumented runs:
//
//   - §6 (Theorem 4 evaluation): every handoff response time lies in
//     {0} ∪ [2T, 2T+Emax] — zero when the requester is not the
//     scapegoat, the window when it is.
//   - §6: the anti-token is unique — the scapegoat role moves along a
//     single chain; every acquisition names the current holder as the
//     releaser.
//   - §5 (Theorem 2): the off-line controller emits at most O(np)
//     control messages — concretely ≤ n(p+1) chain handoffs for n
//     processes with ≤ p false-intervals each.
//
// A violation carries the offending journal slice so the failure is
// debuggable from the report alone.

// Control-event names recorded by internal/online and consumed here;
// shared constants keep the emitter and the checker from drifting.
const (
	// EvScapegoatInit marks the initial anti-token holder; A is its
	// application process index.
	EvScapegoatInit = "scapegoat.init"
	// EvScapegoatAcquire marks a role transfer: A is the acquiring
	// application process, B the releasing one.
	EvScapegoatAcquire = "scapegoat.acquire"
	// EvCtlPrefix prefixes controller-to-controller protocol messages
	// ("ctl.req", "ctl.ack", "ctl.confirm", "ctl.cancel").
	EvCtlPrefix = "ctl."
	// EvEpochRestart marks the first event of a controlled re-execution
	// epoch on a node; A is the node index, C the new epoch.
	EvEpochRestart = "epoch.restart"
	// EvChaosCrash marks an injected crash; A is the crashed node.
	EvChaosCrash = "chaos.crash"
	// EvCandidate is the journal twin of a closed interval of a local
	// conjunct, a node's (VC its node-level clock) or one a simulated
	// monitor probe sends its checker; A and B are the interval's first
	// and last traced state indices. The root's live checker reads the
	// intervals it derives from the assembled trace, not these.
	EvCandidate = "monitor.candidate"
	// EvDetect marks a live possibly(¬B) detection confirmed on the
	// captured prefix; A is the node whose candidate completed the
	// witness (-1 for the commit-time closing verdict), B the epoch it
	// fired in.
	EvDetect = "detect.fired"
	// EvEpochReExec marks a detection-triggered controlled
	// re-execution; A is the witness node, B the fresh epoch.
	EvEpochReExec = "epoch.reexec"
	// EvPartitionOpen / EvPartitionHeal bracket an injected network
	// partition; A and B are the partitioned node pair (A < B), or -1
	// for "all links of A".
	EvPartitionOpen = "partition.open"
	EvPartitionHeal = "partition.heal"
)

// Violation is one failed invariant with its journal context.
type Violation struct {
	Invariant string
	Detail    string
	Events    []Event // offending journal slice (may be empty)
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %q violated: %s", v.Invariant, v.Detail)
	for _, e := range v.Events {
		fmt.Fprintf(&b, "\n  seq=%d t=%d P%d %s", e.Seq, e.At, e.Proc, describe(e))
	}
	return b.String()
}

// Report collects the outcome of a set of invariant checks.
type Report struct {
	Checked    []string
	Violations []Violation
}

// Ok reports whether every check passed.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when all checks passed, or an error aggregating every
// violation.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("obs: %d invariant violation(s):\n%s", len(r.Violations), strings.Join(msgs, "\n"))
}

func (r *Report) checked(name string) { r.Checked = append(r.Checked, name) }

func (r *Report) violate(inv, detail string, events []Event) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: detail, Events: events})
}

// CheckResponses asserts the §6 response-time bound on every
// observation of hist: response ∈ {0} ∪ [2T, 2T+Emax]. journalCtx, when
// non-nil, supplies context events for a violation (its tail).
func (r *Report) CheckResponses(hist *Histogram, T, Emax int64, journalCtx *Journal) {
	const inv = "response ∈ {0} ∪ [2T, 2T+Emax]"
	r.checked(inv)
	for i, v := range hist.Values() {
		if v == 0 || (v >= 2*T && v <= 2*T+Emax) {
			continue
		}
		r.violate(inv,
			fmt.Sprintf("observation #%d is %d (T=%d, Emax=%d: allowed {0} ∪ [%d, %d])",
				i, v, T, Emax, 2*T, 2*T+Emax),
			tail(journalCtx, 12))
	}
}

// CheckResponsesWindow asserts the §6 window on wall-clock handoff
// responses: every observation of hist lies in [lo, hi]. It is the
// networked counterpart of CheckResponses — real runs split responses
// by path (a grant that required an anti-token handoff versus a local
// grant, the paper's "0"), because wall clocks make the zero branch a
// scheduling-noise band rather than an exact value. Feed it the
// handoff-only histogram (predctl_response_handoff_ns) with lo = 2×
// the injected link delay and a generous hi.
func (r *Report) CheckResponsesWindow(hist *Histogram, lo, hi int64, journalCtx *Journal) {
	const inv = "handoff response ∈ [2T, 2T+Emax]"
	r.checked(inv)
	for i, v := range hist.Values() {
		if v >= lo && v <= hi {
			continue
		}
		r.violate(inv,
			fmt.Sprintf("handoff observation #%d is %d (allowed [%d, %d])", i, v, lo, hi),
			tail(journalCtx, 12))
	}
}

// CheckScapegoatChain asserts the anti-token uniqueness invariant on
// the journal's control events: exactly one EvScapegoatInit and one
// unforked chain of EvScapegoatAcquire from it. A journal merged from
// concurrently-running nodes appends in arrival order, not acquisition
// order, so acquisitions are ordered by the anti-token generation each
// one piggybacks (Event.C; the simulated host journals it too): the
// generations present must be exactly 1..K — a duplicate generation is
// two controllers both believing they took the same anti-token (a
// forked chain), a gap is a transfer nobody journaled — and generation g
// must name generation g−1's acquirer as its releaser (g=1 names the
// initial holder). When the journal wrapped (Dropped > 0) the check is
// skipped — the chain's prefix is gone, so absence of evidence is not
// evidence.
func (r *Report) CheckScapegoatChain(j *Journal) {
	const inv = "single scapegoat chain"
	if j.Dropped() > 0 {
		return
	}
	r.checked(inv)
	initHolder := int64(-1)
	initSeen := false
	byGen := map[int64]Event{}
	var maxGen int64
	for _, e := range j.Events() {
		if e.Kind != KindControl {
			continue
		}
		switch e.Name {
		case EvScapegoatInit:
			if initSeen {
				r.violate(inv, fmt.Sprintf("second scapegoat.init for P%d (holder was P%d)", e.A, initHolder),
					j.Slice(sat(e.Seq, 6), e.Seq))
				return
			}
			initSeen = true
			initHolder = e.A
		case EvScapegoatAcquire:
			if prev, dup := byGen[e.C]; dup {
				r.violate(inv,
					fmt.Sprintf("generation %d acquired twice: by P%d (from P%d) and by P%d (from P%d) — forked chain",
						e.C, prev.A, prev.B, e.A, e.B),
					[]Event{prev, e})
				return
			}
			byGen[e.C] = e
			if e.C > maxGen {
				maxGen = e.C
			}
		}
	}
	if len(byGen) == 0 {
		return
	}
	if !initSeen {
		r.violate(inv, "acquisitions recorded but no scapegoat.init", nil)
		return
	}
	holder := initHolder
	for g := int64(1); g <= maxGen; g++ {
		e, ok := byGen[g]
		if !ok {
			r.violate(inv, fmt.Sprintf("generation %d missing (%d acquisitions up to generation %d)",
				g, len(byGen), maxGen), nil)
			return
		}
		if e.B != holder {
			r.violate(inv,
				fmt.Sprintf("generation %d: P%d acquired from P%d, but generation %d's holder was P%d",
					g, e.A, e.B, g-1, holder),
				[]Event{e})
			return
		}
		holder = e.A
	}
}

// CheckNetRun runs the paper-bound checks a networked run admits, on
// its merged journal and its metrics: one unforked scapegoat chain and,
// when the fault shim injected a per-hop delay, every handoff response
// inside [2×delay, 60 s] — a handoff grant pays two shimmed hops, and
// the ceiling is generous because wall clocks include retransmissions
// and scheduling.
func (r *Report) CheckNetRun(j *Journal, reg *Registry, delay time.Duration) {
	r.CheckScapegoatChain(j)
	if delay > 0 {
		r.CheckResponsesWindow(reg.Histogram("predctl_response_handoff_ns"),
			2*delay.Nanoseconds(), (60 * time.Second).Nanoseconds(), j)
	}
}

// CheckOfflineEdges asserts the §5 message bound for the off-line
// disjunctive controller: at most n(p+1) control messages for n
// processes with at most p false-intervals each (one per chain handoff;
// the paper states the O(np) bound).
func (r *Report) CheckOfflineEdges(edges, n, p int) {
	const inv = "off-line control messages ≤ n(p+1)"
	r.checked(inv)
	if bound := n * (p + 1); edges > bound {
		r.violate(inv, fmt.Sprintf("%d control edges for n=%d, p=%d (bound %d)", edges, n, p, bound), nil)
	}
}

// ChainLength returns the number of anti-token transfers recorded in
// the journal (the scapegoat chain length), for the
// predctl_scapegoat_chain_length gauge.
func ChainLength(j *Journal) int64 {
	var n int64
	for _, e := range j.Events() {
		if e.Kind == KindControl && e.Name == EvScapegoatAcquire {
			n++
		}
	}
	return n
}

// tail returns the last n events of j (nil journal → nil).
func tail(j *Journal, n int) []Event {
	events := j.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	return events
}

// sat subtracts n from seq, saturating at 0.
func sat(seq uint64, n uint64) uint64 {
	if seq < n {
		return 0
	}
	return seq - n
}
