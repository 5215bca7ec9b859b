// Package predctl is a Go implementation of predicate control for active
// debugging of distributed programs, after Tarafdar & Garg (IPPS 1998).
//
// Distributed debugging is traditionally a cycle of passive observation
// and replay. Predicate control makes the cycle active: observe a
// computation, specify a global safety property B, synthesize extra
// causal dependencies (control messages with blocking receives) that
// make every replay of the computation satisfy B, and run new executions
// under an on-line controller that maintains B as they unfold.
//
// The package exposes:
//
//   - The computation model: deposets (Computation), built directly
//     (NewBuilder), generated, decoded from JSON traces, or captured from
//     the bundled deterministic simulator (sim aliases).
//   - Global predicates: boolean combinations of local predicates, with
//     the disjunctive class B = l1 ∨ … ∨ ln recognized specially.
//   - Detection: Possibly / Definitely for conjunctive predicates and
//     the (NP-complete) satisfying-global-sequence search SGSD.
//   - Off-line control: Control for disjunctive predicates (polynomial),
//     ControlGeneral for arbitrary predicates (polynomial on the
//     computation slice when B is regular, otherwise an exponential
//     search — the general problem is NP-hard).
//   - Controlled replay: Replay re-executes a trace with the control
//     messages enforced, under arbitrary message delays.
//   - On-line control: OnlineRun maintains a disjunctive predicate over
//     a live (simulated) system via the scapegoat/anti-token protocol,
//     solving (n−1)-mutual exclusion as a special case.
//
// See DESIGN.md for the mapping to the paper and EXPERIMENTS.md for the
// reproduced evaluation.
package predctl

import (
	"io"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/monitor"
	"predctl/internal/offline"
	"predctl/internal/online"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/sim"
	"predctl/internal/trace"
)

// Model types.
type (
	// Computation is a traced distributed computation (a deposet).
	Computation = deposet.Deposet
	// Builder assembles a Computation event by event.
	Builder = deposet.Builder
	// StateID names a local state (process, index).
	StateID = deposet.StateID
	// Cut is a global state: one local state index per process.
	Cut = deposet.Cut
	// Interval is a maximal false-interval of a local predicate.
	Interval = deposet.Interval
	// Sequence is a global sequence of consistent cuts from ⊥ to ⊤.
	Sequence = deposet.Sequence
)

// NewBuilder starts a computation of n processes.
func NewBuilder(n int) *Builder { return deposet.NewBuilder(n) }

// Predicate types.
type (
	// Predicate is a global predicate over global states.
	Predicate = predicate.Expr
	// Disjunction is a predicate in the controllable form l1 ∨ … ∨ ln.
	Disjunction = predicate.Disjunction
	// Conjunction is a predicate in the detectable form q1 ∧ … ∧ qn.
	Conjunction = predicate.Conjunction
	// LocalFn is the truth of a local predicate at a state index.
	LocalFn = predicate.LocalFn
	// VarLocal is the local predicate "Var Op Value" over a state
	// variable of process P, false where Var is unset.
	VarLocal = predicate.VarLocal
	// Op compares a state variable with a VarLocal's value.
	Op = predicate.Op
)

// The ops of a VarLocal. True and False compare the variable with 0 and
// take no value.
const (
	Eq    = predicate.Eq
	Ne    = predicate.Ne
	Lt    = predicate.Lt
	Le    = predicate.Le
	Gt    = predicate.Gt
	Ge    = predicate.Ge
	True  = predicate.True
	False = predicate.False
)

// Predicate constructors (see the predicate package for more).
var (
	And   = predicate.And
	Or    = predicate.Or
	Not   = predicate.Not
	Local = predicate.Local
	Const = predicate.Const
	// VarDisjunction builds l1 ∨ … ∨ lk from VarLocals, refusing one
	// whose variable is set on no state of its process.
	VarDisjunction = predicate.VarDisjunction
)

// NewDisjunction starts an empty disjunctive predicate over n processes.
func NewDisjunction(n int) *Disjunction { return predicate.NewDisjunction(n) }

// NewConjunction starts an empty conjunctive predicate over n processes.
func NewConjunction(n int) *Conjunction { return predicate.NewConjunction(n) }

// Control types.
type (
	// ControlEdge is one forced-before tuple u ⟶C v.
	ControlEdge = control.Edge
	// ControlRelation is a set of forced-before tuples.
	ControlRelation = control.Relation
	// Controlled is a computation extended with a control relation.
	Controlled = control.Extended
	// ControlResult carries a synthesized relation plus diagnostics.
	ControlResult = offline.Result
)

// ErrInfeasible reports that no control strategy can enforce the
// predicate on the computation.
var ErrInfeasible = offline.ErrInfeasible

// ErrInterference reports a control relation that would deadlock.
var ErrInterference = control.ErrInterference

// Control solves off-line predicate control for a disjunctive predicate:
// the efficient algorithm at the heart of the paper. See
// offline.Control.
func Control(d *Computation, b *Disjunction) (*ControlResult, error) {
	return offline.Control(d, b, offline.Options{})
}

// ControlGeneral solves off-line control for an arbitrary predicate: on
// the computation slice in polynomial time when b is regular, otherwise
// by satisfying-global-sequence search (the problem is NP-hard in
// general).
func ControlGeneral(d *Computation, b Predicate) (ControlRelation, Sequence, error) {
	return offline.ControlGeneral(d, b)
}

// Extend validates a control relation against a computation and returns
// the controlled computation with extended causality.
func Extend(d *Computation, rel ControlRelation) (*Controlled, error) {
	return control.Extend(d, rel)
}

// Detection.

// Possibly reports whether some consistent global state satisfies the
// conjunction, with a witness cut (Garg–Waldecker weak conjunctive
// detection; polynomial).
func Possibly(d *Computation, q *Conjunction) (Cut, bool) {
	return detect.PossiblyConjunctive(d, q)
}

// Definitely reports whether every interleaving passes through a state
// satisfying the conjunction, with a witness overlapping interval set
// (strong conjunctive detection; polynomial).
func Definitely(d *Computation, q *Conjunction) ([]Interval, bool) {
	return detect.DefinitelyConjunctive(d, q)
}

// Violations lists every consistent global state violating b. When ¬b
// is in the regular fragment (a conjunction of per-process conditions —
// so every disjunctive b, passed as a *Disjunction or as its Expr) the
// violations are the cuts of ¬b's computation slice, in (depth,
// lexicographic) order, at a cost polynomial in the trace plus the
// answer; any other predicate walks the whole lattice (exponential; for
// small computations under study) in breadth-first order.
func Violations(d *Computation, b Predicate) []Cut {
	cuts, _ := detect.AllViolations(d, b)
	return cuts
}

// SGSD searches for a global sequence satisfying b at every state
// (NP-complete; exponential), returning nil when there is none.
// simultaneous selects the paper's simultaneous-advance semantics; false
// restricts to interleavings, which is the controller-relevant notion.
// The simultaneous search is limited to detect.MaxSGSDProcs processes
// and reports a wider computation as an error.
func SGSD(d *Computation, b Predicate, simultaneous bool) (Sequence, error) {
	seq, _, err := detect.SGSD(d, b, simultaneous)
	return seq, err
}

// Replay.

// ReplayConfig parameterizes a controlled replay.
type ReplayConfig = replay.Config

// ReplayResult is a completed controlled replay.
type ReplayResult = replay.Result

// Replay re-executes d on the simulator with rel enforced as control
// messages.
func Replay(d *Computation, rel ControlRelation, cfg ReplayConfig) (*ReplayResult, error) {
	return replay.Run(d, rel, cfg)
}

// VerifyReplay checks a replay against a disjunctive predicate,
// returning the violating cut if any.
func VerifyReplay(res *ReplayResult, d *Computation, b *Disjunction) (Cut, bool) {
	return replay.VerifyDisjunction(res, d, b)
}

// Simulation and on-line control.
type (
	// SimConfig configures the deterministic simulator.
	SimConfig = sim.Config
	// SimKernel drives one simulated execution.
	SimKernel = sim.Kernel
	// Proc is a simulated process handle.
	Proc = sim.Proc
	// SimTrace is a traced simulated execution.
	SimTrace = sim.Trace
	// Time is virtual time.
	Time = sim.Time
	// OnlineConfig configures an on-line controlled system.
	OnlineConfig = online.Config
	// OnlineStats aggregates on-line control overhead.
	OnlineStats = online.Stats
	// Guard is the application-side handle to an on-line controller.
	Guard = online.Guard
)

// NewSim creates a simulator kernel.
func NewSim(cfg SimConfig) *SimKernel { return sim.New(cfg) }

// Delay helpers for SimConfig.
var (
	ConstantDelay = sim.ConstantDelay
	UniformDelay  = sim.UniformDelay
)

// On-line observation (the detect side of the live cycle).
type (
	// Probe is a monitored process's handle: it reports the intervals
	// of its local predicate, with the run's own clocks, to the
	// monitor's checker process.
	Probe = monitor.Probe
	// Detection is the monitor checker's verdict.
	Detection = monitor.Detection
)

// MonitorRun executes application bodies with an on-line
// weak-conjunctive-predicate checker (Garg–Waldecker) attached as an
// extra process.
func MonitorRun(cfg SimConfig, apps []func(*Probe)) (*SimTrace, *Detection, error) {
	return monitor.Run(cfg, apps)
}

// OnlineRun executes application bodies under on-line predicate control
// (the scapegoat strategy of the paper's Figure 3).
func OnlineRun(cfg OnlineConfig, apps []func(*Guard)) (*SimTrace, *OnlineStats, error) {
	return online.Run(cfg, apps)
}

// Trace I/O.

// EncodeTrace writes a computation (and optional control relation) as
// JSON.
func EncodeTrace(w io.Writer, d *Computation, rel ControlRelation) error {
	return trace.Encode(w, d, rel)
}

// DecodeTrace reads a computation and control relation from JSON. It
// reads r to its end: the trace is one document, and anything but
// whitespace after it is an error.
func DecodeTrace(r io.Reader) (*Computation, ControlRelation, error) {
	return trace.Decode(r)
}
