// Package obs is the observability layer: structured run tracing,
// protocol metrics, and invariant checks bound to the paper's analytic
// evaluation (§5–§6). It is zero-dependency (stdlib only) and designed
// so that *disabled* instrumentation costs nothing on the hot paths: a
// nil *Journal or *Registry is a valid receiver everywhere, and every
// recording method on a nil receiver is a single predictable branch
// with no allocation.
//
// Three parts:
//
//   - Run tracing (this file): the sim kernel appends structured events
//     (send/recv/block/unblock/work/set/control) into a per-run
//     ring-buffered Journal; clustertrace.go exports it, like a
//     cluster's merged journal, as Chrome trace_event JSON for
//     chrome://tracing / Perfetto, timeline.go as a human-readable
//     timeline.
//   - Protocol metrics (metrics.go): typed counters, histograms and
//     gauges in a Registry, dumped in Prometheus text exposition
//     format. The online controller, the
//     monitor, and the kmutex baselines record into a Registry, and
//     internal/expt derives its reported tables from the same registry
//     — no private tallies to drift.
//   - Invariant checks (invariant.go): the paper's bounds — handoff
//     response ∈ {0} ∪ [2T, 2T+Emax], ≤ O(np) off-line control
//     messages, a single scapegoat chain — asserted on instrumented
//     runs, failing loudly with the offending journal slice.
package obs

import "sync"

// Kind discriminates journal events.
type Kind uint8

const (
	// KindSend: process Proc sent a message to process A; B is the
	// kernel message sequence number (pairs with the matching KindRecv
	// for flow rendering).
	KindSend Kind = iota + 1
	// KindRecv: process Proc consumed a message from process A; B is
	// the message sequence number.
	KindRecv
	// KindBlock: process Proc blocked; Name is the reason ("recv").
	KindBlock
	// KindUnblock: process Proc resumed after a KindBlock.
	KindUnblock
	// KindWork: process Proc performed B time units of local work
	// starting at At.
	KindWork
	// KindSet: process Proc assigned state variable Name := A — a
	// predicate flip when Name underlies a local predicate.
	KindSet
	// KindControl: a protocol-level annotation (control-message kinds,
	// scapegoat transfers, monitor candidates); Name says which, A and
	// B are label-specific, VC may carry a vector clock snapshot.
	KindControl
	// KindMark: a free-form annotation.
	KindMark
)

var kindNames = [...]string{"", "send", "recv", "block", "unblock", "work", "set", "control", "mark"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one journal entry. At is virtual time (or wall-clock
// nanoseconds since run start, for networked runs); Proc the simulated
// process index. A, B and C are kind-specific operands (see the Kind
// constants; C is 0 for most events — scapegoat.acquire uses it for the
// anti-token generation, which lets checkers order acquisitions from
// different nodes without trusting cross-node timestamps); VC, when
// non-nil, is a vector clock snapshot taken by an instrumented layer
// that maintains runtime clocks (internal/monitor, internal/node).
type Event struct {
	Seq     uint64
	At      int64
	Proc    int
	Kind    Kind
	Name    string
	A, B, C int64
	VC      []int32
}

// DefaultJournalCap is the ring capacity used when NewJournal is given 0.
const DefaultJournalCap = 1 << 16

// Journal is a bounded, concurrency-safe event journal. When the ring
// is full the oldest events are overwritten and counted in Dropped —
// instrumentation must never stall or OOM the run it observes. A nil
// *Journal is valid: Append on it is a no-op, so call sites need no
// enabled-flag plumbing.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // ring index of the oldest retained event
	n       int    // retained events
	next    uint64 // seq assigned to the next event
	dropped uint64
}

// NewJournal returns a journal retaining up to capacity events
// (DefaultJournalCap when capacity <= 0). The ring is allocated up
// front; Append never allocates.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Append records e, assigning its sequence number. No-op on nil.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	if j.n == len(j.buf) {
		j.buf[j.start] = e
		j.start++
		if j.start == len(j.buf) {
			j.start = 0
		}
		j.dropped++
	} else {
		j.buf[(j.start+j.n)%len(j.buf)] = e
		j.n++
	}
	j.mu.Unlock()
}

// Enabled reports whether events are being recorded.
func (j *Journal) Enabled() bool { return j != nil }

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events in append order (a copy).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// Slice returns the retained events with Seq in [lo, hi], in order —
// the "offending journal slice" invariant violations report.
func (j *Journal) Slice(lo, hi uint64) []Event {
	var out []Event
	for _, e := range j.Events() {
		if e.Seq >= lo && e.Seq <= hi {
			out = append(out, e)
		}
	}
	return out
}
