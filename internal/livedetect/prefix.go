package livedetect

import (
	"fmt"
	"slices"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/wire"
)

// Assembler replays captured trace ops through a deposet.Builder: the
// one implementation behind commit-time assembly, bundle reassembly and
// the live prefix confirmation. Ops arrive bucketed by logical process
// (apps 0..n-1, controllers n..2n-1) in per-process order; sends and
// receives are matched by trace id in a topological sweep, a receive
// waiting until its send has been replayed. Sends never received become
// in-flight messages, like a sim trace cut at teardown.
//
// What an unmatched receive means is the caller's to say. Mid-run the
// send is still buffered on another node, so a prefix Feed stops that
// process there and leaves the rest (causally later) for the next
// prefix; in a complete capture it is corruption, and a strict Feed
// says where.
//
// The assembler is resumable: Feed may be called again with the same
// streams grown at their tails, and the coordinator keeps one per
// epoch, fed while the run runs, which its live confirm builds from
// and its commit finishes. Feed clocks every state it replays, so
// Build only snapshots what was fed: its cost does not grow with the
// prefix. Build numbers messages by sender and send event, so a
// capture fed in any number of slices builds the deposet a single pass
// builds, to the byte, and an earlier build is unchanged by later feeds.
//
// Told to Derive, the assembler also derives ¬B's true-intervals as it
// appends (the package doc has why that decides possibly(¬B)).
type Assembler struct {
	b       *deposet.Builder
	cursor  []int
	pending []int       // Feed's per-process count, kept so a Feed allocates only to grow
	sends   sendTable   // trace id of every replayed send
	derive  *derivation // nil: no intervals derived
}

// derivation is ¬B's interval stream as the assembler derives it: per
// process with a local of B, where the true run of its conjunct ¬l at
// the top state began.
type derivation struct {
	locals []*predicate.VarLocal // B's local by process; nil: no conjunct
	offer  func(Interval)
	lo     []int // the open run's first state; -1 while the top state's conjunct is false
}

// sendTable maps the trace id of each replayed send to its message
// handle. An id as nodes mint it — the sending process above bit 40, a
// counter below — indexes a dense row per process, a slice load where a
// hash map costed a third of an assembly; any other id, or a counter
// past four times the sends its row holds, goes to the map, so a row is
// sized by the ops staged, never by what an id claims.
type sendTable struct {
	rows  [][]int32 // rows[p][counter]: the handle + 1, 0 for none
	sent  []int     // sends recorded in each row
	other map[uint64]deposet.MsgHandle
}

const idProcShift = 40

func (t *sendTable) get(id uint64) (deposet.MsgHandle, bool) {
	if p, k := id>>idProcShift, id&(1<<idProcShift-1); p < uint64(len(t.rows)) && k < uint64(len(t.rows[p])) && t.rows[p][k] != 0 {
		return deposet.MsgHandle(t.rows[p][k] - 1), true
	}
	h, ok := t.other[id]
	return h, ok
}

// reserve makes room in p's row for sends more sends, at least doubling
// it when it must grow, as Builder.Reserve does its tables.
func (t *sendTable) reserve(p, sends int) {
	if want := 2*(t.sent[p]+sends) + 64; cap(t.rows[p]) < want {
		t.rows[p] = slices.Grow(t.rows[p], max(want-len(t.rows[p]), cap(t.rows[p])))
	}
}

// put records id, not yet recorded, for handle h.
func (t *sendTable) put(id uint64, h deposet.MsgHandle) {
	if p, k := id>>idProcShift, id&(1<<idProcShift-1); p < uint64(len(t.rows)) {
		t.sent[p]++
		if k < uint64(4*t.sent[p]+64) {
			if row := t.rows[p]; k >= uint64(len(row)) {
				t.rows[p] = slices.Grow(row, int(k)+1-len(row))[:k+1]
			}
			t.rows[p][k] = int32(h) + 1
			return
		}
	}
	if t.other == nil {
		t.other = make(map[uint64]deposet.MsgHandle)
	}
	t.other[id] = h
}

// NewAssembler starts the assembly of an n-node capture.
func NewAssembler(n int) *Assembler {
	return &Assembler{b: deposet.NewBuilder(2 * n), cursor: make([]int, 2*n), pending: make([]int, 2*n)}
}

// Derive makes the assembler derive the true-intervals of ¬B, for the
// B whose locals Locals returned, and hand each to offer as it closes:
// when the Let that makes its conjunct false at a later state is
// appended, and, in a strict Feed, at the top state. Call it before
// the first Feed. A variable set at no state leaves B's local false, so
// every conjunct holds at ⊥ until a Let says otherwise.
func (a *Assembler) Derive(locals []*predicate.VarLocal, offer func(Interval)) {
	d := &derivation{locals: locals, offer: offer, lo: make([]int, len(locals))}
	for p, l := range locals {
		d.lo[p] = -1
		if l != nil {
			d.lo[p] = 0
		}
	}
	a.derive = d
}

// let appends a Let to p's top state and follows its conjunct there.
func (a *Assembler) let(p int, name string, v int) {
	a.b.Let(p, name, v)
	d := a.derive
	if d == nil || d.locals[p] == nil || d.locals[p].Var != name {
		return
	}
	top, holds := a.b.Top(p), !d.locals[p].Holds(v)
	switch lo := d.lo[p]; {
	case lo >= 0 && !holds:
		if lo < top { // a run that ends below the top state
			a.close(p, top-1)
		}
		d.lo[p] = -1
	case lo < 0 && holds:
		d.lo[p] = top
	}
}

// close offers p's open run, ending at state hi.
func (a *Assembler) close(p, hi int) {
	lo := a.derive.lo[p]
	a.derive.offer(Interval{Proc: p, LoIdx: int64(lo), HiIdx: int64(hi), Lo: a.b.Deps(deposet.StateID{P: p, K: lo})})
}

// Feed advances every process as far as the streams allow. A later
// call must pass streams that extend the earlier ones. Errors do not
// name the caller; after one the assembler is unusable.
func (a *Assembler) Feed(opsByProc [][]wire.TraceOp, strict bool) error {
	if len(opsByProc) != len(a.cursor) {
		return fmt.Errorf("%d op streams for %d processes", len(opsByProc), len(a.cursor))
	}
	// Count, then allocate: tables are sized by the ops staged, never by
	// what an id off the wire claims.
	if a.sends.rows == nil {
		a.sends.rows, a.sends.sent = make([][]int32, len(a.cursor)), make([]int, len(a.cursor))
	}
	pending, sends := a.pending, 0
	for p, ops := range opsByProc {
		pending[p] = len(ops) - a.cursor[p]
		k := 0
		for i := a.cursor[p]; i < len(ops); i++ {
			if ops[i].Op == wire.TraceSend {
				k++
			}
		}
		sends += k
		a.sends.reserve(p, k)
	}
	a.b.Reserve(pending, sends)
	for progress := true; progress; {
		progress = false
		for p, ops := range opsByProc {
			i := a.cursor[p]
		run:
			for ; i < len(ops); i++ {
				op := &ops[i]
				switch op.Op {
				case wire.TraceInit, wire.TraceLet:
					a.let(p, op.Name, int(op.Value))
				case wire.TraceStep:
					a.b.Step(p)
				case wire.TraceSet:
					a.b.Step(p)
					a.let(p, op.Name, int(op.Value))
				case wire.TraceSend:
					if _, dup := a.sends.get(op.MsgID); dup {
						return fmt.Errorf("duplicate trace id %#x", op.MsgID)
					}
					_, h := a.b.Send(p)
					a.sends.put(op.MsgID, h)
				case wire.TraceRecv:
					h, ok := a.sends.get(op.MsgID)
					if !ok {
						break run // matching send not replayed yet
					}
					a.b.Recv(p, h)
				default:
					return fmt.Errorf("unknown trace op %d", op.Op)
				}
			}
			if i > a.cursor[p] {
				a.cursor[p] = i
				progress = true
			}
		}
	}
	if strict {
		for p, ops := range opsByProc {
			if at := a.cursor[p]; at < len(ops) {
				return fmt.Errorf("process %d wedged at op %d (recv of unknown message %#x)", p, at, ops[at].MsgID)
			}
		}
		// The capture is complete: every top state is final.
		for p := 0; a.derive != nil && p < len(a.derive.lo); p++ {
			if a.derive.lo[p] >= 0 {
				a.close(p, a.b.Top(p))
				a.derive.lo[p] = -1
			}
		}
	}
	return nil
}

// Consumed reports how many ops of each stream have been replayed.
func (a *Assembler) Consumed() []int { return a.cursor }

// Build returns the deposet of everything replayed so far, its
// messages numbered by sender and send event: a snapshot, cheap to
// repeat.
func (a *Assembler) Build() (*deposet.Deposet, error) { return a.b.BuildBySender() }

// AssemblePrefix replays partially captured trace ops into the largest
// causally closed prefix deposet they determine: one prefix Feed of a
// fresh Assembler, for a caller that keeps none across prefixes.
// consumed reports how many ops of each stream made it.
func AssemblePrefix(n int, opsByProc [][]wire.TraceOp) (*deposet.Deposet, []int, error) {
	a := NewAssembler(n)
	if err := a.Feed(opsByProc, false); err != nil {
		return nil, nil, fmt.Errorf("livedetect: prefix: %w", err)
	}
	d, err := a.Build()
	if err != nil {
		return nil, nil, err
	}
	return d, a.Consumed(), nil
}

// ConfirmPrefix assembles the staged capture into its causally closed
// prefix and decides possibly(violation) on it. Soundness: a
// consistent cut of a prefix is a consistent cut of every extension,
// so a cut found here exists in the completed run too. A false return
// is not a verdict — the cut may lie beyond the current prefix — which
// is why the caller retries as the capture grows and once more when
// the run completes. The returned cut indexes the 2n logical processes
// of the assembled trace.
func ConfirmPrefix(n int, opsByProc [][]wire.TraceOp, violation predicate.Expr) (deposet.Cut, bool, error) {
	d, _, err := AssemblePrefix(n, opsByProc)
	if err != nil {
		return nil, false, err
	}
	cut, found := detect.PossiblyGeneral(d, violation)
	return cut, found, nil
}
