package livedetect

import (
	"fmt"

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
type Assembler struct {
	b       *deposet.Builder
	cursor  []int
	pending []int                        // Feed's per-process count, kept so a Feed allocates only to grow
	sends   map[uint64]deposet.MsgHandle // trace id of every replayed send
}

// NewAssembler starts the assembly of an n-node capture.
func NewAssembler(n int) *Assembler {
	return &Assembler{b: deposet.NewBuilder(2 * n), cursor: make([]int, 2*n), pending: make([]int, 2*n)}
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
	pending, sends := a.pending, 0
	for p, ops := range opsByProc {
		pending[p] = len(ops) - a.cursor[p]
		for i := a.cursor[p]; i < len(ops); i++ {
			if ops[i].Op == wire.TraceSend {
				sends++
			}
		}
	}
	a.b.Reserve(pending, sends)
	if a.sends == nil {
		a.sends = make(map[uint64]deposet.MsgHandle, sends)
	}
	for progress := true; progress; {
		progress = false
		for p, ops := range opsByProc {
			i := a.cursor[p]
		run:
			for ; i < len(ops); i++ {
				op := &ops[i]
				switch op.Op {
				case wire.TraceInit, wire.TraceLet:
					a.b.Let(p, op.Name, int(op.Value))
				case wire.TraceStep:
					a.b.Step(p)
				case wire.TraceSet:
					a.b.Step(p)
					a.b.Let(p, op.Name, int(op.Value))
				case wire.TraceSend:
					if _, dup := a.sends[op.MsgID]; dup {
						return fmt.Errorf("duplicate trace id %#x", op.MsgID)
					}
					_, a.sends[op.MsgID] = a.b.Send(p)
				case wire.TraceRecv:
					h, ok := a.sends[op.MsgID]
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
