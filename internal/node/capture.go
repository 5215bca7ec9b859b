package node

import (
	"fmt"
	"sync"

	"predctl/internal/deposet"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/vclock"
	"predctl/internal/wire"
)

// capture.go: the node side of trace capture. A networked run is
// recorded as the *same* deposet a sim run with Trace on would produce
// — logical processes 0..n-1 are the applications, n..2n-1 their
// controllers, and every protocol message (including the local
// app↔controller hops) is a deposet message — so pctl replay, detect
// and offline control consume a captured cluster run unchanged.
//
// Each node appends deposet-building ops for its two logical processes
// in their local event order and streams them to the coordinator in
// wire.Trace batches; the coordinator stages them by logical process
// (procOps, below) and replays them through the one assembler
// (livedetect.Assembler), matching sends to receives by the globally
// unique TraceID minted at each send.

// capture accumulates a node's trace ops between flushes. App and
// controller goroutines append concurrently; per-process op order is
// each goroutine's own program order, which is exactly the per-process
// event order the deposet needs.
type capture struct {
	mu       sync.Mutex
	app      int32 // the application's logical process; every other op is the controller's
	ops      []wire.TraceOp
	appState int    // app-process traced state index (0 = ⊥)
	nextMsg  uint64 // per-node message counter for TraceIDs

	// kick, when set (before the run's goroutines start, so no lock
	// guards it), is invoked whenever the buffer reaches kickAt ops —
	// the size half of the coordinator stream's size-or-interval flush
	// policy (the interval half is the coordClient flusher's tick).
	kick   func()
	kickAt int
}

// msgID mints a globally unique trace id for a message sent by logical
// process proc.
func (c *capture) msgID(proc int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextMsg++
	return uint64(proc)<<40 | c.nextMsg
}

// append buffers one op and returns the app's traced state index after
// it: an app op other than Init and Let advances it, a controller op
// leaves it alone.
func (c *capture) append(op wire.TraceOp) int {
	c.mu.Lock()
	c.ops = append(c.ops, op)
	if op.Proc == c.app && op.Op != wire.TraceInit && op.Op != wire.TraceLet {
		c.appState++
	}
	s := c.appState
	n := len(c.ops)
	c.mu.Unlock()
	if c.kick != nil && n >= c.kickAt {
		c.kick()
	}
	return s
}

// take swaps the buffered ops for spare — emptied, its capacity kept,
// so the buffer a pass has finished with is the one the next pass's
// appends fill — and returns them.
func (c *capture) take(spare []wire.TraceOp) []wire.TraceOp {
	c.mu.Lock()
	ops := c.ops
	c.ops = spare[:0]
	c.mu.Unlock()
	return ops
}

// clock is the node-level Fidge–Mattern vector clock (one component
// per node, counting that node's protocol events), shared by the app
// and controller goroutines and piggybacked on every remote message.
type clock struct {
	mu sync.Mutex
	vc vclock.VC
}

func newClock(n, id int) *clock {
	c := &clock{vc: make(vclock.VC, n)}
	return c
}

// tick advances the local component and returns a snapshot.
func (c *clock) tick(id int) vclock.VC {
	c.mu.Lock()
	c.vc[id]++
	s := c.vc.Clone()
	c.mu.Unlock()
	return s
}

// snapshot returns a copy of the current clock without advancing it.
func (c *clock) snapshot() vclock.VC {
	c.mu.Lock()
	s := c.vc.Clone()
	c.mu.Unlock()
	return s
}

// observe merges a received clock, then ticks, returning a snapshot.
func (c *clock) observe(id int, other []int32) vclock.VC {
	c.mu.Lock()
	if len(other) == len(c.vc) {
		c.vc.Merge(vclock.VC(other))
	}
	c.vc[id]++
	s := c.vc.Clone()
	c.mu.Unlock()
	return s
}

// procOps stages trace ops by logical process, in arrival order: the
// per-process streams the assembler's cursors walk. It is also the one
// place an op naming a process outside the run is dealt with — dropped
// and counted — whether it came off a live stream or out of a sealed
// bundle.
type procOps struct {
	byProc  [][]wire.TraceOp // nil until the first op, then 2n streams
	staged  int              // ops kept
	dropped int              // ops naming a process outside [0, 2n)
}

// add stages one decoded frame's ops for an n-node run. Frames arrive
// as runs of one process (the batch encoding groups them), so each run
// is one append.
func (s *procOps) add(n int, ops []wire.TraceOp) {
	if s.byProc == nil && len(ops) > 0 {
		s.byProc = make([][]wire.TraceOp, 2*n)
	}
	for len(ops) > 0 {
		p, run := ops[0].Proc, 1
		for run < len(ops) && ops[run].Proc == p {
			run++
		}
		if p < 0 || int(p) >= len(s.byProc) {
			s.dropped += run
		} else {
			s.byProc[p] = append(s.byProc[p], ops[:run]...)
			s.staged += run
		}
		ops = ops[run:]
	}
}

// stageFrame folds one capture frame into staging: trace ops into ops,
// journal events onto events. events may be nil when the caller has no
// use for the journal; a frame of another kind is ignored.
func stageFrame(n int, m wire.Msg, ops *procOps, events *[]obs.Event) {
	switch v := m.(type) {
	case wire.Trace:
		ops.add(n, v.Ops)
	case wire.TraceOpBatch:
		ops.add(n, v.Ops)
	case wire.JournalEvent:
		if events != nil {
			*events = append(*events, toObsEvent(v))
		}
	case wire.JournalBatch:
		for i := 0; events != nil && i < len(v.Events); i++ {
			*events = append(*events, toObsEvent(v.Events[i]))
		}
	}
}

func toObsEvent(e wire.JournalEvent) obs.Event {
	return obs.Event{
		At: e.At, Proc: int(e.Proc), Kind: obs.Kind(e.Kind), Name: e.Name,
		A: e.A, B: e.B, C: e.C, VC: e.VC,
	}
}

// appendTo merges the staged streams into byProc (one slot per logical
// process). A process staged by one source only — every process of a
// well-formed run — is handed over without a copy: staging is
// append-only, so elements below a stream's length never change, and
// the clipped capacity keeps a later append out of the stager's room.
func (s *procOps) appendTo(byProc [][]wire.TraceOp) {
	for p, ops := range s.byProc {
		if byProc[p] == nil {
			byProc[p] = ops[:len(ops):len(ops)]
		} else {
			byProc[p] = append(byProc[p], ops...)
		}
	}
}

// assemble replays a complete capture into its deposet: the strict mode
// of livedetect.Assembler, where a receive whose send never arrives
// means the capture is corrupt and the error says where.
func assemble(n int, opsByProc [][]wire.TraceOp) (*deposet.Deposet, error) {
	a := livedetect.NewAssembler(n)
	if err := a.Feed(opsByProc, true); err != nil {
		return nil, fmt.Errorf("node: assemble: %w", err)
	}
	return a.Build()
}
