package node

import (
	"fmt"
	"sync"
	"time"

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
// wire.TraceOpBatch frames; the coordinator stages them by logical process
// (procOps, below) and replays them through the one assembler
// (livedetect.Assembler), matching sends to receives by the globally
// unique TraceID minted at each send.

// capture is one epoch's pending capture on a node — the trace ops the
// app and controller goroutines append, the journal events they
// forward, the monitor's candidates — and the flusher that drains all
// three onto the coordinator session in one pass. Per-process op order
// is each goroutine's own program order, which is exactly the
// per-process event order the deposet needs.
//
// A pass is due when MaxItems ops or journal events are pending, when a
// candidate arrives (the coordinator's live checker is waiting on it),
// and at every Interval tick; every SnapshotEvery-th pass also sends a
// metrics snapshot. A re-execution builds a fresh capture and stops the
// old one before the session's EpochMark, so nothing of an abandoned
// epoch can follow the mark that voids it: what it left pending dies
// with it.
type capture struct {
	cc       *coordClient
	batch    Batching
	reg      *obs.Registry // streamed as MetricsSnapshot frames; nil: none
	epoch    uint32
	runStart time.Time // snapshots' AtNs count from it

	mu       sync.Mutex
	app      int32 // the application's logical process; every other op is the controller's
	ops      []wire.TraceOp
	events   []wire.JournalEvent
	cands    []wire.Candidate
	appState int    // app-process traced state index (0 = ⊥)
	nextMsg  uint64 // per-node message counter for TraceIDs

	// The pending buffers are double-buffered: a pass swaps each for its
	// emptied spare, encodes what it took, and keeps the cleared slice as
	// the next pass's spare, so steady state grows nothing. The spares
	// belong to the one flusher: the goroutine start runs, then stop.
	spareOps    []wire.TraceOp
	spareEvents []wire.JournalEvent
	spareCands  []wire.Candidate

	wake     chan struct{} // cap 1: a pass is due ahead of the tick
	quit     chan struct{} // closed by stop
	done     chan struct{} // closed as the flusher goroutine exits
	stopOnce sync.Once
}

// newCapture builds epoch's capture for the node cfg describes, writing
// to cc.
func newCapture(cc *coordClient, cfg Config, epoch uint32, start time.Time) *capture {
	c := &capture{
		cc: cc, batch: cfg.Batching.withDefaults(), epoch: epoch, runStart: start,
		app:  int32(cfg.ID),
		wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{}),
	}
	if c.batch.SnapshotEvery > 0 {
		c.reg = cfg.Reg
	}
	return c
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
	full := len(c.ops) >= c.batch.MaxItems
	c.mu.Unlock()
	if full {
		c.wakeFlusher()
	}
	return s
}

// journal buffers one journal event for the coordinator's merged
// journal.
func (c *capture) journal(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, wire.JournalEvent{
		At: e.At, Proc: int32(e.Proc), Kind: uint8(e.Kind), Name: e.Name,
		A: e.A, B: e.B, C: e.C, VC: e.VC,
	})
	full := len(c.events) >= c.batch.MaxItems
	c.mu.Unlock()
	if full {
		c.wakeFlusher()
	}
}

// candidate buffers one monitor candidate and kicks a pass: the
// coordinator's live checker is waiting on it, so it does not wait for
// the tick. Under load the kicks coalesce (the channel holds one) and a
// pass carries whatever accumulated while the previous one was on the
// wire, so candidates never mean a frame each.
func (c *capture) candidate(v wire.Candidate) {
	c.mu.Lock()
	c.cands = append(c.cands, v)
	c.mu.Unlock()
	c.wakeFlusher()
}

// wakeFlusher starts a pass ahead of the interval tick.
func (c *capture) wakeFlusher() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// start runs the flusher goroutine until stop.
func (c *capture) start() {
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.batch.Interval)
		defer tick.Stop()
		for passes := 1; ; passes++ {
			select {
			case <-c.quit:
				return
			case <-c.wake:
			case <-tick.C:
			}
			c.flush()
			if c.reg != nil && passes%c.batch.SnapshotEvery == 0 {
				c.sendSnapshot()
			}
		}
	}()
}

// stop ends the flusher and, with drain, sends everything still pending
// and a closing snapshot — so even a run shorter than the snapshot
// cadence reports final per-node values — ahead of the node's final
// Done and bye. Without drain (a restart, the crash path) the pending
// capture is abandoned, exactly as a killed process would abandon it.
// Only the first call acts: a capture once stopped stays silent, so an
// append that straggles in afterwards is never sent.
func (c *capture) stop(drain bool) {
	c.stopOnce.Do(func() {
		close(c.quit)
		<-c.done
		if drain {
			c.flush()
			c.sendSnapshot()
		}
	})
}

// flush is one pass: it swaps out the pending journal events, trace ops
// and candidates at once, sequences them onto the session log as batch
// frames of at most MaxItems items each, and puts the pass on the wire
// with one vectored write.
func (c *capture) flush() {
	c.mu.Lock()
	events, ops, cands := c.events, c.ops, c.cands
	c.events, c.ops, c.cands = c.spareEvents, c.spareOps, c.spareCands
	c.mu.Unlock()
	logBatches(c, events, func(b []wire.JournalEvent) wire.Msg { return wire.JournalBatch{Events: b} })
	// Trace ops flush before candidates: a candidate can trigger the
	// coordinator's live prefix confirmation, and the confirmable prefix
	// only contains states whose ops are already staged — ops first
	// keeps the prefix as fresh as the candidate that probes it.
	logBatches(c, ops, func(b []wire.TraceOp) wire.Msg { return wire.TraceOpBatch{Ops: b} })
	logBatches(c, cands, func(b []wire.Candidate) wire.Msg { return wire.CandidateBatch{Cands: b} })
	c.cc.writeLogged()
	// Every frame above was encoded as it was logged, so nothing refers
	// to the taken slices any more.
	c.spareEvents, c.spareOps, c.spareCands = recycle(events), recycle(ops), recycle(cands)
}

// logBatches sequences items onto the session log as frames of at most
// MaxItems each.
func logBatches[T any](c *capture, items []T, frame func([]T) wire.Msg) {
	for len(items) > 0 {
		n := min(len(items), c.batch.MaxItems)
		c.cc.logItems(frame(items[:n]), n)
		items = items[n:]
	}
}

// recycle empties a slice whose items a pass has encoded for use as the
// next swap's spare. The items are cleared, not just cut off: a
// recycled buffer must never show an old item — or pin its clock —
// under a new length.
func recycle[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// sendSnapshot sequences one cumulative metrics dump onto the session.
// Snapshots ride the session log like every capture frame, so resume
// replay re-delivers them — harmless, since applying a full cumulative
// dump is idempotent.
func (c *capture) sendSnapshot() {
	if c.reg == nil {
		return
	}
	pts := toWirePoints(c.reg.Snapshot())
	if len(pts) == 0 {
		return
	}
	c.cc.send(wire.MetricsSnapshot{
		Proc: int32(c.cc.id), Epoch: c.epoch,
		AtNs: time.Since(c.runStart).Nanoseconds(), Points: pts,
	})
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
// process) and reports whether a process already had ops there. A
// process staged by one source only — every process of a well-formed
// run — is handed over without a copy: staging is append-only, so
// elements below a stream's length never change, and the clipped
// capacity keeps a later append out of the stager's room.
func (s *procOps) appendTo(byProc [][]wire.TraceOp) (mixed bool) {
	for p, ops := range s.byProc {
		if byProc[p] == nil {
			byProc[p] = ops[:len(ops):len(ops)]
		} else if len(ops) > 0 {
			byProc[p] = append(byProc[p], ops...)
			mixed = true
		}
	}
	return mixed
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
