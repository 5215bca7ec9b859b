package node

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/wire"
)

// commit.go: the commit path, from the last bye to Wait returning the
// observed computation. DESIGN.md "Commit path" has the stage budget.

// staged is a snapshot of the sessions' staged capture at one epoch.
type staged struct {
	// byProc holds the trace ops by logical process. The streams alias
	// session staging below their length and must not be written.
	byProc  [][]wire.TraceOp
	journal [][]obs.Event // one stream per session, in session order
	cands   int
	// gens holds each session's discard generation + 1, 0 for a session
	// not at the epoch: a changed generation is a discard.
	gens    []uint64
	mixed   bool // a process two sessions staged: a concatenation
	dropped int  // ops for processes outside the run, dropped at staging
}

// collect snapshots what every session has staged for epoch e, reusing
// the slices of into. Sessions still at an older epoch contribute
// nothing: their capture predates the EpochMark that will void it.
func (c *Coordinator) collect(e uint32, into staged) staged {
	s := staged{byProc: into.byProc, journal: into.journal[:0], gens: into.gens}
	if s.byProc == nil {
		s.byProc, s.gens = make([][]wire.TraceOp, 2*c.n), make([]uint64, c.n)
	}
	clear(s.byProc)
	for i, st := range c.sessions {
		st.mu.Lock()
		s.gens[i] = 0
		if st.epoch == e {
			s.gens[i] = st.gen + 1
			s.mixed = st.ops.appendTo(s.byProc) || s.mixed
			s.journal = append(s.journal, st.events[:len(st.events):len(st.events)])
			s.cands += st.cands
			s.dropped += st.ops.dropped
		}
		st.mu.Unlock()
	}
	return s
}

// epochAsm is the root's one assembler: the cluster epoch's capture,
// fed while the run runs (the feeder, feed), built into a prefix for a
// live verdict and finished by Wait. A pass collects staging and feeds
// only what the assembler has not seen; the feed clocks it, so a build
// is a snapshot whatever the prefix's length. With the checker lit and
// B's locals known, the feed also derives ¬B's intervals into it.
type epochAsm struct {
	mu    sync.Mutex
	a     *livedetect.Assembler // nil before the first pass
	epoch uint32                // the epoch a was fed at
	// fed holds the session generations (staged.gens) a was fed. A
	// discard leaves a stream that no longer extends the one fed, even at
	// the same epoch (a relaunch Hello discards to epoch 0), and so does
	// a second session's staging of a process, whose concatenation the
	// first one's growth changes in the middle: either starts a over,
	// and the checker's stream with it.
	fed    []uint64
	snap   staged // a pass's snapshot, its slices reused
	err    error  // a failed feed: the epoch's capture does not assemble
	warned bool   // dropped ops reported at epoch
}

// feedLocked brings the epoch's assembler up to what the sessions have
// staged at epoch e, strictly when the capture is complete. It returns
// no assembler and no error when e is older than the epoch already fed:
// whoever read e was overtaken by a restart. Caller holds c.asm.mu.
func (c *Coordinator) feedLocked(e uint32, strict bool) (*livedetect.Assembler, error) {
	x := &c.asm
	if x.a != nil && e < x.epoch {
		return nil, nil
	}
	x.snap = c.collect(e, x.snap)
	extends := x.a != nil && e == x.epoch && !x.snap.mixed
	for i, gen := range x.snap.gens {
		extends = extends && (x.fed[i] == 0 || x.fed[i] == gen)
	}
	copy(x.fed, x.snap.gens)
	if e != x.epoch {
		x.epoch, x.warned = e, false
	}
	if !extends {
		x.a, x.err = livedetect.NewAssembler(c.n), nil
		if c.locals != nil {
			c.ld.Restart(e)
			x.a.Derive(c.locals, func(iv livedetect.Interval) { c.ld.Offer(e, iv) })
		}
	}
	if x.snap.dropped > 0 && !x.warned {
		x.warned = true
		c.logf("coordinator: %d trace ops for processes outside the run dropped at epoch %d", x.snap.dropped, e)
	}
	if x.err == nil {
		x.err = x.a.Feed(x.snap.byProc, strict)
	}
	return x.a, x.err
}

// feed is the epoch assembler's feeder: one pass per kick from
// stageCapture, the kicks that land during a pass coalescing into one
// more, so Wait finds the capture fed up to the last frame before it.
// With the checker lit, a pass takes the mid-run verdict it owes. The
// feeder stops at Commit, whose tail Wait feeds.
func (c *Coordinator) feed() {
	defer c.wg.Done()
	for {
		select {
		case <-c.kick:
		case <-c.allByes:
			return
		case <-c.closed:
			return
		}
		c.mu.Lock()
		e := c.core.dec.epoch
		c.mu.Unlock()
		c.pass(e)
	}
}

// pass is one feeder pass, at epoch e: the feed, then, with the checker
// lit, the mid-run verdict it owes. A confirm on the fed prefix follows
// only a feed that replayed an op: on the prefix the last one read it
// would find what that one found. A failed feed is the epoch's; Wait
// reports it.
func (c *Coordinator) pass(e uint32) {
	c.asm.mu.Lock()
	defer c.asm.mu.Unlock()
	prev, fed := c.asm.a, c.asm.replayed()
	a, err := c.feedLocked(e, false)
	if a == nil || err != nil || c.ld == nil || c.locals == nil && a == prev && c.asm.replayed() == fed {
		return
	}
	c.verdictLocked(e, a, nil, false)
}

// replayed returns how many ops the assembler has replayed.
func (x *epochAsm) replayed() int {
	k := 0
	if x.a != nil {
		for _, ops := range x.a.Consumed() {
			k += ops
		}
	}
	return k
}

// journalRef is one journal event by its time, stream and index.
type journalRef struct {
	at          int64
	stream, idx int32
}

// sortJournal orders the events of streams by time, stably — ties keep
// stream order, then each stream's own: what a stable sort of the
// concatenation gives. It sorts 16-byte references, not the events, and
// needs no stream to be in time order itself (a node stamps an event
// before it takes its journal lock).
func sortJournal(streams [][]obs.Event) []journalRef {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	order := make([]journalRef, 0, total)
	for s, events := range streams {
		for i := range events {
			order = append(order, journalRef{events[i].At, int32(s), int32(i)})
		}
	}
	slices.SortStableFunc(order, func(a, b journalRef) int { return cmp.Compare(a.at, b.at) })
	return order
}

// appendJournal appends the events of streams to j in the order
// sortJournal gave them, with annots merged in by time, each after the
// stream events of its time: where a stable sort of the concatenation
// of streams and annots puts them. annots need not be in time order and
// are sorted in place. The invariant checkers order by generation
// themselves; this is for human timelines.
func appendJournal(j *obs.Journal, streams [][]obs.Event, order []journalRef, annots []obs.Event) {
	slices.SortStableFunc(annots, func(a, b obs.Event) int { return cmp.Compare(a.At, b.At) })
	for _, r := range order {
		for ; len(annots) > 0 && annots[0].At < r.at; annots = annots[1:] {
			j.Append(annots[0])
		}
		j.Append(streams[r.stream][r.idx])
	}
	for _, a := range annots {
		j.Append(a)
	}
}

// Wait blocks until every node's capture stream completed (or timeout),
// then finishes the epoch's assembler — a strict feed of what the
// feeder has not fed yet, which closes every interval still open, then
// the build — and merges the sessions' journals. With the checker lit
// and no detection confirmed for the final epoch, it takes the closing
// verdict — the derived stream's trigger, or a confirm on the deposet it
// built — before it snapshots the detections.
func (c *Coordinator) Wait(timeout time.Duration) (*Result, error) {
	select {
	case <-c.allByes:
	case <-time.After(timeout):
		stall := c.stallReport()
		c.Close()
		return nil, fmt.Errorf("node: coordinator timed out after %v (%s)", timeout, stall)
	}
	// The Commit is queued to every connection: let the writers put it
	// on the wire before an owner that closes the coordinator once Wait
	// returns can cut it off. No lock is held; a stalled peer holds this
	// up for at most the write timeout. Deliberately no Close on
	// success: a parked node whose Commit died with a broken stream
	// redials and fetches it from the resume replay, which needs the
	// listener alive. The owner's Close (or the harness's deferred one)
	// tears everything down.
	for _, conn := range c.owners() {
		if conn != nil {
			conn.out.wait()
		}
	}

	// Commit is decided: the epoch no longer moves, and a mid-run
	// verdict that lost the race to Commit is dropped, so only the
	// closing verdict below still adds a detection.
	c.mu.Lock()
	epoch, annots := c.core.dec.epoch, slices.Clone(c.core.annots)
	c.mu.Unlock()
	// Every bye was counted at the cluster epoch, so every session is at
	// it and the epoch filter selects the whole final capture.
	got := c.collect(epoch, staged{})
	// The journal streams are sorted and merged beside the finish, with
	// which they share no data, with the annotations recorded so far.
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		appendJournal(c.journal, got.journal, sortJournal(got.journal), annots)
	}()
	c.assemblies.Inc()
	c.asm.mu.Lock()
	a, err := c.feedLocked(epoch, true)
	var d *deposet.Deposet
	if err == nil {
		d, err = a.Build()
	}
	if err != nil {
		err = fmt.Errorf("node: assemble: %w", err)
	} else if c.ld != nil {
		// The closing verdict, when the final epoch has no detection yet:
		// the live verdict then coincides exactly with the offline
		// decision on the assembled trace.
		c.verdictLocked(epoch, a, d, true)
	}
	c.asm.mu.Unlock()
	<-merged
	c.mu.Lock()
	defer c.mu.Unlock()
	// What was annotated since — the closing verdict's detection — is
	// stamped after every capture event, which all precede Commit, so it
	// goes last.
	for _, a := range c.core.annots[len(annots):] {
		c.journal.Append(a)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Deposet:    d,
		Stats:      slices.Clone(c.core.stats),
		Candidates: got.cands,
		Epoch:      epoch,
		Restarts:   c.core.restarts,
		Detections: slices.Clone(c.core.detections),
		LiveFired:  c.ld != nil && c.ld.Fired(),
		ReExecs:    c.core.reexecs,
		RootConns:  c.rootConns.Load(),
		RootFrames: c.rootFrames.Load(),
		RootBytes:  c.rootBytes.Load(),
	}, nil
}
