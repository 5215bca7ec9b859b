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
// fed while the run runs (the feeder, feed), built into a prefix by the
// live confirm and finished by Wait. A pass collects staging and feeds
// only what the assembler has not seen; the feed clocks it, so a build
// is a snapshot whatever the prefix's length.
type epochAsm struct {
	mu    sync.Mutex
	a     *livedetect.Assembler // nil before the first pass
	epoch uint32                // the epoch a was fed at
	// fed holds the session generations (staged.gens) a was fed. A
	// discard leaves a stream that no longer extends the one fed, even at
	// the same epoch (a relaunch Hello discards to epoch 0), and so does
	// a second session's staging of a process, whose concatenation the
	// first one's growth changes in the middle: either starts a over.
	fed    []uint64
	snap   staged // a pass's snapshot, its slices reused
	err    error  // a failed feed: the epoch's capture does not assemble
	warned bool   // dropped ops reported at epoch
}

// advance brings the epoch's assembler up to what the sessions have
// staged at epoch e, strictly when the capture is complete, and builds
// it when build: the feeder's pass does neither, the live confirm
// builds a prefix, Wait does both. It returns no deposet and no error
// when e is older than the epoch already fed: whoever read e was
// overtaken by a restart. Only the assembler's lock is held; the
// verdict on what it returns runs with none.
func (c *Coordinator) advance(e uint32, strict, build bool) (*deposet.Deposet, error) {
	x := &c.asm
	x.mu.Lock()
	defer x.mu.Unlock()
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
	}
	if x.snap.dropped > 0 && !x.warned {
		x.warned = true
		c.logf("coordinator: %d trace ops for processes outside the run dropped at epoch %d", x.snap.dropped, e)
	}
	if x.err == nil {
		x.err = x.a.Feed(x.snap.byProc, strict)
	}
	if x.err != nil || !build {
		return nil, x.err
	}
	return x.a.Build()
}

// feed is the epoch assembler's feeder: one pass per kick from
// stageCapture, the kicks that land during a pass coalescing into one
// more, so Wait and the live confirm find the capture fed up to the last
// frame before it. It stops at Commit, whose tail Wait feeds.
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
		c.advance(e, false, false) // a failed feed is the epoch's; Wait reports it
	}
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
// feeder has not fed yet, then the build — and merges the sessions'
// journals. With the checker lit and no detection confirmed for the
// final epoch, it takes the closing verdict on the deposet it built,
// before it snapshots the detections.
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
	epoch := c.core.dec.epoch
	c.mu.Unlock()
	// Every bye was counted at the cluster epoch, so every session is at
	// it and the epoch filter selects the whole final capture.
	got := c.collect(epoch, staged{})
	// The journal streams are sorted beside the finish, with which they
	// share no data. With the checker lit only the append waits, for the
	// closing verdict, whose annotation it carries in time order.
	verdict, merged := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(merged)
		order := sortJournal(got.journal)
		<-verdict
		c.mu.Lock()
		annots := slices.Clone(c.core.annots)
		c.mu.Unlock()
		appendJournal(c.journal, got.journal, order, annots)
	}()
	if c.ld == nil {
		close(verdict)
	}
	c.assemblies.Inc()
	d, err := c.advance(epoch, true, true)
	if err != nil {
		err = fmt.Errorf("node: assemble: %w", err)
	}
	if c.ld != nil {
		// The closing verdict, when the final epoch has no confirmed
		// detection: the live verdict then coincides exactly with the
		// offline decision on the assembled trace — the streaming stage's
		// conservatism (node-level clocks over-approximate causality) can
		// cost immediacy, never a detection.
		if err == nil && !c.ld.Fired() {
			c.confirm(d, epoch, -1, true)
		}
		close(verdict)
	}
	<-merged
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
