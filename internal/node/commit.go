package node

import (
	"cmp"
	"fmt"
	"slices"
	"time"

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
}

// collect snapshots what every session has staged for epoch e.
// Sessions still at an older epoch contribute nothing: their capture
// predates the EpochMark that will void it.
func (c *Coordinator) collect(e uint32) staged {
	out := staged{byProc: make([][]wire.TraceOp, 2*c.n)}
	dropped := 0
	for _, st := range c.sessions {
		st.mu.Lock()
		if st.epoch == e {
			st.ops.appendTo(out.byProc)
			out.journal = append(out.journal, st.events[:len(st.events):len(st.events)])
			out.cands += st.cands
			dropped += st.ops.dropped
		}
		st.mu.Unlock()
	}
	if dropped > 0 {
		c.logf("coordinator: %d trace ops for processes outside the run dropped", dropped)
	}
	return out
}

// mergeJournal appends the events of streams to j in time order,
// stably — ties keep stream order, then each stream's own: what a
// stable sort of the concatenation gives. It sorts 16-byte references,
// not the events, and needs no stream to be in time order itself (a
// node stamps an event before it takes its journal lock). The invariant
// checkers order by generation themselves; this is for human timelines.
func mergeJournal(j *obs.Journal, streams [][]obs.Event) {
	type ref struct {
		at          int64
		stream, idx int32
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	order := make([]ref, 0, total)
	for s, events := range streams {
		for i := range events {
			order = append(order, ref{events[i].At, int32(s), int32(i)})
		}
	}
	slices.SortStableFunc(order, func(a, b ref) int { return cmp.Compare(a.at, b.at) })
	for _, r := range order {
		j.Append(streams[r.stream][r.idx])
	}
}

// Wait blocks until every node's capture stream completed (or timeout),
// then assembles the run from the sessions' staging — final epoch only,
// once — and merges their journals. With the checker lit and no
// detection confirmed for the final epoch, it takes the closing verdict
// on the deposet it assembled, before it snapshots the detections.
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
		conn.flush()
	}

	// Commit is decided: the epoch no longer moves, and a mid-run
	// verdict that lost the race to Commit is dropped, so only the
	// closing verdict below still adds a detection.
	c.mu.Lock()
	epoch := c.core.dec.epoch
	c.mu.Unlock()
	// Every bye was counted at the cluster epoch, so every session is at
	// it and the epoch filter selects the whole final capture.
	got := c.collect(epoch)
	// The journal merge shares no data with the assembly and runs beside
	// it — unless the checker is lit: then it follows the closing
	// verdict, whose annotation it carries in time order.
	merged := make(chan struct{})
	merge := func() {
		defer close(merged)
		c.mu.Lock()
		annots := slices.Clone(c.core.annots)
		c.mu.Unlock()
		mergeJournal(c.journal, append(got.journal, annots))
	}
	if c.ld == nil {
		go merge()
	}
	c.assemblies.Inc()
	d, err := assemble(c.n, got.byProc)
	if c.ld != nil {
		// The closing verdict, when the final epoch has no confirmed
		// detection: the live verdict then coincides exactly with the
		// offline decision on the assembled trace — the streaming stage's
		// conservatism (node-level clocks over-approximate causality) can
		// cost immediacy, never a detection.
		if err == nil && !c.ld.Fired() {
			c.confirm(d, epoch, -1, true)
		}
		merge()
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
