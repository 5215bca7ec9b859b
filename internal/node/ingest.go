package node

import (
	"fmt"
	"strconv"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// nodeSession is the coordinator's per-node-id stream state: the
// inbound stream (session.go) plus what it staged. Staged capture (ops
// and journal events) belongs to the session's current epoch and is
// discarded wholesale when an EpochMark announces a newer one, or a
// relaunched node's Hello voids its dead incarnation's. The session
// lock, not the decision lock, guards the hot ingest path: no global
// serialization, which the batched ingest bench pins.
type nodeSession struct {
	id int
	inbound

	// Under inbound.mu:
	epoch  uint32  // the stream's current epoch (last EpochMark seen)
	gen    uint64  // discards so far: staging is append-only between two
	ops    procOps // staged by logical process at ingest
	events []obs.Event
	cands  int // monitor.candidate journal twins among events
	// byed: the stream's bye was counted at the cluster epoch, so its
	// capture is closed — what Commit seals is what Wait assembles.
	// late counts the capture frames refused since.
	byed bool
	late int

	// Live-observability state: the node's latest cumulative metrics
	// snapshot and when it arrived. Deliberately NOT cleared on epoch
	// discard — the registry is cumulative across re-executions, so the
	// dashboard keeps its history through a restart.
	lastSnap   []wire.MetricPoint
	lastSnapAt time.Time
	snapEpoch  uint32
}

// discardEpochLocked drops the staged capture when the stream enters
// epoch e (0: a relaunched node starting over). Capture written through
// to the trace store needs no discard: each record carries the epoch it
// was staged at, and the bundle is read at its sealed epoch, which every
// discard leaves behind for good — an EpochMark moves the stream to a
// later epoch, and a relaunch is followed by the cluster's epoch bump (a
// relaunch after Commit is refused and discards nothing). Caller holds
// s.mu.
func (s *nodeSession) discardEpochLocked(e uint32) {
	s.epoch = e
	s.gen++
	s.ops, s.events, s.cands = procOps{}, nil, 0
	s.byed, s.late = false, 0
}

// stageCapture lands one capture frame in the session's staging and,
// with a trace store, writes it through to the store for the bundle.
// raw is the frame's wire body as read off the stream (nil when the
// caller only has the decoded message, in which case the body is
// re-encoded — the bytes are identical either way, which is what keeps
// the sealed bundle byte-equal to in-RAM staging). The caller holds the
// session's ingestMu, so the store sees each origin's frames in staging
// order. Staging kicks the epoch assembler's feeder, when one runs. A
// frame that follows the stream's counted bye is refused: the
// capture ended there on the node's side too, and a straggler landing
// after the seal would be in Wait's deposet but not under the manifest.
//
// A failed append is loud but non-fatal: staging is whole without the
// store, so the run goes on, every later append is skipped — for every
// session — and seal leaves the store unsealed rather than bless a
// bundle with a hole in it.
func (c *Coordinator) stageCapture(st *nodeSession, m wire.Msg, raw []byte) {
	st.mu.Lock()
	e := st.epoch
	if st.byed {
		st.late++
		first := st.late == 1
		st.mu.Unlock()
		if first {
			c.logf("coordinator: node %d: %T after its bye at epoch %d; capture is closed, dropping", st.id, m, e)
		}
		return
	}
	staged := len(st.events)
	stageFrame(c.n, m, &st.ops, &st.events)
	twins := 0
	for i := staged; i < len(st.events); i++ {
		if st.events[i].Name == obs.EvCandidate {
			twins++
		}
	}
	st.cands += twins
	st.mu.Unlock()
	if twins > 0 {
		c.cands.Add(int64(twins))
	}
	select {
	case c.kick <- struct{}{}:
	default: // a pass is already due, or no feeder runs (kick is nil)
	}
	if c.store == nil || c.spillFailed.Load() {
		return
	}
	if raw == nil {
		raw = wire.AppendBody(nil, 0, m)
	}
	if err := c.store.Append(int32(st.id), e, raw); err != nil && !c.spillFailed.Swap(true) {
		c.logf("coordinator: node %d: store append: %v; no further appends, the store will not be sealed", st.id, err)
	}
}

// ingestStored folds one frame from a node's stream into the
// coordinator state. Trace traffic — the volume — lands in the session's
// own staging under the session lock (and in the trace store when one
// is configured; raw carries the frame's wire body so the append needs
// no re-encode, nil when the caller only has the decoded frame); only
// the rare coordination frames (Done, Shutdown, EpochMark) take the
// decision lock for a core step, and this call seals the Commit one
// decides.
func (c *Coordinator) ingestStored(st *nodeSession, m wire.Msg, raw []byte) {
	switch v := m.(type) {
	case wire.Trace, wire.TraceOpBatch, wire.JournalEvent, wire.JournalBatch:
		c.stageCapture(st, m, raw)
	case wire.MetricsSnapshot:
		st.mu.Lock()
		st.lastSnap = v.Points
		st.lastSnapAt = time.Now()
		st.snapEpoch = v.Epoch
		st.mu.Unlock()
		// Cumulative set semantics make re-applied resume replays
		// idempotent; the node label scopes series from nodes that
		// don't already label themselves.
		c.live.ApplySnapshot(toObsPoints(v.Points), obs.L("node", strconv.Itoa(st.id)))
	case wire.Candidate, wire.CandidateBatch:
		// No node sends one any more: the root derives the intervals
		// from the capture. A stray one is read and dropped.
	case wire.Done, wire.Shutdown, wire.EpochMark:
		// Staging first — a newer EpochMark discards the stream's
		// capture — then the decision, at the stream's epoch.
		st.mu.Lock()
		if v, ok := m.(wire.EpochMark); ok && v.Epoch > st.epoch {
			st.discardEpochLocked(v.Epoch)
		}
		e := st.epoch
		st.mu.Unlock()
		c.mu.Lock()
		o := c.core.step(st.id, e, m, c.sinceStart())
		if o.counted {
			// The stream's frames reach here one at a time (the gate's
			// ingestMu), so no capture frame slips between the count and
			// the flag.
			st.mu.Lock()
			st.byed = true
			st.mu.Unlock()
		}
		c.carry(nil, o)
		c.mu.Unlock()
		if o.seal {
			c.seal(e)
		}
	default:
		c.logf("coordinator: node %d: unexpected %T", st.id, m)
	}
}

// IngestBench replays pre-encoded frame bodies through the
// coordinator's decode-and-stage path — exactly what handleConn does
// per frame, minus the socket and the gate — so the cluster bench can
// measure ingest allocations per trace op without standing up a
// listener. It returns the number of trace ops staged.
func IngestBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	return ingestBench(n, journal, bodies, func(c *Coordinator, m wire.Msg, body []byte) error {
		c.ingestStored(c.sessions[0], m, body)
		return nil
	})
}

// IngestRelayBench replays pre-encoded RelayBatch frame bodies through
// the root's relayed-ingest path — unpack, per-origin inner-sequence
// gate, decode-and-stage — the socket-free twin of IngestBench for the
// tree topology. It returns the number of trace ops staged across all
// origins.
func IngestRelayBench(n int, journal *obs.Journal, bodies [][]byte) (int, error) {
	return ingestBench(n, journal, bodies, func(c *Coordinator, m wire.Msg, _ []byte) error {
		if _, ok := m.(wire.RelayBatch); !ok {
			return fmt.Errorf("node: relay ingest bench: %T, want RelayBatch", m)
		}
		c.unpackRelayed(c.relays[0], nil, m)
		return nil
	})
}

// ingestBench feeds the decoded bodies to a listener-free coordinator,
// then drains what it staged: journal events into journal, and the
// count of trace ops.
func ingestBench(n int, journal *obs.Journal, bodies [][]byte, feed func(*Coordinator, wire.Msg, []byte) error) (int, error) {
	c := newCoordinator(n, journal, func(string, ...any) {})
	for _, body := range bodies {
		_, m, err := wire.DecodeBody(body)
		if err == nil {
			err = feed(c, m, body)
		}
		if err != nil {
			return 0, err
		}
	}
	ops := 0
	for _, st := range c.sessions {
		ops += st.ops.staged
		for _, e := range st.events {
			journal.Append(e)
		}
	}
	return ops, nil
}
