package node

import (
	"bufio"
	"errors"
	"net"
	"sort"
	"sync"
	"time"

	"predctl/internal/wire"
)

// relaySession is the coordinator's per-relay stream state: the outer
// sequence of the relay's uplink session (RelayBatch frames, resumable
// exactly like a node stream) plus fan-in accounting for statusz. The
// per-origin inner sessions live in c.sessions as always — a relay is
// transport, not identity.
type relaySession struct {
	index int

	mu      sync.Mutex
	owner   *coordConn
	lastSeq uint64 // highest contiguous outer (uplink) sequence
	frames  uint64 // RelayBatch frames accepted
	items   uint64 // inner frames unpacked from them
	origins map[int]bool
	lastAt  time.Time
}

// relaySession returns (creating if needed) the state for relay index.
func (c *Coordinator) relaySession(index int) *relaySession {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.relays[index]
	if rs == nil {
		rs = &relaySession{index: index, origins: map[int]bool{}}
		c.relays[index] = rs
	}
	return rs
}

// attachRelay installs conn as relay index's uplink, closing any
// superseded one.
func (c *Coordinator) attachRelay(index int, conn *coordConn) {
	c.mu.Lock()
	old := c.relayConns[index]
	c.relayConns[index] = conn
	c.mu.Unlock()
	if old != nil && old != conn {
		old.Close()
	}
}

// handleRelay serves one relay uplink: RelayHello handshake (the
// relay-flavored Resume — the ack's Cum is the outer sequence, and the
// decision replay is what the relay caches for its children), then
// sequence-checked ingest of RelayBatch frames, each unpacked into
// per-origin inner frames that flow through the very same
// session-dedup-and-stage path a direct node stream takes.
func (c *Coordinator) handleRelay(conn *coordConn, br *bufio.Reader, rawConn net.Conn, h wire.RelayHello) {
	if int(h.N) != c.n || h.Relay < 0 || h.Relays < 1 || h.Relay >= h.Relays {
		c.logf("coordinator: bad relay hello %#v", h)
		return
	}
	index := int(h.Relay)
	rs := c.relaySession(index)
	rs.mu.Lock()
	rs.owner = conn
	if !h.Resume {
		// A fresh relay process: its uplink session log starts over, so
		// the outer numbering resets. The per-origin inner sessions are
		// untouched — the children kept their capture logs, and their
		// full replays dedup below by inner sequence.
		rs.lastSeq = 0
	}
	cum := rs.lastSeq
	rs.mu.Unlock()
	c.attachRelay(index, conn)

	// Same consistency contract as a node Resume: the ack and the
	// replayed decisions reflect one decision state, unraced by new
	// broadcasts.
	c.shutdownMu.Lock()
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	err := conn.writeFrame(c.opt, wire.ResumeAck{Cum: cum, Epoch: epoch})
	if err == nil {
		if last := c.lastReExecDetection(); last != nil {
			err = conn.writeFrame(c.opt, wire.Detection{
				Epoch: last.Epoch, Node: int32(last.Node),
				AtNs: last.AtNs, Cut: last.Cut,
			})
		}
	}
	if err == nil && c.shutdown {
		err = conn.writeFrame(c.opt, wire.Shutdown{Epoch: epoch})
	}
	if err == nil && c.committed {
		err = conn.writeFrame(c.opt, wire.Commit{})
	}
	c.shutdownMu.Unlock()
	if err != nil {
		c.logf("coordinator: relay %d: handshake: %v", index, err)
		return
	}

	for {
		rawConn.SetReadDeadline(time.Now().Add(30 * time.Second))
		body, err := wire.ReadRawBody(br)
		if err != nil {
			select {
			case <-c.closed:
			default:
				if !errors.Is(err, net.ErrClosed) {
					c.logf("coordinator: relay %d stream: %v", index, err)
				}
			}
			return
		}
		c.rootFrames.Add(1)
		c.rootBytes.Add(int64(len(body) + 4))
		seq, m, err := wire.DecodeBody(body)
		if err != nil {
			c.logf("coordinator: relay %d: %v", index, err)
			return
		}
		batch, ok := m.(wire.RelayBatch)
		if !ok {
			c.logf("coordinator: relay %d: unexpected %T", index, m)
			continue
		}
		rs.mu.Lock()
		if rs.owner != conn {
			rs.mu.Unlock()
			return
		}
		switch {
		case seq <= rs.lastSeq:
			// Uplink resume replay overlap: the whole batch was already
			// unpacked (inner dedup would drop it anyway, but dropping the
			// outer duplicate is cheaper and keeps the accounting honest).
			rs.mu.Unlock()
			continue
		case seq == rs.lastSeq+1:
			rs.lastSeq = seq
			rs.frames++
			rs.items += uint64(len(batch.Frames))
			rs.lastAt = time.Now()
			for _, f := range batch.Frames {
				rs.origins[int(f.Origin)] = true
			}
			rs.mu.Unlock()
		default:
			rs.mu.Unlock()
			c.logf("coordinator: relay %d: sequence gap (%d after %d); dropping connection for resume",
				index, seq, rs.lastSeq)
			return
		}
		for _, f := range batch.Frames {
			act, e := c.ingestRelayed(rs, f)
			switch act {
			case actAllDone:
				c.broadcastShutdown(e)
			case actAllByes:
				c.commitRun(e)
			case actDetected:
				c.fireDetection(int(f.Origin))
			}
		}
	}
}

// ingestRelayed unpacks one relayed inner frame into its origin's
// session: the same owner-free dedup a direct stream gets, except the
// inner sequence may jump forward — relay-side coalescing (snapshot
// folding, epoch discards) legally removes frames from the middle of a
// child's stream, so only the monotonicity matters, not contiguity.
func (c *Coordinator) ingestRelayed(rs *relaySession, f wire.RelayFrame) (ingestAction, uint32) {
	origin := int(f.Origin)
	if origin < 0 || origin >= c.n {
		c.logf("coordinator: relay %d: frame for unknown origin %d", rs.index, origin)
		return actNone, 0
	}
	kind, iseq, err := wire.PeekBody(f.Body)
	if err != nil {
		c.logf("coordinator: relay %d: origin %d: %v", rs.index, origin, err)
		return actNone, 0
	}
	st := c.session(origin)
	if kind == wire.KindHello {
		c.relayedHello(st, iseq)
		return actNone, 0
	}
	st.ingestMu.Lock()
	st.mu.Lock()
	if iseq <= st.lastSeq {
		// Relay-crash replay overlap: the relaunched relay acked Cum=0
		// and the child retransmitted its whole session log.
		st.mu.Unlock()
		st.ingestMu.Unlock()
		return actNone, 0
	}
	st.lastSeq = iseq
	st.mu.Unlock()
	_, m, err := wire.DecodeBody(f.Body)
	if err != nil {
		st.ingestMu.Unlock()
		c.logf("coordinator: relay %d: origin %d: %v", rs.index, origin, err)
		return actNone, 0
	}
	act, e := c.ingestStored(st, m, f.Body)
	st.ingestMu.Unlock()
	return act, e
}

// relayedHello runs the Hello decision for a relayed origin — the same
// fresh-vs-rejoin logic handleNode runs for a direct one, minus the
// targeted catch-up writes (the relay replays its cached decisions to
// the child locally). The root stays the sole owner of the restart
// decision: its per-origin attached bit survives relay crashes, so a
// node relaunch behind a relay still voids the epoch.
func (c *Coordinator) relayedHello(st *nodeSession, iseq uint64) {
	c.shutdownMu.Lock()
	st.ingestMu.Lock()
	st.mu.Lock()
	rejoin := st.attached
	if rejoin && c.committed {
		st.mu.Unlock()
		st.ingestMu.Unlock()
		c.shutdownMu.Unlock()
		c.logf("coordinator: node %d rejoined after commit (via relay); refused", st.id)
		return
	}
	st.attached = true
	st.resetLocked(iseq)
	if c.store != nil {
		c.store.Discard(int32(st.id))
	}
	st.mu.Unlock()
	st.ingestMu.Unlock()
	if rejoin {
		c.restartClusterLocked(st.id)
	}
	c.shutdownMu.Unlock()
}

// CoordRelayStatus is one relay's row in CoordStatus — the fan-in tree
// as `pctl top` shows it.
type CoordRelayStatus struct {
	Relay int `json:"relay"`
	// FanIn is the number of distinct origins whose frames this relay
	// has forwarded.
	FanIn int `json:"fan_in"`
	// Frames counts forwarded RelayBatch frames, Items the inner frames
	// re-batched into them.
	Frames uint64 `json:"frames"`
	Items  uint64 `json:"items"`
	// LastSeq is the uplink's highest contiguous outer sequence.
	LastSeq uint64 `json:"last_seq"`
	// LagMs is the age of the last accepted uplink frame; -1 until one
	// arrives.
	LagMs float64 `json:"lag_ms"`
}

// relayStatusRows snapshots the relay table in index order.
func (c *Coordinator) relayStatusRows() []CoordRelayStatus {
	c.mu.Lock()
	relays := make([]*relaySession, 0, len(c.relays))
	for _, rs := range c.relays {
		relays = append(relays, rs)
	}
	c.mu.Unlock()
	sort.Slice(relays, func(i, j int) bool { return relays[i].index < relays[j].index })
	var rows []CoordRelayStatus
	for _, rs := range relays {
		rs.mu.Lock()
		row := CoordRelayStatus{
			Relay: rs.index, FanIn: len(rs.origins),
			Frames: rs.frames, Items: rs.items, LastSeq: rs.lastSeq,
			LagMs: -1,
		}
		if !rs.lastAt.IsZero() {
			row.LagMs = float64(time.Since(rs.lastAt).Microseconds()) / 1e3
		}
		rs.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}
