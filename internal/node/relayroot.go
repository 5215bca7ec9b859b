package node

import (
	"strconv"
	"time"

	"predctl/internal/wire"
)

// relaySession is the coordinator's per-relay stream state: the inbound
// outer stream of the relay's uplink session (RelayBatch frames,
// resumable exactly like a node stream) plus fan-in accounting for
// statusz. The per-origin inner sessions live in c.sessions as always —
// a relay is transport, not identity.
type relaySession struct {
	index int
	inbound

	// Under inbound.mu:
	frames  uint64 // RelayBatch frames accepted
	items   uint64 // inner frames unpacked from them
	origins map[int]bool
	lastAt  time.Time
}

// handleRelay serves one relay uplink: RelayHello handshake (the
// relay-flavored Resume — the ack's Cum is the outer sequence, and the
// decision replay is what the relay caches for its children), then
// sequence-gated ingest of RelayBatch frames, each unpacked into
// per-origin inner frames that flow through the very same gate-and-
// stage path a direct node stream takes. A tree has at most one relay
// per node: a RelayHello claiming more is refused, since every index is
// a session the root keeps for the run.
func (c *Coordinator) handleRelay(conn *coordConn, h wire.RelayHello) {
	if int(h.N) != c.n || h.Relay < 0 || h.Relays < 1 || h.Relay >= h.Relays || int(h.Relays) > c.n {
		c.logf("coordinator: bad relay hello %#v", h)
		return
	}
	conn.peer = "relay " + strconv.Itoa(int(h.Relay))
	rs := c.relays[h.Relay]
	// A fresh relay process (Resume unset) starts a new uplink session
	// log, so the outer numbering resets; the per-origin inner sessions
	// are untouched — the children kept their capture logs, and their
	// full replays dedup by inner sequence. A resumed uplink gets every
	// Hello answer it may have lost with the replay.
	var ids []int
	for id := 0; h.Resume && id < c.n; id++ {
		ids = append(ids, id)
	}
	c.handshake(&rs.inbound, conn, !h.Resume, ids...)
	c.serve(conn, c.countFrame, func(body []byte) error {
		seq, m, err := wire.DecodeBody(body)
		if err != nil {
			return err
		}
		// The gate is held across the whole unpack — a superseding uplink
		// must not interleave its batches' inner frames with this one's —
		// and the verdicts the inner frames triggered run after its release.
		var witnesses []int
		err = rs.deliver(conn, seq, func() { witnesses = c.unpackRelayed(rs, conn, m) })
		for _, w := range witnesses {
			c.fireDetection(w)
		}
		return err
	})
}

// unpackRelayed folds one accepted uplink frame, delivered on uplink,
// into the origins' sessions, returning the origins whose frames
// triggered the live checker. Caller holds rs.ingestMu: it is deliver's
// staging step.
func (c *Coordinator) unpackRelayed(rs *relaySession, uplink *coordConn, m wire.Msg) (witnesses []int) {
	batch, ok := m.(wire.RelayBatch)
	if !ok {
		c.logf("coordinator: relay %d: unexpected %T", rs.index, m)
		return nil
	}
	rs.mu.Lock()
	rs.frames++
	rs.items += uint64(len(batch.Frames))
	rs.lastAt = time.Now()
	rs.mu.Unlock()
	for _, f := range batch.Frames {
		origin := int(f.Origin)
		if origin < 0 || origin >= c.n {
			c.logf("coordinator: relay %d: frame for unknown origin %d", rs.index, origin)
			continue
		}
		rs.mu.Lock()
		rs.origins[origin] = true
		rs.mu.Unlock()
		// Relayed mode: no owning connection, a Hello answered on the
		// uplink. A duplicate — a relaunched relay acked Cum=0 and the
		// child retransmitted its whole session log — is dropped by the
		// origin's gate.
		detected, err := c.ingest(c.sessions[origin], nil, uplink, f.Body)
		if err != nil {
			c.logf("coordinator: relay %d: origin %d: %v", rs.index, origin, err)
		}
		if detected {
			witnesses = append(witnesses, origin)
		}
	}
	return witnesses
}
