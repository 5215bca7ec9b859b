package node

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"predctl/internal/obs"
)

// refreshLag recomputes the per-node snapshot-staleness gauges —
// predctl_coord_ingest_lag_seconds{node=...} — at scrape time, the
// introspection server's Refresh hook. A node that has never
// snapshotted has no lag series (absence is the signal).
func (c *Coordinator) refreshLag() {
	now := time.Now()
	for _, st := range c.sessions {
		st.mu.Lock()
		at := st.lastSnapAt
		st.mu.Unlock()
		if at.IsZero() {
			continue
		}
		c.live.FloatGauge("predctl_coord_ingest_lag_seconds",
			obs.L("node", strconv.Itoa(st.id))).Set(now.Sub(at).Seconds())
	}
	if c.store != nil {
		segs, bytes := c.store.Stats()
		c.live.Gauge("predctl_store_segments_total").Set(int64(segs))
		c.live.Gauge("predctl_store_segment_bytes").Set(bytes)
	}
}

// CoordStatus is the coordinator's /statusz document: the cluster's
// completion state plus one row per attached node — what `pctl top`
// renders.
type CoordStatus struct {
	N         int    `json:"n"`
	Epoch     uint32 `json:"epoch"`
	Restarts  int    `json:"restarts"`
	Done      int    `json:"done"`
	Byes      int    `json:"byes"`
	Shutdown  bool   `json:"shutdown"`
	Committed bool   `json:"committed"`
	UptimeMs  int64  `json:"uptime_ms"`
	// Live reports whether online detection is enabled; Detections is
	// the confirmed-detection count across all epochs, LiveFired whether
	// the current epoch has a confirmed detection, and ReExecs the
	// detection-triggered re-executions ordered so far.
	Live       bool              `json:"live"`
	Detections int               `json:"detections"`
	LiveFired  bool              `json:"live_fired"`
	ReExecs    int               `json:"reexecs"`
	Nodes      []CoordNodeStatus `json:"nodes"`
	// Relays holds one row per relay uplink when the cluster ingests
	// through an aggregation tree (empty for a flat topology).
	Relays []CoordRelayStatus `json:"relays,omitempty"`
	// StoreSegments / StoreBytes report the trace store's footprint
	// when capture is written through to disk (both zero without a store).
	StoreSegments int   `json:"store_segments,omitempty"`
	StoreBytes    int64 `json:"store_bytes,omitempty"`
}

// CoordNodeStatus is one node's row in CoordStatus.
type CoordNodeStatus struct {
	Node int `json:"node"`
	// Attached: a stream has handshaken for this node before; Connected:
	// a connection owns it now (never, for a node behind a relay).
	Attached   bool   `json:"attached"`
	Connected  bool   `json:"connected"`
	Epoch      uint32 `json:"epoch"` // the stream's epoch (last EpochMark)
	LastSeq    uint64 `json:"last_seq"`
	Candidates int    `json:"candidates"` // monitor.candidate journal twins staged
	// Detections counts confirmed live detections whose streaming
	// witness this node's interval completed.
	Detections int  `json:"detections"`
	Done       bool `json:"done"`
	Bye        bool `json:"bye"`
	// LagMs is the age of the node's last metrics snapshot; -1 until
	// one arrives.
	LagMs float64 `json:"lag_ms"`
	// Metrics folds the node's last snapshot into per-name totals
	// (counters and gauges, labels summed out) so pollers need not
	// parse series keys.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status assembles the live status document, one row per attached
// node. Safe to call while the run streams; it takes only brief locks.
func (c *Coordinator) Status() CoordStatus {
	now := time.Now()
	c.mu.Lock()
	r := &c.core
	s := CoordStatus{
		N: c.n, Epoch: r.dec.epoch, Restarts: r.restarts,
		Shutdown: r.dec.shutdown, Committed: r.dec.committed,
		Done: r.doneCount, Byes: r.byeCount,
		UptimeMs:   now.Sub(c.start).Milliseconds(),
		Live:       c.ld != nil,
		Detections: len(r.detections),
		ReExecs:    r.reexecs,
	}
	rows := make([]CoordNodeStatus, c.n)
	for id := range rows {
		rows[id] = CoordNodeStatus{Node: id, Done: r.doneSeen[id], Bye: r.byeSeen[id], Detections: r.detByNode[id]}
	}
	c.mu.Unlock()
	if c.ld != nil {
		s.LiveFired = c.ld.Fired()
	}
	for _, st := range c.sessions {
		row := rows[st.id]
		st.mu.Lock()
		row.Attached, row.Connected = st.attached, st.owner != nil
		row.Epoch, row.LastSeq, row.Candidates, row.LagMs = st.epoch, st.lastSeq, st.cands, -1
		row.Metrics = obs.SumByName(toObsPoints(st.lastSnap))
		if !st.lastSnapAt.IsZero() {
			// Read under the lock, not against now: a snapshot ingested
			// since Status began would read negative — "none yet".
			row.LagMs = float64(time.Since(st.lastSnapAt).Microseconds()) / 1e3
		}
		st.mu.Unlock()
		if row.Attached {
			s.Nodes = append(s.Nodes, row)
		}
	}
	s.Relays = c.relayStatusRows()
	if c.store != nil {
		s.StoreSegments, s.StoreBytes = c.store.Stats()
	}
	return s
}

// CoordRelayStatus is one relay's row in CoordStatus — the fan-in tree
// as `pctl top` shows it.
type CoordRelayStatus struct {
	Relay int `json:"relay"`
	// Connected: an uplink connection owns the relay's session now.
	Connected bool `json:"connected"`
	// FanIn is the number of distinct origins whose frames this relay
	// has forwarded.
	FanIn int `json:"fan_in"`
	// Frames counts forwarded RelayBatch frames, Items the inner frames
	// packed into them: equal to Frames unless a sender batches (a relay
	// writes one child frame per RelayBatch).
	Frames uint64 `json:"frames"`
	Items  uint64 `json:"items"`
	// LastSeq is the uplink's highest contiguous outer sequence.
	LastSeq uint64 `json:"last_seq"`
	// LagMs is the age of the last accepted uplink frame; -1 until one
	// arrives.
	LagMs float64 `json:"lag_ms"`
}

// relayStatusRows snapshots the attached relays in index order.
func (c *Coordinator) relayStatusRows() []CoordRelayStatus {
	var rows []CoordRelayStatus
	for _, rs := range c.relays {
		rs.mu.Lock()
		if !rs.attached {
			rs.mu.Unlock()
			continue
		}
		row := CoordRelayStatus{
			Relay: rs.index, Connected: rs.owner != nil, FanIn: len(rs.origins),
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

// stallReport says who an unfinished run is waiting for — what Wait's
// timeout error carries: the completion counts and whether Shutdown and
// Commit were decided, then every node that has not both finished and
// byed, then every attached relay uplink.
func (c *Coordinator) stallReport() string {
	s := c.Status()
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d, %d/%d done, shutdown decided=%t, %d/%d byes, commit decided=%t; waiting for:",
		s.Epoch, s.Done, s.N, s.Shutdown, s.Byes, s.N, s.Committed)
	seen := make([]bool, s.N)
	for _, r := range s.Nodes {
		seen[r.Node] = true
		if !r.Done || !r.Bye {
			fmt.Fprintf(&b, " node %d [attached=%t connected=%t stream epoch %d, last seq %d, done=%t bye=%t];",
				r.Node, r.Attached, r.Connected, r.Epoch, r.LastSeq, r.Done, r.Bye)
		}
	}
	for id, ok := range seen {
		if !ok {
			fmt.Fprintf(&b, " node %d [never seen];", id)
		}
	}
	for _, r := range s.Relays {
		fmt.Fprintf(&b, " relay %d [connected=%t last seq %d];", r.Relay, r.Connected, r.LastSeq)
	}
	return strings.TrimSuffix(b.String(), ";")
}
