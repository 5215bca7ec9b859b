package node

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Transport is a node's view of the cluster mesh: reliable links to
// every peer plus a listener demultiplexing inbound streams. Delivery
// to the protocol layer is exactly-once and per-peer in-order — the
// invariants the sim kernel gave the controller for free, now earned
// with sequence numbers, dedup and reordering buffers over real TCP.
type Transport struct {
	endpoint // the shared session layer's half: listener and accepted connections

	id    int
	n     int
	links []*link // by peer id; nil at self
	rs    []*recvState

	// epoch is the controlled re-execution epoch (paper §8): bumped by
	// Reset when the coordinator orders a restart after a crash. Links
	// handshake with it, the acceptor rejects mismatches, and receive
	// state is epoch-tagged so a stale connection cannot leak frames
	// from a discarded execution into the new one.
	epoch atomic.Uint32

	// badPeer counts Send calls addressed outside the mesh
	// (predctl_send_invalid_peer_total) — a controller bug surfaced as
	// an error and a metric instead of a crash.
	badPeer *obs.Counter

	recvCh chan Recv
}

// Recv is one delivered protocol message. Epoch is the re-execution
// epoch the frame was delivered under; consumers spanning a Reset can
// discard deliveries queued before the restart.
type Recv struct {
	From  int
	Epoch uint32
	Msg   wire.Msg
}

// recvState is the per-peer receive half of the reliable link: dedup
// and in-order delivery by sequence number. epoch pins the state to one
// execution: deliveries from a connection handshaken at an older epoch
// are dropped under the same lock that Reset takes, so a racing stale
// stream cannot corrupt the fresh sequence space.
type recvState struct {
	mu    sync.Mutex
	next  uint64 // next expected seq (first frame is 1)
	epoch uint32
	buf   map[uint64]wire.Msg
}

// recvBufCap bounds buffered out-of-order frames per peer; beyond it a
// frame is dropped and recovered by the sender's retransmit.
const recvBufCap = 1024

// TransportConfig configures one node's mesh endpoint.
type TransportConfig struct {
	ID       int
	N        int
	Addrs    []string // Addrs[i] is node i's listen address
	Listener net.Listener
	Faults   Faults
	Timeouts Timeouts
	// Reg, when non-nil, receives the mesh's wire metrics
	// (predctl_wire_frames_total, _bytes_total, _batch_size with
	// stream="mesh").
	Reg  *obs.Registry
	Logf func(string, ...any)
	// Start anchors the Faults.Partitions schedule; zero means "now".
	// Cluster runs share one instant so every node agrees on window
	// boundaries.
	Start time.Time
}

// NewTransport starts the mesh endpoint for node cfg.ID: it serves
// cfg.Listener (or listens on cfg.Addrs[cfg.ID]) and lazily dials
// peers on first send.
func NewTransport(cfg TransportConfig) (*Transport, error) {
	if cfg.N < 2 || cfg.ID < 0 || cfg.ID >= cfg.N {
		return nil, fmt.Errorf("node: transport id %d of %d out of range", cfg.ID, cfg.N)
	}
	if len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("node: %d addresses for %d nodes", len(cfg.Addrs), cfg.N)
	}
	opt := cfg.Timeouts.withDefaults()
	t := &Transport{
		endpoint: newEndpoint("node "+strconv.Itoa(cfg.ID), opt, cfg.Logf),
		id:       cfg.ID,
		n:        cfg.N,
		links:    make([]*link, cfg.N),
		rs:       make([]*recvState, cfg.N),
		recvCh:   make(chan Recv, 256),
	}
	if err := t.listen(cfg.Listener, cfg.Addrs[cfg.ID]); err != nil {
		return nil, err
	}
	t.badPeer = cfg.Reg.Counter("predctl_send_invalid_peer_total")
	wm := newWireMeters(cfg.Reg, "mesh")
	parts := newPartitions(cfg.Faults, cfg.Start)
	for p := 0; p < cfg.N; p++ {
		if p == cfg.ID {
			continue
		}
		t.links[p] = newLink(cfg.ID, p, cfg.N, cfg.Addrs[p], cfg.Faults, parts, &t.epoch, opt, wm, t.logf)
		t.rs[p] = &recvState{next: 1, buf: map[uint64]wire.Msg{}}
	}
	t.wg.Add(1)
	go t.acceptLoop(t.handleConn)
	return t, nil
}

// Send reliably delivers m to peer `to`. An out-of-mesh peer id is a
// controller bug, but one that must not take the node down mid-run: it
// is logged, counted in predctl_send_invalid_peer_total, and returned
// as an error the caller may inspect or ignore.
func (t *Transport) Send(to int, m wire.Msg) error {
	if to == t.id || to < 0 || to >= t.n {
		t.badPeer.Inc()
		err := fmt.Errorf("node: send to invalid peer %d from %d (n=%d)", to, t.id, t.n)
		t.logf("node %d: %v", t.id, err)
		return err
	}
	t.links[to].Send(m)
	return nil
}

// Reset moves the mesh to re-execution epoch e (paper §8 controlled
// re-execution after a crash): in-flight traffic from the abandoned
// execution is discarded, sequence spaces restart on both halves, and
// live connections are torn down so both sides re-handshake carrying
// the new epoch. Deliveries already queued on RecvCh keep their old
// Epoch tag; the consumer drops them.
func (t *Transport) Reset(e uint32) {
	t.epoch.Store(e)
	// Close inbound streams first: a stale peer writing into an old
	// connection must fail fast and redial with its (eventually bumped)
	// epoch rather than feed the old execution's frames to deliver.
	t.dropConns()
	for p, rs := range t.rs {
		if rs == nil {
			continue
		}
		rs.mu.Lock()
		rs.next = 1
		rs.epoch = e
		clear(rs.buf)
		rs.mu.Unlock()
		t.links[p].reset(e)
	}
}

// RecvCh is the stream of delivered protocol messages, exactly-once
// and in per-peer order.
func (t *Transport) RecvCh() <-chan Recv { return t.recvCh }

// Close tears the endpoint down: listener, inbound connections, links.
func (t *Transport) Close() {
	t.stop()
	for _, l := range t.links {
		if l != nil {
			l.close()
		}
	}
	t.wg.Wait()
}

// handleConn serves one inbound stream: handshake, then demultiplex
// frames until the peer goes away (it will reconnect and the persistent
// per-peer recvState keeps dedup working across connections). The
// stream is pinned to the epoch it handshook at; after a Reset, the
// per-frame epoch check inside deliver drops anything still in flight
// and the connection is closed by Reset itself.
func (t *Transport) handleConn(raw net.Conn) {
	conn, _, _, first, err := t.open(raw)
	if err != nil {
		return
	}
	// Hello opens an epoch-0 stream, Resume one at an explicit epoch. On
	// top of the node handshake the mesh refuses its own id and any epoch
	// but its current one: a peer still executing a discarded epoch, or
	// one that restarted ahead of us, redials once the Restart broadcast
	// brings both sides level.
	from, epoch, _, err := nodeHandshake(first, t.n)
	if err == nil && from == t.id {
		err = fmt.Errorf("invalid peer id %d", from)
	}
	if cur := t.epoch.Load(); err == nil && epoch != cur {
		err = fmt.Errorf("peer %d at epoch %d, ours is %d", from, epoch, cur)
	}
	if err != nil {
		t.logf("node %d: inbound handshake: %v", t.id, err)
		return
	}
	raw.SetReadDeadline(time.Time{}) // the handshake's; an idle mesh link is not an error
	for {
		seq, m, err := wire.ReadFrame(conn.br)
		if err != nil {
			select {
			case <-t.closed:
			default:
				if !errors.Is(err, net.ErrClosed) {
					t.logf("node %d: read from %d: %v", t.id, from, err)
				}
			}
			return
		}
		switch v := m.(type) {
		case wire.LinkAck:
			t.links[from].onAck(v.Cum, epoch)
		default:
			t.deliver(from, epoch, seq, m)
		}
	}
}

// deliver runs the receive half of the reliable link: acknowledge,
// deduplicate, reorder, and hand frames to the protocol in sequence
// order. epoch is the connection's handshake epoch; a frame from a
// stream older than the recvState's epoch is dropped unacknowledged
// (the check shares rs.mu with Reset, so the race between a stale
// in-flight frame and an epoch bump resolves safely either way).
func (t *Transport) deliver(from int, epoch uint32, seq uint64, m wire.Msg) {
	rs := t.rs[from]
	var ready []wire.Msg
	rs.mu.Lock()
	if epoch != rs.epoch {
		rs.mu.Unlock()
		return
	}
	switch {
	case seq < rs.next:
		// Duplicate of an already-delivered frame (shim dup, retransmit
		// crossing an ack, or replay after reconnect): drop, but re-ack
		// so the sender stops retransmitting.
	case seq == rs.next:
		ready = append(ready, m)
		rs.next++
		for {
			nm, ok := rs.buf[rs.next]
			if !ok {
				break
			}
			delete(rs.buf, rs.next)
			ready = append(ready, nm)
			rs.next++
		}
	default: // a gap: buffer until retransmission fills it
		if len(rs.buf) < recvBufCap {
			rs.buf[seq] = m
		}
	}
	cum := rs.next - 1
	rs.mu.Unlock()
	t.links[from].Ack(cum, epoch)
	for _, rm := range ready {
		select {
		case t.recvCh <- Recv{From: from, Epoch: epoch, Msg: rm}:
		case <-t.closed:
			return
		}
	}
}
