package node

import (
	"fmt"
	"net"
	"strconv"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// Relay is the middle tier of a hierarchical ingest tree: it terminates
// the resumable capture streams of a subset of nodes with the session
// layer the root coordinator uses (session.go), so to a child a relay
// looks exactly like a coordinator — but instead of staging capture it
// writes each accepted raw frame body through to the root, wrapped as a
// one-frame wire.RelayBatch, over one session. The root therefore
// handles O(relays) connections instead of O(n), while resume and
// epoch semantics compose across both hops: the relay's uplink IS a
// coordClient (the same session log, redial/backoff and retransmit
// code), with a RelayHello handshake. The uplink folds the root's
// decisions like any client; the relay only fans each folded frame out
// to the children and answers their Resumes from the fold; a child's
// Hello gets the root's answer, down the uplink.
//
// A relay crash heals like a coordinator-stream sever: children redial
// with backoff and offer Resume; the relaunched relay has no per-child
// state, acks Cum=0, and the children replay their entire session logs
// — Hellos included, since a node's Hello is frame 1 of its log — and
// the root's per-origin inner-sequence dedup absorbs the overlap.
//
// The relay has no policy but to refuse a child's Hello below the last
// incarnation it took, a dead predecessor's: it forwards every frame it
// accepts, in order, and the root alone decides rejoins, epoch discards
// and snapshots.
type Relay struct {
	endpoint // the shared session layer's half: listener, connections, streams
	cfg      RelayConfig
	// cc is the uplink. Its decMu is the relay's decision lock: folding
	// a root decision plus queueing it to every child, and a child
	// Resume's adoption plus queueing the decision replay, are atomic
	// against each other — no fan-out can reach a resuming child ahead
	// of its ResumeAck. Nothing is written under it: each child's
	// connection writes its own queue (session.go, coordConn).
	cc *coordClient

	// children holds each node's stream by id, fixed at construction: the
	// downstream mirror of the root's nodeSession, minus the staging.
	// Reading it takes no lock.
	children []*inbound
	incs     []uint64 // the incarnation of each child's last Hello handshake; under its ingestMu
}

// RelayConfig configures one relay.
type RelayConfig struct {
	// Index identifies this relay (0..Relays-1); Relays is the tree's
	// fan-in width (at most N), N the cluster size.
	Index  int
	Relays int
	N      int
	// Upstream is the root coordinator's address.
	Upstream string
	// Addr/Listener is the downstream side the children dial. When
	// Listener is non-nil it is used directly (Addr ignored).
	Addr     string
	Listener net.Listener
	Timeouts Timeouts
	// Reg receives the relay's wire meters (uplink stream).
	Reg  *obs.Registry
	Logf func(string, ...any)
}

// StartRelay establishes the upstream session (blocking until the root
// answers or the coordinator deadline passes), then begins accepting
// children. The synchronous uplink handshake is what guarantees every
// child's ResumeAck carries the cluster's current epoch.
func StartRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.N < 2 || cfg.Relays < 1 || cfg.Relays > cfg.N || cfg.Index < 0 || cfg.Index >= cfg.Relays {
		return nil, fmt.Errorf("node: relay %d/%d for n=%d: bad shape", cfg.Index, cfg.Relays, cfg.N)
	}
	r := &Relay{
		endpoint: newEndpoint("relay "+strconv.Itoa(cfg.Index), cfg.Timeouts.withDefaults(), cfg.Logf),
		cfg:      cfg,
		children: make([]*inbound, cfg.N),
		incs:     make([]uint64, cfg.N),
	}
	for id := range r.children {
		r.children[id] = &inbound{}
		r.register(r.children[id])
	}
	if err := r.listen(cfg.Listener, cfg.Addr); err != nil {
		return nil, err
	}
	cc := newCoordClient(cfg.Upstream, -(cfg.Index + 1), cfg.N, newWireMeters(cfg.Reg, "uplink"), r.opt, nil, r.logf)
	cc.mkResume, cc.fanOut = r.mkResume, func(m wire.Msg) { fanOut(m, r.broadcast) }
	r.cc = cc

	// First contact runs the same resume path every later redial runs:
	// RelayHello out, ResumeAck in, retransmit past Cum (nothing, yet).
	conn, br, err := cc.resume()
	if err != nil {
		r.ln.Close()
		return nil, fmt.Errorf("node: relay %d: root %s: %w", cfg.Index, cfg.Upstream, err)
	}
	go cc.session(conn, br)

	r.wg.Add(1)
	go r.acceptLoop(r.handleChild)
	return r, nil
}

// Close tears the relay down abruptly: listener, children, uplink. A
// chaos kill uses exactly this — no drain, no goodbye — and the tree
// heals through the two resume hops.
func (r *Relay) Close() {
	r.stop()
	r.cc.close()
	r.wg.Wait()
}

// mkResume builds the uplink handshake. Resume=false tells the root to
// reset the outer session numbering while keeping every per-origin
// inner session — the difference between a relay relaunch (children
// keep their capture logs) and a node relaunch (its log died with it).
// A fresh relay process has an empty uplink log, and an empty log with
// nothing accepted is all a reset can reset.
func (r *Relay) mkResume() wire.Msg {
	return wire.RelayHello{
		Relay: int32(r.cfg.Index), Relays: int32(r.cfg.Relays), N: int32(r.cfg.N),
		Resume: r.cc.sentFrames() > 0, Epoch: r.cc.decisions().epoch,
	}
}

// fanOut hands root frame m, as the uplink folds it under decMu, to a
// relay's children by broadcast: m, but the uplink's ResumeAck past
// epoch 0 as that epoch's Restart (one may have died with the broken
// uplink), which answers no Hello.
func fanOut(m wire.Msg, broadcast func(...wire.Msg)) {
	if ack, ok := m.(wire.ResumeAck); ok {
		if ack.Epoch == 0 {
			return
		}
		m = wire.Restart{Epoch: ack.Epoch}
	}
	broadcast(m)
}

// handleChild serves one child connection: the handshake contract the
// root implements — Resume continues with a cumulative ack and the
// uplink's folded decisions replayed; Hello opens — then sequence-gated
// write-through of raw frame bodies onto the uplink. A Hello is
// forwarded like any frame, and answered by the root alone: it is frame
// 1 of the child's session log, and the root's per-origin incarnation
// record, which survives relay crashes, tells a relaunch from a first
// join. A Resume's adoption and replay are one step under decMu; a
// Hello is sequenced onto the uplink without it, as the lock order has
// it (session.go): a fold never waits behind an uplink write.
func (r *Relay) handleChild(raw net.Conn) {
	conn, body, seq, first, err := r.open(raw)
	if err != nil {
		return
	}
	id, _, fresh, err := nodeHandshake(first, r.cfg.N)
	if err != nil {
		r.logf("relay %d: bad handshake: %v", r.cfg.Index, err)
		return
	}
	conn.peer = "node " + strconv.Itoa(id)
	ch := r.children[id]
	ch.ingestMu.Lock()
	if h, ok := first.(wire.Hello); ok && h.Inc < r.incs[id] {
		ch.ingestMu.Unlock()
		r.logf("relay %d: node %d: incarnation %d's Hello after a later one's; refused", r.cfg.Index, id, h.Inc)
		return
	}
	if fresh {
		r.incs[id] = first.(wire.Hello).Inc
		// Sequenced before ingestMu is released, so a successor
		// connection's frames queue behind it.
		ch.adoptLocked(conn, true, seq)
		r.stage(int32(id), body)
	} else {
		r.cc.decMu.Lock()
		conn.send(r.cc.dec.replay(ch.adoptLocked(conn, false, 0))...)
		r.cc.decMu.Unlock()
	}
	ch.ingestMu.Unlock()
	r.cc.writeLogged()
	r.serve(conn, nil, func(body []byte) error {
		seq, err := wire.PeekBody(body)
		if err != nil {
			return err
		}
		err = ch.deliver(conn, seq, func() { r.stage(int32(id), body) })
		r.cc.writeLogged()
		return err
	})
}

// stage sequences one raw child frame body onto the uplink's session
// log — renumbered, resumable, metered — under the child's ingestMu, so
// an origin's frames keep their order. The caller writes the log out
// once its locks are released.
func (r *Relay) stage(origin int32, body []byte) {
	r.cc.logItems(wire.RelayBatch{Frames: []wire.RelayFrame{{Origin: origin, Body: body}}}, 1)
}
