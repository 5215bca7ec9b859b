package node

import (
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
	"time"

	"predctl/internal/wire"
)

// explore_test.go: an exhaustive explorer of the composed control plane.
// The root's decision core (rootCore.step and resume), one relay's
// uplink fold and fan-out (decisions.fold, fanOut) and k nodes' folds
// and steps (incarnation.step) — the runtime's own pure code, with no
// lock, socket or clock around it — are connected by FIFO queues, one
// per direction per connection: TCP is FIFO, so a queue per connection
// is the whole network model. The sequence gates, session logs, resume
// handshakes and handshake replays around them are modelled after
// inbound.deliver, coordClient.resume and Coordinator.handshake. A DFS picks which queue delivers next, or which fault
// strikes, with sleep sets for moves of different processes and a hash
// of visited states, and checks at every state:
//
//  1. a node runs epoch e only after the root has decided its
//     incarnation's Hello at an epoch ≤ e;
//  2. at most one incarnation per node runs at each epoch;
//  3. no Commit is decided while a running client's folded epoch is
//     behind the root's;
//  4. no broadcast reaches a client ahead of its ResumeAck;
//  5. at quiescence, no node is still held, and the run has committed.
//
// The faults are relaunches (a node's process killed and started anew,
// or the relay's: a relaunched relay acks Cum=0) and severs (a client's
// connection breaks and resumes; the resume replays decisions.replay).
// A broken connection loses what was in flight to the client, and what a
// killed relay had not read; what a client wrote before it closed is
// still delivered. A process may be relaunched while its handshake is
// still in flight, so a dead incarnation's Hello or Resume can reach a
// server after its successor's. A connection is severed only once the
// server took its handshake: a sever is an idle timeout, far longer
// than one frame's trip. A server that hands a stream to a new
// connection closes the old one (inbound.adoptLocked), and a live node
// whose connection is closed so redials and resumes.
//
// The model's bound is explicit and small on purpose: a control problem
// over an unbounded asynchronous system is not decidable in general.

var exploreWide = flag.Bool("explore-wide", false, "explore the control plane at its larger bound")

// xbound is one exploration: the tree's shape and the fault budget.
type xbound struct {
	n          int
	relay      bool // the nodes dial one relay, which dials the root
	relaunches int  // node relaunches, at most
	relayDies  int  // relay relaunches, at most
	severs     int  // severs of a node's or the uplink's connection, at most
	// release, when set, replaces the hold's rule: a held incarnation
	// starts at its folded epoch once release says so (a planted fault).
	release func(d decisions, relaunch bool) bool
	// fanFirst plants the fault of a relay that fans a root frame out as
	// one move and folds it as a later one, where the runtime does both
	// under the uplink's decMu.
	fanFirst bool
}

func (b xbound) String() string {
	shape := "flat"
	if b.relay {
		shape = "relay"
	}
	return fmt.Sprintf("%s n=%d relaunches≤%d relay-relaunches≤%d severs≤%d", shape, b.n, b.relaunches, b.relayDies, b.severs)
}

// xframe is one frame in flight or logged: seq is the sender's session
// sequence, and an uplink frame carries child origin's frame inner.
type xframe struct {
	m      wire.Msg
	seq    uint64
	origin int
	inner  uint64
}

// xconn is one connection: a queue per direction. client is the node id
// that dialed it, or -1 for the relay's uplink; toRelay says the server
// is the relay. opened: the server took its handshake; ended: and then
// closed it behind a refusal, so the client's session ends there.
// closed: the client end is gone, and what the server sends it is lost.
type xconn struct {
	up, down              []xframe
	client                int
	nth                   int    // the client's how-manyth connection: its name in the state's hash
	inc                   uint64 // the node incarnation that dialed it
	toRelay               bool
	opened, ended, closed bool
}

// xsess is a server's stream state for one client: the gate's owner
// connection (-1: none, or a relayed origin), its last sequence, and at
// the root the stream's epoch. At the relay, inc is the incarnation
// whose log the sequence counts, and hello that of the last Hello
// handshake it took (Relay.incs).
type xsess struct {
	owner   int
	lastSeq uint64
	epoch   uint32
	inc     uint64
	hello   uint64
}

// xclient is the client half of a session (coordClient): its log, the
// connection and how much of the log went out on it, and its fold.
type xclient struct {
	log      []xframe
	conn     int
	wrote    int
	resuming bool // a resume handshake is out; the ResumeAck is not in
	dec      decisions
	epoch    uint32 // the stream epoch a Resume offers (markEpoch)
}

type xnode struct {
	xclient
	s        incarnation
	relaunch bool // a predecessor ran
	incs     int  // incarnations so far
}

type xrelay struct {
	xclient
	children []xsess
	ready    bool       // the uplink's first handshake is done: children are served
	unfolded []wire.Msg // fanned out, not yet folded (fanFirst only)
}

// xran records that incarnation inc of node ran epoch.
type xran struct {
	node  int
	epoch uint32
	inc   uint64
}

type xstate struct {
	root                          rootCore
	sess                          []xsess // the root's node sessions
	uplink                        xsess   // the root's session of the relay's uplink
	relay                         *xrelay
	nodes                         []xnode
	conns                         []xconn
	decided                       []int64 // by incarnation−1: the root's epoch when it decided the Hello, −1 before
	ran                           []xran
	relaunches, relayDies, severs int
}

func newXState(b xbound) *xstate {
	x := &xstate{
		root:   newRootCore(b.n, func(string, ...any) {}),
		sess:   make([]xsess, b.n),
		uplink: xsess{owner: -1},
	}
	for i := range x.sess {
		x.sess[i].owner = -1
	}
	if b.relay {
		x.relay = &xrelay{children: make([]xsess, b.n)}
		for i := range x.relay.children {
			x.relay.children[i].owner = -1
		}
		x.relayHello()
	}
	for i := 0; i < b.n; i++ {
		x.nodes = append(x.nodes, xnode{})
		x.launch(b, i)
	}
	return x
}

// clone copies x for one move. Queues, logs and ghost lists are
// shared, clipped: a pop reslices, and an append past the clip copies.
// The root's state is shared until a root move takes it (ownRoot).
func (x *xstate) clone() *xstate {
	y := *x
	y.root.dec.answered = slices.Clip(y.root.dec.answered)
	y.root.annots = nil
	if x.relay != nil {
		rl := *x.relay
		rl.xclient = rl.xclient.clip()
		rl.children = slices.Clone(rl.children)
		rl.unfolded = slices.Clip(rl.unfolded)
		y.relay = &rl
	}
	y.nodes = slices.Clone(x.nodes)
	for i := range y.nodes {
		y.nodes[i].xclient = y.nodes[i].xclient.clip()
	}
	y.conns = slices.Clone(x.conns)
	for i := range y.conns {
		cn := &y.conns[i]
		cn.up, cn.down = slices.Clip(cn.up), slices.Clip(cn.down)
	}
	y.decided = slices.Clip(x.decided)
	y.ran = slices.Clip(x.ran)
	return &y
}

// ownRoot gives x its own copy of the root's state, before a root move
// changes it.
func (x *xstate) ownRoot() {
	r := &x.root
	r.inc = slices.Clone(r.inc)
	r.stats = slices.Clone(r.stats)
	r.doneSeen = slices.Clone(r.doneSeen)
	r.byeSeen = slices.Clone(r.byeSeen)
	r.detByNode = slices.Clone(r.detByNode)
	x.sess = slices.Clone(x.sess)
	x.decided = slices.Clone(x.decided)
}

func (c xclient) clip() xclient {
	c.log = slices.Clip(c.log)
	c.dec.answered = slices.Clip(c.dec.answered)
	return c
}

// dial opens a connection from client (a node id, -1 the relay's uplink)
// carrying the handshake.
func (x *xstate) dial(client int, handshake xframe) int {
	nth := 0
	for _, cn := range x.conns {
		if cn.client == client {
			nth++
		}
	}
	cn := xconn{client: client, nth: nth, toRelay: client >= 0 && x.relay != nil, up: []xframe{handshake}}
	if client >= 0 {
		cn.inc = x.nodes[client].s.inc
	}
	x.conns = append(x.conns, cn)
	return len(x.conns) - 1
}

// launch starts a new incarnation of node i: a fresh log whose frame 1 is
// the Hello, written as the first dial's handshake (dialCoord), and the
// first pass of Run's loop.
func (x *xstate) launch(b xbound, i int) {
	nd := &x.nodes[i]
	// Incarnation k of node i is k·n+i+1 whatever the other nodes did:
	// the same relaunches in another order reach the same state.
	inc := uint64(nd.incs*len(x.sess) + i + 1)
	nd.incs++
	for len(x.decided) < int(inc) {
		x.decided = append(x.decided, -1)
	}
	hello := xframe{m: wire.Hello{From: int32(i), N: int32(len(x.sess)), Inc: inc}, seq: 1}
	nd.xclient = xclient{log: []xframe{hello}, wrote: 1}
	nd.s = incarnation{inc: inc}
	nd.conn = x.dial(i, hello)
	x.stepNode(b, i)
}

// relayHello opens the relay's uplink: RelayHello out, the ResumeAck
// awaited (Relay.mkResume, coordClient.resume).
func (x *xstate) relayHello() {
	rl := x.relay
	rl.conn = x.dial(-1, xframe{m: wire.RelayHello{Relay: 0, Relays: 1, N: int32(len(x.sess)), Resume: len(rl.log) > 0, Epoch: rl.dec.epoch}})
	rl.resuming = true
}

// resume redials node i's session with a Resume at its stream epoch.
func (x *xstate) resume(i int) {
	nd := &x.nodes[i]
	nd.conn = x.dial(i, xframe{m: wire.Resume{From: int32(i), N: int32(len(x.sess)), Epoch: nd.epoch}})
	nd.resuming = true
}

// push queues a frame for the client of conn c; a closed client end
// loses it.
func (x *xstate) push(c int, ms ...wire.Msg) {
	if c < 0 || x.conns[c].closed {
		return
	}
	for _, m := range ms {
		x.conns[c].down = append(x.conns[c].down, xframe{m: m})
	}
}

// logFrame sequences m onto client cl's log and writes whatever the
// connection has not carried yet (coordClient.send).
func (x *xstate) logFrame(cl *xclient, f xframe) {
	cl.log = append(cl.log, f)
	x.flush(cl)
}

func (x *xstate) flush(cl *xclient) {
	if cl.resuming || x.conns[cl.conn].closed {
		return
	}
	x.conns[cl.conn].up = append(x.conns[cl.conn].up, cl.log[cl.wrote:]...)
	cl.wrote = len(cl.log)
}

// xtrans is one move: a delivery at the head of a connection's queue,
// or a fault.
type xtrans struct {
	kind byte // 'u' up delivery, 'd' down delivery, 'r' relaunch, 'R' relay relaunch, 'x' sever, 'X' uplink sever, 'F' a deferred relay fold
	arg  int  // the connection, or the node
}

func (t xtrans) fault() bool { return t.kind != 'u' && t.kind != 'd' && t.kind != 'F' }

// bit is the move's place in a sleep set; faults never sleep.
func (t xtrans) bit() uint64 {
	if t.arg > 30 {
		panic("explore: more connections than a sleep set holds")
	}
	switch t.kind {
	case 'u':
		return 1 << (2 * t.arg)
	case 'd':
		return 1 << (2*t.arg + 1)
	case 'F':
		return 1 << 63
	}
	return 0
}

// proc is the process that makes the move: 0 the root, 1 the relay, 2+i
// node i.
func (x *xstate) proc(t xtrans) int {
	switch t.kind {
	case 'u':
		if x.conns[t.arg].toRelay {
			return 1
		}
		return 0
	case 'd':
		if c := x.conns[t.arg].client; c >= 0 {
			return 2 + c
		}
		return 1
	case 'F':
		return 1
	}
	return 2 + t.arg
}

// enabled lists the moves from x in a fixed order. Once every node has
// left, nothing can move an invariant: what is still in flight reaches a
// sealed root or a relay with no child.
func (x *xstate) enabled(b xbound) (ts []xtrans) {
	if !slices.ContainsFunc(x.nodes, func(nd xnode) bool { return nd.s.phase != gone }) {
		return nil
	}
	for c := range x.conns {
		cn := &x.conns[c]
		if len(cn.up) > 0 && (!cn.toRelay || x.relay.ready) {
			ts = append(ts, xtrans{'u', c})
		}
		if len(cn.down) > 0 {
			ts = append(ts, xtrans{'d', c})
		}
	}
	for i := range x.nodes {
		nd := &x.nodes[i]
		cn := &x.conns[nd.conn]
		if nd.s.phase == gone || cn.ended {
			continue
		}
		if x.relaunches < b.relaunches {
			ts = append(ts, xtrans{'r', i})
		}
		if x.severs < b.severs && cn.opened && !cn.closed {
			ts = append(ts, xtrans{'x', i})
		}
	}
	if x.relay != nil && len(x.relay.unfolded) > 0 {
		ts = append(ts, xtrans{'F', 0})
	}
	if x.relay != nil {
		if cn := &x.conns[x.relay.conn]; x.severs < b.severs && cn.opened && !cn.closed {
			ts = append(ts, xtrans{'X', 0})
		}
		if x.relayDies < b.relayDies && x.relay.ready {
			ts = append(ts, xtrans{'R', 0})
		}
	}
	return ts
}

// nodeStep is node i's step under the bound's hold rule.
func (x *xstate) nodeStep(b xbound, i int) incarnation {
	nd := &x.nodes[i]
	next := nd.s.step(nd.dec)
	if b.release != nil && next == nd.s && nd.s.phase == held && b.release(nd.dec, nd.relaunch) {
		next = incarnation{inc: nd.s.inc, phase: running, epoch: nd.dec.epoch}
	}
	return next
}

// label says what move t does from x, for a counterexample.
func (x *xstate) label(t xtrans) string {
	who := func(client int) string {
		if client < 0 {
			return "relay"
		}
		return fmt.Sprintf("node %d", client)
	}
	switch t.kind {
	case 'u', 'd':
		cn := &x.conns[t.arg]
		server, client := "root", who(cn.client)
		if cn.toRelay {
			server = "relay"
		}
		if t.kind == 'u' {
			f := cn.up[0]
			if cn.client < 0 && f.seq > 0 {
				return fmt.Sprintf("u%d relay→root: node %d's %T%+v", t.arg, f.origin, f.m, f.m)
			}
			return fmt.Sprintf("u%d %s→%s: %T%+v", t.arg, client, server, f.m, f.m)
		}
		return fmt.Sprintf("d%d %s→%s: %T%+v", t.arg, server, client, cn.down[0].m, cn.down[0].m)
	case 'r':
		return fmt.Sprintf("r%d node %d is relaunched", t.arg, t.arg)
	case 'x':
		return fmt.Sprintf("x%d node %d's connection breaks; it resumes", t.arg, t.arg)
	case 'X':
		return "X0 the relay's uplink breaks; it resumes"
	case 'F':
		return fmt.Sprintf("F0 the relay folds %T%+v", x.relay.unfolded[0], x.relay.unfolded[0])
	default:
		return "R0 the relay is relaunched"
	}
}

// apply makes move t on x (a clone the caller owns). A violation of
// invariant 4, or a frame the protocol never sends, is an error.
func (x *xstate) apply(b xbound, t xtrans) error {
	switch t.kind {
	case 'u':
		cn := &x.conns[t.arg]
		f := cn.up[0]
		cn.up = cn.up[1:]
		if cn.toRelay {
			return x.relayTakes(t.arg, f)
		}
		return x.rootTakes(t.arg, f)
	case 'd':
		cn := &x.conns[t.arg]
		f := cn.down[0]
		cn.down = cn.down[1:]
		if cn.client < 0 {
			return x.clientTakes(&x.relay.xclient, f.m, x.relay.fanOut(x), !b.fanFirst)
		}
		if err := x.clientTakes(&x.nodes[cn.client].xclient, f.m, nil, true); err != nil {
			return err
		}
		x.stepNode(b, cn.client)
	case 'r':
		x.relaunches++
		nd := &x.nodes[t.arg]
		// kill -9: what the process wrote is still delivered, what was
		// sent to it is lost.
		x.conns[nd.conn].closed = true
		x.conns[nd.conn].down = nil
		nd.relaunch = true
		x.launch(b, t.arg)
	case 'F':
		rl := x.relay
		rl.dec.fold(rl.unfolded[0])
		rl.unfolded = rl.unfolded[1:]
	case 'x':
		x.severs++
		nd := &x.nodes[t.arg]
		x.conns[nd.conn].closed = true
		x.conns[nd.conn].down = nil
		x.resume(t.arg)
	case 'X':
		x.severs++
		x.conns[x.relay.conn].closed = true
		x.conns[x.relay.conn].down = nil
		x.relayHello()
	case 'R':
		x.relayDies++
		// The relay process dies with what it had not read, and with what
		// it had sent that was still in flight, both ways; its children
		// redial, and the new relay acks them Cum=0.
		for c := range x.conns {
			if cn := &x.conns[c]; cn.toRelay || cn.client < 0 {
				cn.closed, cn.up, cn.down = true, nil, nil
			}
		}
		x.relay = &xrelay{children: make([]xsess, len(x.nodes))}
		for i := range x.relay.children {
			x.relay.children[i].owner = -1
		}
		x.relayHello()
		for i := range x.nodes {
			if x.nodes[i].s.phase != gone {
				x.resume(i)
			}
		}
	}
	return nil
}

// clientTakes folds one frame the server sent a client (coordClient's
// readLoop and resume): a resuming client reads the ResumeAck first and
// retransmits its log past the ack. fan, at the relay, sees each fold;
// unless fold, the frame is left to a later move (fanFirst).
func (x *xstate) clientTakes(cl *xclient, m wire.Msg, fan func(wire.Msg), fold bool) error {
	if cl.resuming {
		ack, ok := m.(wire.ResumeAck)
		if !ok {
			return fmt.Errorf("invariant 4: a resuming client read %T%+v ahead of its ResumeAck", m, m)
		}
		if ack.Cum > uint64(len(cl.log)) {
			return fmt.Errorf("a ResumeAck acks %d of %d frames", ack.Cum, len(cl.log))
		}
		cl.resuming = false
		cl.wrote = int(ack.Cum)
	}
	if !fold {
		x.relay.unfolded = append(x.relay.unfolded, m)
	} else if !cl.dec.fold(m) {
		return fmt.Errorf("a client was sent %T, not a decision", m)
	}
	if fan != nil {
		fan(m)
	}
	x.flush(cl)
	return nil
}

// fanOut is the relay's fan-out to its children (fanOut), in the same
// move as the fold; the first ResumeAck readies the relay.
func (rl *xrelay) fanOut(x *xstate) func(wire.Msg) {
	return func(m wire.Msg) {
		rl.ready = true
		fanOut(m, func(ms ...wire.Msg) {
			for _, ch := range rl.children {
				x.push(ch.owner, ms...)
			}
		})
	}
}

// stepNode is Run's loop for node i after a fold: its step, and the I/O
// for each act, until the step has nothing left to do. A start marks
// the epoch, and the application finishes at once and reports Done; a
// bye sends the bye. The runtime may fold several frames before it
// steps, which only skips acts the later frames void.
func (x *xstate) stepNode(b xbound, i int) {
	nd := &x.nodes[i]
	for next := x.nodeStep(b, i); next != nd.s; next = x.nodeStep(b, i) {
		nd.s = next
		x.act(i)
	}
}

// act is the I/O for the phase node i's step entered.
func (x *xstate) act(i int) {
	nd := &x.nodes[i]
	next := nd.s
	switch next.phase {
	case running:
		// Kept sorted, so the same runs in another order hash the same.
		r := xran{node: i, epoch: next.epoch, inc: next.inc}
		k, _ := slices.BinarySearchFunc(x.ran, r, func(a, b xran) int {
			return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.epoch, b.epoch), cmp.Compare(a.inc, b.inc))
		})
		x.ran = slices.Insert(x.ran, k, r)
		if next.epoch > 0 {
			nd.epoch = next.epoch
			x.logFrame(&nd.xclient, xframe{m: wire.EpochMark{Epoch: next.epoch}, seq: uint64(len(nd.log)) + 1})
		}
		x.logFrame(&nd.xclient, xframe{m: wire.Done{}, seq: uint64(len(nd.log)) + 1})
	case byed:
		x.logFrame(&nd.xclient, xframe{m: wire.Shutdown{Epoch: next.epoch}, seq: uint64(len(nd.log)) + 1})
	case gone:
		// The process exits and reads no more. The closing frames Run's
		// leave sends a node that never byed reach a committed root, which
		// counts nothing more: they are left out.
		x.conns[nd.conn].closed = true
		x.conns[nd.conn].down = nil
	}
}

// carry queues what a root step decided: the reply to conn answer, then
// the rest to every stream's owner (Coordinator.carry, broadcast).
func (x *xstate) carry(answer int, o out) {
	x.push(answer, o.reply...)
	if len(o.all) == 0 {
		return
	}
	for _, s := range x.sess {
		x.push(s.owner, o.all...)
	}
	x.push(x.uplink.owner, o.all...)
}

// rootTakes is the root's handling of frame f off connection c: a
// handshake (handleConn, handleRelay), then the gate and the ingest.
func (x *xstate) rootTakes(c int, f xframe) error {
	x.ownRoot()
	cn := &x.conns[c]
	if !cn.opened {
		cn.opened = true
		switch h := f.m.(type) {
		case wire.RelayHello:
			if !h.Resume {
				x.uplink.lastSeq = 0
			}
			x.supersede(x.uplink.owner, c)
			x.uplink.owner = c
			var ids []int
			if h.Resume {
				for id := range x.sess {
					ids = append(ids, id)
				}
			}
			x.push(c, x.root.resume(x.uplink.lastSeq, ids...)...)
			return nil
		case wire.Resume:
			st := &x.sess[h.From]
			x.supersede(st.owner, c)
			st.owner = c
			x.push(c, x.root.resume(st.lastSeq, int(h.From))...)
			return nil
		}
		return x.rootIngest(int(f.m.(wire.Hello).From), c, c, f)
	}
	if cn.client < 0 {
		// The uplink's gate, then its frame unpacked into the origin's.
		last := x.uplink.lastSeq
		if refused := x.gate(&x.uplink, c, f.seq); refused || x.uplink.lastSeq == last {
			return nil
		}
		if f.seq != last+1 {
			return fmt.Errorf("the uplink: sequence gap (%d after %d)", f.seq, last)
		}
		return x.rootIngest(f.origin, -1, c, xframe{m: f.m, seq: f.inner})
	}
	return x.rootIngest(cn.client, c, c, f)
}

// supersede closes connection c as connection by takes its stream
// (inbound.adoptLocked): what is in flight on c either way is lost. A
// live node whose current connection c was redials and resumes.
func (x *xstate) supersede(c, by int) {
	if c < 0 || c == by {
		return
	}
	cn := &x.conns[c]
	cn.up, cn.down, cn.closed = nil, nil, true
	if i := cn.client; i >= 0 && x.nodes[i].conn == c && x.nodes[i].s.phase != gone {
		x.resume(i)
	}
}

// gate is inbound.deliver's check for a frame seq off connection c: a
// connection that lost the stream is refused and closed, a duplicate
// dropped (reported as lastSeq not moving to seq), a new frame taken.
func (x *xstate) gate(s *xsess, c int, seq uint64) (refused bool) {
	if c >= 0 && s.owner != c {
		x.conns[c].up = nil
		x.conns[c].closed = true
		x.conns[c].down = nil
		return true
	}
	if seq > s.lastSeq {
		s.lastSeq = seq
	}
	return false
}

// rootIngest is Coordinator.ingest for node id's frame f, arrived on
// owner (-1 when relayed) and to be answered on answer.
func (x *xstate) rootIngest(id, owner, answer int, f xframe) error {
	st := &x.sess[id]
	if h, ok := f.m.(wire.Hello); ok {
		o := x.root.step(id, 0, h, 0)
		if o.refused {
			x.push(answer, o.reply...)
			if owner >= 0 {
				// The handshake ends: the connection closes behind the reply.
				x.conns[owner].up, x.conns[owner].ended = nil, true
			}
			return nil
		}
		if !o.known {
			x.decided[h.Inc-1] = int64(x.root.dec.epoch)
			x.supersede(st.owner, owner)
			st.epoch, st.owner, st.lastSeq = 0, owner, f.seq
			x.carry(answer, o)
			return nil
		}
		x.carry(answer, o)
	}
	last := st.lastSeq
	if refused := x.gate(st, owner, f.seq); refused || st.lastSeq == last {
		return nil
	}
	if owner >= 0 && f.seq != last+1 {
		return fmt.Errorf("node %d's stream: sequence gap (%d after %d)", id, f.seq, last)
	}
	switch v := f.m.(type) {
	case wire.EpochMark:
		st.epoch = max(st.epoch, v.Epoch)
	case wire.Done, wire.Shutdown:
	default:
		return fmt.Errorf("node %d sent the root %T", id, f.m)
	}
	o := x.root.step(id, st.epoch, f.m, 0)
	x.carry(-1, o)
	return nil
}

// relayTakes is the relay's handling of frame f off child connection c
// (Relay.handleChild): a Hello adopts and forwards, a Resume adopts and
// replays the uplink's fold, and every later frame passes the child's
// gate and is forwarded.
func (x *xstate) relayTakes(c int, f xframe) error {
	rl, cn := x.relay, &x.conns[c]
	id := cn.client
	ch := &rl.children[id]
	if !cn.opened {
		cn.opened = true
		switch h := f.m.(type) {
		case wire.Hello:
			if h.Inc < ch.hello {
				// A dead predecessor's Hello: refused, the connection closes.
				cn.up, cn.ended = nil, true
				return nil
			}
			x.supersede(ch.owner, c)
			ch.owner, ch.lastSeq, ch.inc, ch.hello = c, f.seq, h.Inc, h.Inc
			x.forward(id, f)
		case wire.Resume:
			x.supersede(ch.owner, c)
			ch.owner, ch.inc = c, cn.inc
			x.push(c, rl.dec.replay(ch.lastSeq)...)
		}
		return nil
	}
	last := ch.lastSeq
	if refused := x.gate(ch, c, f.seq); refused || ch.lastSeq == last {
		return nil
	}
	if f.seq != last+1 {
		return fmt.Errorf("node %d's stream at the relay: sequence gap (%d after %d)", id, f.seq, last)
	}
	x.forward(id, f)
	return nil
}

// forward sequences child id's frame onto the uplink log (Relay.stage).
func (x *xstate) forward(id int, f xframe) {
	rl := x.relay
	x.logFrame(&rl.xclient, xframe{m: f.m, seq: uint64(len(rl.log)) + 1, origin: id, inner: f.seq})
}

// check is invariants 1–3, 5 on state x; quiet says no delivery is
// enabled.
func (x *xstate) check(quiet bool) error {
	for _, r := range x.ran {
		switch e := x.decided[r.inc-1]; {
		case e < 0:
			return fmt.Errorf("invariant 1: node %d's incarnation %d runs epoch %d, and the root has not decided its Hello", r.node, r.inc, r.epoch)
		case e > int64(r.epoch):
			return fmt.Errorf("invariant 1: node %d's incarnation %d runs epoch %d, and the root decided its Hello at epoch %d", r.node, r.inc, r.epoch, e)
		}
	}
	for a, r := range x.ran {
		for _, q := range x.ran[:a] {
			if q.node == r.node && q.epoch == r.epoch && q.inc != r.inc {
				return fmt.Errorf("invariant 2: node %d's incarnations %d and %d both run epoch %d", r.node, q.inc, r.inc, r.epoch)
			}
		}
	}
	if x.root.dec.committed {
		for i, nd := range x.nodes {
			if (nd.s.phase == running || nd.s.phase == byed) && nd.dec.epoch < x.root.dec.epoch {
				return fmt.Errorf("invariant 3: Commit at epoch %d while node %d runs at folded epoch %d", x.root.dec.epoch, i, nd.dec.epoch)
			}
		}
	}
	if quiet {
		for i, nd := range x.nodes {
			if nd.s.phase == held {
				return fmt.Errorf("invariant 5: quiescent with node %d's incarnation %d held, folded %+v", i, nd.s.inc, nd.dec)
			}
		}
		if !x.root.dec.committed {
			return fmt.Errorf("invariant 5: quiescent and not committed: the root holds %+v", x.root.dec)
		}
	}
	return nil
}

// encode appends everything that decides x's future under bound bd to
// b, for the visited-state hash.
func (x *xstate) encode(bd xbound, b []byte) []byte {
	e := &xenc{b: b}
	// Connections by client and the client's count, not by creation: the
	// same dials in another order reach the same state.
	var orderBuf, canonBuf [32]int
	order := orderBuf[:len(x.conns)]
	for c := range order {
		order[c] = c
	}
	slices.SortFunc(order, func(a, c int) int {
		return cmp.Or(cmp.Compare(x.conns[a].client, x.conns[c].client), cmp.Compare(x.conns[a].nth, x.conns[c].nth))
	})
	canon := canonBuf[:len(x.conns)]
	for k, c := range order {
		canon[c] = k
	}
	conn := func(c int) {
		if c < 0 {
			e.u(0)
		} else {
			e.u(uint64(canon[c]) + 1)
		}
	}
	dec := func(d decisions) {
		e.u(uint64(d.epoch))
		e.flag(d.shutdown)
		e.flag(d.committed)
		e.u(uint64(len(d.answered)))
		for _, a := range d.answered {
			e.u(a)
		}
	}
	sess := func(s xsess) { conn(s.owner); e.u(s.lastSeq); e.u(uint64(s.epoch)); e.u(s.inc); e.u(s.hello) }
	frame := func(f xframe) {
		e.b = wire.AppendBody(e.b, f.seq, f.m)
		e.u(uint64(f.origin))
		e.u(f.inner)
	}
	// client encodes a session's client half. Its log's first acked
	// frames, which the server's session for this very log has taken, are
	// never sent again: only their count is kept.
	client := func(c xclient, acked uint64) {
		k := min(int(acked), c.wrote)
		e.u(uint64(len(c.log)))
		e.u(uint64(k))
		for _, f := range c.log[k:] {
			frame(f)
		}
		conn(c.conn)
		e.u(uint64(c.wrote))
		e.flag(c.resuming)
		dec(c.dec)
		e.u(uint64(c.epoch))
	}
	r := &x.root
	dec(r.dec)
	for i := range r.inc {
		e.u(r.inc[i])
		e.flag(r.doneSeen[i])
		e.flag(r.byeSeen[i])
		sess(x.sess[i])
	}
	sess(x.uplink)
	if rl := x.relay; rl != nil {
		client(rl.xclient, x.uplink.lastSeq)
		for _, ch := range rl.children {
			sess(ch)
		}
		e.flag(rl.ready)
		for _, m := range rl.unfolded {
			e.b = wire.AppendBody(e.b, 0, m)
		}
	}
	for i, nd := range x.nodes {
		// The session that counts the node's current log: the root's, or
		// the relay's unless the relay may still die and ack 0.
		var acked uint64
		switch {
		case x.relay == nil && x.root.inc[i] == nd.s.inc:
			acked = x.sess[i].lastSeq
		case x.relay != nil && x.relayDies == bd.relayDies && x.relay.children[i].inc == nd.s.inc:
			acked = x.relay.children[i].lastSeq
		}
		client(nd.xclient, acked)
		e.u(nd.s.inc)
		e.u(uint64(nd.s.phase))
		e.u(uint64(nd.s.epoch))
		e.flag(nd.relaunch)
	}
	e.u(uint64(len(x.conns)))
	for _, c := range order {
		cn := &x.conns[c]
		e.u(uint64(cn.client + 1))
		e.u(uint64(cn.nth))
		e.u(uint64(len(cn.up)))
		for _, f := range cn.up {
			frame(f)
		}
		e.u(uint64(len(cn.down)))
		for _, f := range cn.down {
			frame(f)
		}
		e.flag(cn.opened)
		e.flag(cn.ended)
		e.flag(cn.closed)
	}
	for _, r := range x.ran {
		e.u(uint64(r.node))
		e.u(uint64(r.epoch))
		e.u(r.inc)
	}
	for _, at := range x.decided {
		e.u(uint64(at + 1))
	}
	e.u(uint64(x.relaunches))
	e.u(uint64(x.relayDies))
	e.u(uint64(x.severs))
	return e.b
}

// xenc appends a state's encoding.
type xenc struct{ b []byte }

func (e *xenc) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *xenc) flag(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// explorer is one DFS over the states of a bound.
type explorer struct {
	b       xbound
	seed    maphash.Seed
	visited map[uint64]uint64 // state hash → the sleep set it was explored with
	buf     []byte
	path    []xtrans
	fail    error
	trail   []xtrans // the moves that led to fail
}

// explore runs the DFS from the initial state of b. Every reachable
// state is visited: sleep sets prune only orders of independent moves.
func explore(b xbound) *explorer {
	e := &explorer{b: b, seed: maphash.MakeSeed(), visited: map[uint64]uint64{}}
	e.dfs(newXState(b), 0)
	return e
}

// dfs explores x with sleep set sleep: the moves whose every order is
// explored elsewhere. A state seen before is explored again only for
// what its earlier visit slept on and this one does not.
func (e *explorer) dfs(x *xstate, sleep uint64) {
	ts := x.enabled(e.b)
	e.buf = x.encode(e.b, e.buf[:0])
	h := maphash.Bytes(e.seed, e.buf)
	var todo uint64
	old, seen := e.visited[h]
	if seen {
		if old&^sleep == 0 {
			return
		}
		todo = old &^ sleep
		e.visited[h] = old & sleep
	} else {
		e.visited[h] = sleep
		if err := x.check(quiet(ts)); err != nil {
			e.fail, e.trail = err, slices.Clone(e.path)
			return
		}
	}
	for _, t := range ts {
		if seen && todo&t.bit() == 0 || !seen && sleep&t.bit() != 0 {
			continue
		}
		y := x.clone()
		e.path = append(e.path, t)
		if err := y.apply(e.b, t); err != nil {
			e.fail, e.trail = err, slices.Clone(e.path)
			return
		}
		var next uint64
		if !t.fault() {
			for k := 0; k < 64; k++ {
				if bit := uint64(1) << k; sleep&bit != 0 && x.bitProc(k) != x.proc(t) {
					next |= bit
				}
			}
		}
		e.dfs(y, next)
		if e.fail != nil {
			return
		}
		e.path = e.path[:len(e.path)-1]
		sleep |= t.bit()
	}
}

// rerun makes the moves of trail from b's initial state, checking as
// the explorer does, and returns their labels and the first violation.
// A move that is not enabled ends it: the labels stop there.
func rerun(b xbound, trail []xtrans) (labels []string, err error) {
	x := newXState(b)
	if err := x.check(false); err != nil {
		return nil, err
	}
	for _, t := range trail {
		if !slices.Contains(x.enabled(b), t) {
			return labels, nil
		}
		labels = append(labels, x.label(t))
		y := x.clone()
		if err := y.apply(b, t); err != nil {
			return labels, err
		}
		if err := y.check(quiet(y.enabled(b))); err != nil {
			return labels, err
		}
		x = y
	}
	return labels, nil
}

// bitProc is the process of the move at sleep-set bit k.
func (x *xstate) bitProc(k int) int {
	if k == 63 {
		return 1
	}
	kind := byte('u')
	if k%2 == 1 {
		kind = 'd'
	}
	return x.proc(xtrans{kind, k / 2})
}

// quiet reports that no delivery is among ts: only faults, or nothing,
// can move the run.
func quiet(ts []xtrans) bool {
	for _, t := range ts {
		if !t.fault() {
			return false
		}
	}
	return true
}

// minimal shrinks trail, a move sequence that ends in a violation, to
// one no single move of which can be dropped: a delivery sequence that
// shows the violation and nothing else.
func minimal(b xbound, trail []xtrans) []xtrans {
	for dropped := true; dropped; {
		dropped = false
		for i := range trail {
			cand := slices.Delete(slices.Clone(trail), i, i+1)
			if n, err := rerun(b, cand); err != nil && len(n) == len(cand) {
				trail, dropped = cand, true
				break
			}
		}
	}
	return trail
}

// exploreBounds is what tier-1 explores, in under 2 s: flat and
// one-relay trees at n = 2 and 3, node relaunches, one sever, one relay
// relaunch. With -explore-wide it adds the larger bound CI explores,
// ≈4·10⁶ states in half a minute: two relaunches (with a sever, flat),
// two relaunches or two severs behind a relay, and three nodes with two
// relaunches, or a sever behind a relay. A relaunch beside a relay
// relaunch, or three relayed nodes with a relaunch, is past 10⁷ states.
// The race detector slows the walk and finds nothing in it (nothing
// here is concurrent): under it, the flat half alone.
func exploreBounds() []xbound {
	bs := []xbound{
		{n: 2, relaunches: 2},
		{n: 2, relaunches: 1, severs: 1},
		{n: 3, relaunches: 1},
		{n: 2, relay: true, relaunches: 1},
		{n: 2, relay: true, severs: 1},
		{n: 2, relay: true, relayDies: 1},
	}
	switch {
	case *exploreWide:
		bs = append(bs,
			xbound{n: 3, relaunches: 2},
			xbound{n: 3, relaunches: 1, severs: 1},
			xbound{n: 2, relaunches: 2, severs: 1},
			xbound{n: 2, relay: true, relaunches: 2},
			xbound{n: 2, relay: true, severs: 2},
			xbound{n: 3, relay: true, severs: 1},
		)
	case raceEnabled:
		bs = bs[:3]
	}
	return bs
}

// TestExploreControlPlane explores the composed root → relay → node
// control plane at its bound and requires all five invariants at every
// reachable state; it reports each bound's state count.
func TestExploreControlPlane(t *testing.T) {
	start := time.Now()
	for _, b := range exploreBounds() {
		e := explore(b)
		if e.fail != nil {
			labels, err := rerun(b, minimal(b, e.trail))
			t.Fatalf("%v: %v\nminimal sequence (%d moves):\n  %s", b, err, len(labels), strings.Join(labels, "\n  "))
		}
		t.Logf("%v: %d states in %v", b, len(e.visited), time.Since(start).Round(time.Millisecond))
	}
	t.Logf("explored in %v", time.Since(start).Round(time.Millisecond))
}

// anyEpoch is the parent's hold: it released a relaunch once its fold
// showed any epoch but 0, whoever's decision moved it.
func anyEpoch(d decisions, _ bool) bool { return d.epoch != 0 }

// plantedFaults are the faults the explorer must find, each at a bound
// tier-1 affords: the parent's hold (PR 37's early-epoch race: a
// relaunch behind a relay starts on another node's Restart, an epoch
// before its own Hello restarts the cluster), and a relay fan-out ahead
// of its fold (a child resuming in between is replayed a fold without
// the frame, and its answer is lost).
var plantedFaults = []struct {
	name string
	b    xbound
	want string
}{
	{"a hold released by any epoch", xbound{n: 2, relay: true, relaunches: 2, release: anyEpoch}, "invariant 1"},
	{"a relay fan-out ahead of its fold", xbound{n: 2, relay: true, severs: 1, fanFirst: true}, "invariant 5"},
}

// TestExploreFindsPlantedFaults: the explorer fails each planted fault,
// with the invariant it breaks and a minimal move sequence.
func TestExploreFindsPlantedFaults(t *testing.T) {
	for _, pf := range plantedFaults {
		e := explore(pf.b)
		if e.fail == nil {
			t.Errorf("%s: %d states explored and no invariant failed", pf.name, len(e.visited))
			continue
		}
		trail := minimal(pf.b, e.trail)
		labels, err := rerun(pf.b, trail)
		if err == nil || !strings.Contains(err.Error(), pf.want) {
			t.Errorf("%s: the minimal sequence ends in %v, want %s", pf.name, err, pf.want)
		}
		t.Logf("%s: %v after %d states; minimal sequence (%d moves):\n  %s", pf.name, err, len(e.visited), len(labels), strings.Join(labels, "\n  "))
	}
}

// TestEarlyEpochRace is PR 37's early-epoch race as the explorer found
// it, under the parent's hold (a minimal sequence at n = 2, one relay):
// node 0 is relaunched twice, quickly; the root decides the first
// relaunch's Hello, restarting the cluster at epoch 1, and its answer
// fans out to the second relaunch, whose own Hello is still on the
// uplink. The parent's hold lets it start at epoch 1, an epoch its Hello
// is about to void. Held for its own answer, it does not start.
func TestEarlyEpochRace(t *testing.T) {
	race := moves(t, "u0 d0 u1 u0 d0 d1 u1 u0 u2 u0 d0 d2 u2 u0 d0 r0 u3 r0 u4 u0 d0 d4")
	parent := xbound{n: 2, relay: true, relaunches: 2, release: anyEpoch}
	if labels, err := rerun(parent, race); len(labels) != len(race) || err == nil || !strings.Contains(err.Error(), "invariant 1") {
		t.Fatalf("under the parent's hold, %d of %d moves ran and ended in %v; want invariant 1 at the last", len(labels), len(race), err)
	}
	fixed := parent
	fixed.release = nil
	labels, err := rerun(fixed, race)
	if len(labels) != len(race) || err != nil {
		t.Fatalf("held for its answer, %d of %d moves ran and ended in %v; want all, and no invariant failing", len(labels), len(race), err)
	}
}

// moves parses a move sequence as label prints it: kind, then argument.
func moves(t *testing.T, seq string) []xtrans {
	t.Helper()
	var ms []xtrans
	for _, k := range strings.Fields(seq) {
		var mv xtrans
		if _, err := fmt.Sscanf(k, "%c%d", &mv.kind, &mv.arg); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, mv)
	}
	return ms
}

// TestStaleIncarnationRaces are the relaunch races the explorer found
// once a node could be relaunched with its handshake still in flight
// (flat, n = 2), each a minimal sequence up to the late handshake of a
// dead incarnation, after which every continuation must hold the five
// invariants.
//
// A late Hello: node 0 is relaunched twice, quickly; its third
// incarnation's Hello reaches the root first and restarts the cluster,
// and then its second incarnation's arrives. Adopted as the newer one, it
// restarted the cluster again for a process that is gone, the live
// incarnation's frames were refused, and the run never committed
// (invariant 5, five moves later). Launch stamps order the two: the late
// Hello is neither adopted nor answered.
//
// A late Resume: node 0's connection breaks, and the process is
// relaunched before the root takes its Resume. The Resume names no
// incarnation, so the root adopts it and closes the live incarnation's
// connection, which redials and resumes, taking its stream back.
func TestStaleIncarnationRaces(t *testing.T) {
	for _, tc := range []struct {
		name, race string
		b          xbound
		late       int // the moves up to the dead incarnation's handshake taken
	}{
		{"hello", "u0 d0 u0 u1 d1 u1 d0 u0 d1 r0 r0 u3 u1 d1 u1 u1 u2 d1 u1 u1 d3 u3", xbound{n: 2, relaunches: 2}, 17},
		{"resume", "u0 d0 u0 u1 d1 u1 d0 u0 d1 x0 r0 u3 u1 d1 u1 u1 u2 d3 u3", xbound{n: 2, relaunches: 1, severs: 1}, 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			race := moves(t, tc.race)[:tc.late]
			labels, err := rerun(tc.b, race)
			if len(labels) != len(race) || err != nil {
				t.Fatalf("%d of %d moves ran and ended in %v; want all, and no invariant failing:\n  %s", len(labels), len(race), err, strings.Join(labels, "\n  "))
			}
			x := newXState(tc.b)
			for _, mv := range race {
				y := x.clone()
				if err := y.apply(tc.b, mv); err != nil {
					t.Fatal(err)
				}
				x = y
			}
			e := &explorer{b: tc.b, seed: maphash.MakeSeed(), visited: map[uint64]uint64{}}
			e.dfs(x, 0)
			if e.fail != nil {
				labels, _ := rerun(tc.b, append(race, e.trail...))
				t.Fatalf("%v after %d states:\n  %s", e.fail, len(e.visited), strings.Join(labels, "\n  "))
			}
			t.Logf("%d states reachable past the late handshake, every one holding the invariants", len(e.visited))
		})
	}
}
