package node

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// session.go: the server half of the resumable capture session. The
// root terminates node streams and relay uplinks, a relay terminates
// its children's streams; all three are one protocol — a handshake that
// adopts the connection as the stream's owner and replays the run's
// terminal decisions, then a read loop feeding a cumulative-sequence
// gate — written once here. handleConn, handleRelay and
// Relay.handleChild are role-specific glue over it.
//
// Lock inventory, root side, outermost first; a lock is only ever taken
// while holding locks listed above it. No lock is held while a frame is
// on the wire, at either end of a session: only an outbox's writer
// writes (see outbox below), holding none:
//
//	relaySession.ingestMu   one uplink's accept-and-unpack, held across
//	                        a whole RelayBatch, whose relayed Hellos,
//	                        Dones and byes are decided inside it
//	nodeSession.ingestMu    one node stream's accept-and-stage; a
//	                        handshake adopts the stream under it
//	Coordinator.mu          the decision lock: c.core (core.go). A core
//	                        step, and the queueing of what it decided
//	                        (carry), run under it, as does a
//	                        handshake's adoption and replay, so every
//	                        peer sees the decisions in decision order.
//	                        No assembly, detection, strategy or store
//	                        seal runs under it
//	epochAsm.mu             the epoch's assembler (commit.go): a feeder
//	                        pass, a live confirm's prefix build, Wait's
//	                        finish. Taken holding none of the above; it
//	                        takes one session's inbound.mu at a time to
//	                        snapshot the staging
//	inbound.mu, endpoint.connMu
//	                        a session's owner, sequence and staging; the
//	                        accepted connections and the streams
//	outbox.mu               one connection's frames; innermost
//
// The node and relay session tables are fixed when the coordinator is
// built and need no lock, as is a relay's child table. The store, the
// live checker and the journal lock internally and call nothing back.
// A relay is the same shape one level down: a child's inbound.ingestMu
// → the uplink client's decMu (its decision lock) → inbound.mu /
// endpoint.connMu → a child connection's outbox.mu. The uplink's own
// outbox.mu is taken under ingestMu, to sequence a child frame onto the
// log, so neither a fold nor another child's frames wait on a write.

// streamReadDeadline bounds one wait for the next frame of an accepted
// stream. Generous: peers stream continuously while alive, and a wedged
// one should fail the run loudly, not hang it.
const streamReadDeadline = 30 * time.Second

// endpoint is what the root, a relay and a node's mesh Transport share
// as terminators of streams: a name for the log, the timeouts, the
// listener with every connection it accepted, and (capture only) the
// streams those connections may own.
type endpoint struct {
	who  string
	opt  Timeouts
	logf func(string, ...any)
	ln   net.Listener

	closed   chan struct{} // teardown has begun: stream errors are no longer news
	stopOnce sync.Once
	wg       sync.WaitGroup // the accept loop and one handler per connection

	connMu sync.Mutex
	// conns is every accepted connection, owner or not: stop must reach
	// conns mid-handshake and superseded readers too, or a peer that
	// keeps sending keeps its handler — and wg.Wait — alive.
	conns   map[net.Conn]struct{}
	streams []*inbound // append-only: whom a broadcast may reach
}

func newEndpoint(who string, opt Timeouts, logf func(string, ...any)) endpoint {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return endpoint{who: who, opt: opt, logf: logf, closed: make(chan struct{}), conns: map[net.Conn]struct{}{}}
}

// listen binds the endpoint: to ln when the caller pre-bound one, else
// to addr.
func (ep *endpoint) listen(ln net.Listener, addr string) (err error) {
	if ep.ln = ln; ln == nil {
		if ep.ln, err = net.Listen("tcp", addr); err != nil {
			return fmt.Errorf("node: %s listen %s: %w", ep.who, addr, err)
		}
	}
	return nil
}

// Addr returns the address peers dial.
func (ep *endpoint) Addr() string { return ep.ln.Addr().String() }

// acceptLoop hands every accepted connection to handle on its own
// goroutine, until stop.
func (ep *endpoint) acceptLoop(handle func(net.Conn)) {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			select {
			case <-ep.closed:
			default:
				ep.logf("%s: accept: %v", ep.who, err)
			}
			return
		}
		ep.connMu.Lock()
		select {
		case <-ep.closed: // raced stop's sweep
			ep.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		ep.conns[conn] = struct{}{}
		ep.connMu.Unlock()
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			handle(conn)
			conn.Close()
			ep.connMu.Lock()
			delete(ep.conns, conn)
			ep.connMu.Unlock()
		}()
	}
}

// stop begins teardown, abruptly: the listener and every accepted
// connection close. The caller then waits on wg.
func (ep *endpoint) stop() {
	ep.stopOnce.Do(func() {
		close(ep.closed)
		ep.ln.Close()
		ep.dropConns()
	})
}

// dropConns closes every accepted connection and keeps listening: the
// mesh's epoch reset, after which each peer redials and handshakes
// afresh.
func (ep *endpoint) dropConns() {
	ep.connMu.Lock()
	for conn := range ep.conns {
		conn.Close()
	}
	ep.connMu.Unlock()
}

// coordConn is one accepted stream connection. What the endpoint tells
// the peer — handshake answers, decisions — goes into its outbox, so no
// sender waits on the peer: one that stops reading delays only its own
// connection. After a failed write the peer's resume handshake replays
// the decisions. A nil *coordConn owns a relayed origin's stream (its
// relay's uplink carries what the root sends), or stands for an ingest
// bench's socket: sending to it is a no-op.
type coordConn struct {
	net.Conn
	br   *bufio.Reader
	peer string    // "node 3", "relay 0": for the log, once the handshake names it
	ep   *endpoint // the owner: its WaitGroup counts the writer, its stop closes the connection under a stuck one
	out  outbox
}

// newConn wraps an accepted connection.
func (ep *endpoint) newConn(raw net.Conn) *coordConn {
	c := &coordConn{Conn: raw, br: bufReader(raw), ep: ep}
	c.out = outbox{conn: raw, timeout: ep.opt.WriteTimeout, report: func(err error) {
		ep.logf("%s: %s: write: %v", ep.who, c.peer, err)
	}}
	return c
}

// send queues ms behind everything sent to the connection before, and
// starts a writer if none is active.
func (c *coordConn) send(ms ...wire.Msg) {
	if c == nil || len(ms) == 0 {
		return
	}
	c.out.mu.Lock()
	defer c.out.mu.Unlock()
	for _, m := range ms {
		c.out.frames = append(c.out.frames, &wire.Buffer{B: wire.Marshal(0, m)})
	}
	if c.out.claim() {
		c.ep.wg.Add(1)
		go func() {
			defer c.ep.wg.Done()
			c.out.write()
		}()
	}
}

// outbox is the one writer of a session connection, at either end: an
// accepted connection's queue and the session client's log. A writer
// claims it, takes the connection and the unwritten frames under mu,
// writes them with no lock held, and takes mu again to count them
// written, or to drop the connection on an error, until none is left.
// One writer at a time, in list order, and nothing more on a connection
// a write failed on: the wire carries a prefix of the list. Frames stay
// listed: the client's log is replayed from wherever a resume acks, and
// an accepted connection's few decisions per epoch die with it.
type outbox struct {
	timeout time.Duration // per write
	bytes   *obs.Counter  // bytes written; nil counts none
	report  func(error)   // a write error, but not a closed connection's

	mu      sync.Mutex
	conn    net.Conn // nil while there is none: frames wait
	frames  []*wire.Buffer
	wrote   int           // frames[:wrote] are on conn
	writing chan struct{} // non-nil while a writer is active, closed as it stops
	writes  int           // vectored writes issued, for the tests that pin one per pass

	iov, iovW net.Buffers // the writer's scratch; WriteTo consumes iovW
}

// writeChunk bounds one vectored write: a pass is far below it, and a
// resume replay of a long log renews its write deadline every that-many
// frames instead of staking the whole backlog on one.
const writeChunk = 512

// claim makes the caller the writer, which then runs write, if there is
// a frame to write and no writer is active. Caller holds mu.
func (o *outbox) claim() bool {
	if o.writing != nil || o.conn == nil || o.wrote == len(o.frames) {
		return false
	}
	o.writing = make(chan struct{})
	return true
}

// write is the claimed writer: one vectored write (writev on TCP) per
// writeChunk frames, until none is unwritten or there is no connection.
// A write to a connection since replaced counts for nothing: whoever
// replaced it set wrote for its successor.
func (o *outbox) write() {
	o.mu.Lock()
	for o.conn != nil && o.wrote < len(o.frames) {
		conn, frames := o.conn, o.frames[o.wrote:min(len(o.frames), o.wrote+writeChunk)]
		o.writes++
		o.mu.Unlock()
		o.iov = o.iov[:0]
		for _, b := range frames {
			o.iov = append(o.iov, b.B)
		}
		o.iovW = o.iov
		conn.SetWriteDeadline(time.Now().Add(o.timeout))
		n, err := o.iovW.WriteTo(conn)
		o.bytes.Add(n)
		if err != nil {
			conn.Close()
			if !errors.Is(err, net.ErrClosed) {
				o.report(err)
			}
		}
		o.mu.Lock()
		switch {
		case o.conn != conn:
		case err != nil:
			o.conn = nil
		default:
			o.wrote += len(frames)
		}
	}
	close(o.writing)
	o.writing = nil
	o.mu.Unlock()
}

// wait returns once no writer is active: a handler that ends its
// handshake closes its connection behind what it sent, Wait returns
// with the Commit written, and a closed client's log is free.
func (o *outbox) wait() {
	o.mu.Lock()
	writing := o.writing
	o.mu.Unlock()
	if writing != nil {
		<-writing
	}
}

// open wraps an accepted connection and reads its handshake frame, body
// kept raw (a relay forwards a Hello verbatim).
func (ep *endpoint) open(raw net.Conn) (conn *coordConn, body []byte, seq uint64, first wire.Msg, err error) {
	conn = ep.newConn(raw)
	raw.SetReadDeadline(time.Now().Add(ep.opt.DialTimeout))
	if body, err = wire.ReadRawBody(conn.br); err == nil {
		seq, first, err = wire.DecodeBody(body)
	}
	if err != nil {
		ep.logf("%s: handshake: %v", ep.who, err)
	}
	return conn, body, seq, first, err
}

// nodeHandshake validates a node stream's opening frame for an n-node
// run: Hello opens a fresh stream (epoch 0 on the mesh), Resume
// continues one at its epoch.
func nodeHandshake(first wire.Msg, n int) (id int, epoch uint32, fresh bool, err error) {
	var from, hn int32
	switch h := first.(type) {
	case wire.Hello:
		from, hn, fresh = h.From, h.N, true
	case wire.Resume:
		from, hn, epoch = h.From, h.N, h.Epoch
	default:
		return 0, 0, false, fmt.Errorf("first frame is %T, want Hello or Resume", first)
	}
	if int(hn) != n {
		return 0, 0, false, fmt.Errorf("peer believes cluster size %d, ours is %d", hn, n)
	}
	if from < 0 || int(from) >= n {
		return 0, 0, false, fmt.Errorf("invalid peer id %d", from)
	}
	return int(from), epoch, fresh, nil
}

// serve reads conn's frames until the stream breaks or frame refuses
// one, handing each raw body to frame — the role's glue, which decodes
// what it needs and delivers through its session's gate. count, when
// set, meters every body read (the root's ingest accounting).
func (ep *endpoint) serve(conn *coordConn, count func(bodyLen int), frame func(body []byte) error) {
	for {
		conn.SetReadDeadline(time.Now().Add(streamReadDeadline))
		body, err := wire.ReadRawBody(conn.br)
		if err == nil {
			if count != nil {
				count(len(body))
			}
			err = frame(body)
		}
		if err == nil {
			continue
		}
		select {
		case <-ep.closed:
		default:
			if err != errSuperseded && !errors.Is(err, net.ErrClosed) {
				ep.logf("%s: %s stream: %v", ep.who, conn.peer, err)
			}
		}
		return
	}
}

// owners returns every stream's live connection, nil for a stream no
// connection owns (at the root that includes relay uplinks: a decision
// reaches relayed nodes through their relay's fan-out).
func (ep *endpoint) owners() []*coordConn {
	ep.connMu.Lock()
	streams := ep.streams
	ep.connMu.Unlock()
	conns := make([]*coordConn, len(streams))
	for i, in := range streams {
		in.mu.Lock()
		conns[i] = in.owner
		in.mu.Unlock()
	}
	return conns
}

// broadcast queues ms to every stream's live connection.
func (ep *endpoint) broadcast(ms ...wire.Msg) {
	for _, conn := range ep.owners() {
		conn.send(ms...)
	}
}

// inbound is the receiving end of one resumable stream. It outlives any
// one connection: a peer whose stream broke resumes it (the cumulative
// sequence absorbs the replayed tail), a relaunched peer restarts it.
type inbound struct {
	// ingestMu makes accepting a frame and staging it one step, and
	// adoption wait for it: a handler superseded mid-frame must not
	// interleave its staging with the successor's, or the next hop sees
	// frame k+1 before k and its duplicate check silently drops k.
	ingestMu sync.Mutex

	// mu guards the fields below and whatever the embedding session
	// stages under it. Taken after ingestMu.
	mu       sync.Mutex
	owner    *coordConn // the connection currently allowed to deliver
	lastSeq  uint64     // highest sequence accepted
	attached bool       // a peer has handshaken for this stream before
}

// errSuperseded refuses a frame from a connection that no longer owns
// its stream.
var errSuperseded = errors.New("superseded by a newer connection")

// deliver is the sequence gate: it runs fn — the staging of frame seq,
// arrived on conn — if and only if the frame is new, as one step with
// accepting it. A duplicate (the client retransmits everything past its
// last ack) is dropped silently. A frame from a connection that lost
// the stream is refused: what is still buffered on it would interleave
// with — or, after a relaunch's sequence reset, masquerade as — the
// successor's. A gap is refused too: inside a live TCP stream it can
// only be corruption, and the resume replays from the last accepted
// frame. A nil conn delivers a relayed inner frame: the relay's own
// session vouches for the connection, so only monotonicity is required.
// A relay forwards every frame it accepts, but IngestRelayBench feeds a
// sealed bundle's records — capture frames only — whose sequences have
// gaps where the control frames were.
func (in *inbound) deliver(conn *coordConn, seq uint64, fn func()) error {
	in.ingestMu.Lock()
	defer in.ingestMu.Unlock()
	in.mu.Lock()
	last := in.lastSeq
	switch {
	case conn != nil && in.owner != conn:
		in.mu.Unlock()
		return errSuperseded
	case seq <= last:
		in.mu.Unlock()
		return nil
	case conn != nil && seq != last+1:
		in.mu.Unlock()
		return fmt.Errorf("sequence gap (%d after %d); dropping connection for resume", seq, last)
	}
	in.lastSeq = seq
	in.mu.Unlock()
	fn()
	return nil
}

// adoptLocked makes conn the stream's owner and returns the cumulative
// sequence to ack. The caller holds ingestMu, so the frame a predecessor
// is staging has landed. fresh restarts the numbering at seq: a Hello's
// own (the new process counts from it), 0 for a relay process with a
// new session log. The superseded connection is closed: its handler
// must not keep reading a dead stream.
func (in *inbound) adoptLocked(conn *coordConn, fresh bool, seq uint64) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if old := in.owner; old != nil && old != conn {
		old.Close()
	}
	in.owner, in.attached = conn, true
	if fresh {
		in.lastSeq = seq
	}
	return in.lastSeq
}

// register makes a new stream reachable by broadcasts.
func (ep *endpoint) register(in *inbound) {
	ep.connMu.Lock()
	ep.streams = append(ep.streams, in)
	ep.connMu.Unlock()
}

// decisions is the run's terminal decision state as a handshake must
// present it, folded from the decision frames: by the root from each
// frame it decides (rootCore.decide), by every client of the root
// from each frame it receives (a node's epoch loop and a relay's Resume
// handshakes read the fold). A connection that was not attached when a
// decision was broadcast learns it here.
type decisions struct {
	epoch     uint32
	shutdown  bool            // Shutdown broadcast for epoch, byes pending
	committed bool            // Commit broadcast: the run is sealed
	detection *wire.Detection // latest detection that drove a re-execution
	answered  []uint64        // incarnations whose Hello answer a client folded (the root's re-answers: rootCore.resume)
}

// advance moves the state to epoch e if e is newer. A Shutdown pending
// for the epoch it leaves is void: that execution is being re-run.
func (d *decisions) advance(e uint32) {
	if e > d.epoch {
		d.epoch, d.shutdown = e, false
	}
}

// fold applies one decision frame — the inverse of replay, so a client
// ends up holding what the root's handshakes would replay to it — and
// reports whether m was one. Restart, ReExec and a ResumeAck only ever
// advance the epoch; a Restart that answers a Hello also records its
// incarnation. A Shutdown counts for the epoch it names, so one a
// restart raced past is void. A Detection puts the run under active
// debugging: a planted rogue reverts to controlled behavior from here on.
func (d *decisions) fold(m wire.Msg) bool {
	switch v := m.(type) {
	case wire.Restart:
		d.advance(v.Epoch)
		if v.Inc != 0 && !slices.Contains(d.answered, v.Inc) {
			d.answered = append(d.answered, v.Inc)
		}
	case wire.ReExec:
		d.advance(v.Epoch)
	case wire.ResumeAck:
		d.advance(v.Epoch)
	case wire.Shutdown:
		d.shutdown = d.shutdown || v.Epoch == d.epoch
	case wire.Commit:
		d.committed = true
	case wire.Detection:
		d.detection = &v
	default:
		return false
	}
	return true
}

// replay answers a resume handshake: the cumulative ack (whose epoch
// covers any Restart or ReExec missed while disconnected), then the
// decisions still in force, in decision order — so the peer can bye,
// and exit if the run is sealed — and every Hello answer folded, since
// an acked Hello comes no more and its answer may have died.
func (d decisions) replay(cum uint64) []wire.Msg {
	ms := []wire.Msg{wire.ResumeAck{Cum: cum, Epoch: d.epoch}}
	if d.detection != nil {
		ms = append(ms, *d.detection)
	}
	for _, inc := range d.answered {
		ms = append(ms, wire.Restart{Epoch: d.epoch, Inc: inc})
	}
	if d.shutdown {
		ms = append(ms, wire.Shutdown{Epoch: d.epoch})
	}
	if d.committed {
		ms = append(ms, wire.Commit{})
	}
	return ms
}

// incarnation is where one node process stands: held until the root
// answers its Hello, then running an epoch, byed at it, and gone.
type incarnation struct {
	inc   uint64 // the incarnation its Hello named
	phase phase
	epoch uint32 // the epoch it runs, once started
}

type phase uint8

const (
	held phase = iota
	running
	byed // parked after its bye, until Commit
	gone
)

// step is a node's whole reaction to the decisions d it has folded. A
// held incarnation starts only on its own answer (never on another
// node's Restart), at the epoch it has folded. Commit ends every phase,
// a newer epoch restarts a started incarnation, and a Shutdown at its
// epoch byes a running one. Run does what the phase entered says:
// (re)start the workload, bye and park, or leave.
func (s incarnation) step(d decisions) incarnation {
	switch {
	case s.phase == gone:
	case d.committed:
		s.phase = gone
	case s.phase == held && slices.Contains(d.answered, s.inc), s.phase != held && d.epoch > s.epoch:
		s.phase, s.epoch = running, d.epoch
	case s.phase == running && d.shutdown && d.epoch == s.epoch:
		s.phase = byed
	}
	return s
}
