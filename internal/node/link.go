package node

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// link is one direction of a peer pair: this node's reliable, ordered
// channel *to* one peer. Each ordered pair of nodes communicates over
// the dialer's outbound connection, so a node runs n−1 outbound links
// and accepts n−1 inbound streams; there is no connection dedup or
// simultaneous-open tie-break to get wrong.
//
// Reliability is a small ARQ on top of TCP, needed because the
// fault-injection shim (and, across reconnects, TCP itself) may lose
// frames: every protocol frame carries a sender-assigned sequence
// number, the receiver acknowledges cumulatively (wire.LinkAck riding
// its own reverse link), and a retransmit pass re-sends everything
// unacknowledged. Writes happen on a single writer goroutine — sends
// enqueue and never block the protocol — with per-write deadlines, and
// a failed or absent connection is re-dialed with capped exponential
// backoff.
//
// The write path is allocation-lean and coalescing: frames are encoded
// into pooled buffers (wire.GetBuffer) that double as the retransmit
// copy and return to the pool when acknowledged, and the writer drains
// every frame that accumulated since its last wake into one buffer —
// one syscall — per wake. The retransmit timer is demand-armed (set
// only while unacknowledged frames exist) rather than free-running: a
// 128-node mesh has 16k links, and idle ones must cost nothing.
type link struct {
	from, to int
	addr     string
	n        int // cluster size, for the Hello/Resume handshake
	faults   *faultRand
	parts    *partitions    // partition schedule; nil when none
	epoch    *atomic.Uint32 // the transport's current re-execution epoch
	opt      Timeouts
	logf     func(string, ...any)
	wm       wireMeters

	mu       sync.Mutex // guards nextSeq, unacked, curEpoch
	nextSeq  uint64
	unacked  []outFrame
	curEpoch uint32 // epoch the queued frames belong to (stale acks are ignored)

	sendFlag chan struct{} // cap 1: unsent frames are pending in unacked
	ackFlag  chan struct{} // cap 1: an ack is pending in ackCum

	// The pending cumulative ack is epoch-tagged: an ack describes one
	// epoch's receive state, and announcing a stale value on a stream
	// handshaken at a newer epoch would prune frames the peer still owes
	// the new execution.
	ackMu    sync.Mutex
	ackCum   uint64 // highest cumulative ack to announce (+1, so 0 = none)
	ackEpoch uint32

	ctx  context.Context // canceled by close, cutting short a dial in progress
	stop context.CancelFunc
	wg   sync.WaitGroup

	// Writer-goroutine-owned scratch: frame bytes are copied out of the
	// pooled buffers under l.mu, so an ack racing the write can return a
	// buffer to the pool without the writer observing the reuse.
	wbuf  []byte
	marks []int // end offset of each frame within wbuf
	abuf  []byte

	connMu    sync.Mutex // guards conn, connGen and the redial backoff state; never held across a dial or write
	conn      net.Conn
	connGen   uint64 // bumped by every drop: a dial that spans one installs nothing
	connEpoch uint32 // the epoch conn handshook at; writes must match it
	dialFails int
	nextDial  time.Time
}

// outFrame is one sequenced frame awaiting acknowledgement. buf is
// pool-owned: onAck returns it when the peer acknowledges. sent
// distinguishes first transmission (writer wake) from retransmission
// (RTO pass re-sends everything, sent or not).
type outFrame struct {
	seq  uint64
	buf  *wire.Buffer
	sent bool
}

// wireMeters counts a stream's wire traffic: frames put on the wire,
// bytes written, and frames coalesced per write (the batch size the
// cluster bench reports). Nil-safe via the obs instruments.
type wireMeters struct {
	frames *obs.Counter
	bytes  *obs.Counter
	batch  *obs.Histogram
	retx   *obs.Counter
}

// newWireMeters resolves the wire metrics for one stream ("mesh" for
// node↔node links, "coord" for the capture stream).
func newWireMeters(reg *obs.Registry, stream string) wireMeters {
	l := obs.L("stream", stream)
	return wireMeters{
		frames: reg.Counter("predctl_wire_frames_total", l),
		bytes:  reg.Counter("predctl_wire_bytes_total", l),
		batch:  reg.Histogram("predctl_wire_batch_size", l),
		retx:   reg.Counter("predctl_wire_retransmits_total", l),
	}
}

// Timeouts bundles the link/transport tunables. Zero values take the
// defaults below.
type Timeouts struct {
	RTO          time.Duration // retransmit delay while frames are unacknowledged
	DialTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration // read deadline renewal window
	BackoffMin   time.Duration // first redial delay after a failure
	BackoffMax   time.Duration // redial delay cap
	// CoordDeadline bounds one coordinator (re)dial campaign: the
	// overall time dialCoord (and each mid-run redial after a stream
	// break) keeps retrying with capped exponential backoff before
	// giving up. A slowly-restarting coordinator is reachable as long
	// as it comes back within this window.
	CoordDeadline time.Duration
}

func (t Timeouts) withDefaults() Timeouts {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&t.RTO, 25*time.Millisecond)
	def(&t.DialTimeout, 2*time.Second)
	def(&t.WriteTimeout, 2*time.Second)
	def(&t.IdleTimeout, 500*time.Millisecond)
	def(&t.BackoffMin, 5*time.Millisecond)
	def(&t.BackoffMax, 500*time.Millisecond)
	def(&t.CoordDeadline, 30*time.Second)
	return t
}

// backoffDelay is the capped exponential redial backoff shared by the
// mesh links and the coordinator stream: BackoffMin doubled per
// consecutive failure, capped at BackoffMax.
func backoffDelay(opt Timeouts, fails int) time.Duration {
	if fails > 30 {
		fails = 30
	}
	d := opt.BackoffMin << fails
	if d > opt.BackoffMax || d <= 0 {
		d = opt.BackoffMax
	}
	return d
}

// dialHandshake is one connection attempt, shared by the mesh links and
// the coordinator stream (each paces its own retries): dial until ctx is
// done, disable Nagle, write the encoded handshake frame under the write
// deadline.
func dialHandshake(ctx context.Context, addr string, frame []byte, opt Timeouts) (net.Conn, error) {
	c, err := (&net.Dialer{Timeout: opt.DialTimeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.SetWriteDeadline(time.Now().Add(opt.WriteTimeout))
	if _, err := c.Write(frame); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func newLink(from, to, n int, addr string, faults Faults, parts *partitions, epoch *atomic.Uint32, opt Timeouts, wm wireMeters, logf func(string, ...any)) *link {
	l := &link{
		from: from, to: to, addr: addr, n: n,
		faults:   newFaultRand(faults, from, to),
		parts:    parts,
		epoch:    epoch,
		opt:      opt,
		logf:     logf,
		wm:       wm,
		sendFlag: make(chan struct{}, 1),
		ackFlag:  make(chan struct{}, 1),
	}
	l.ctx, l.stop = context.WithCancel(context.Background())
	l.wg.Add(1)
	go l.writer()
	return l
}

// Send enqueues m for reliable delivery. It never blocks: the frame is
// registered as unacknowledged and the writer is nudged; a missed nudge
// is harmless because the writer drains *all* unsent frames per wake.
func (l *link) Send(m wire.Msg) {
	b := wire.GetBuffer()
	l.mu.Lock()
	l.nextSeq++
	// Encoding under l.mu keeps unacked sorted by seq (onAck's prune and
	// the retransmit pass rely on it); AppendFrame is allocation-free.
	b.B = wire.AppendFrame(b.B[:0], l.nextSeq, m)
	l.unacked = append(l.unacked, outFrame{seq: l.nextSeq, buf: b})
	l.mu.Unlock()
	select {
	case l.sendFlag <- struct{}{}:
	default: // writer already has a wake pending
	}
}

// Ack schedules a cumulative acknowledgement for the reverse direction
// (frames this node received *from* l.to), tagged with the epoch of the
// receive state it describes. Coalescing is free: within an epoch only
// the latest value matters, and a newer epoch supersedes outright.
func (l *link) Ack(cum uint64, epoch uint32) {
	l.ackMu.Lock()
	switch {
	case epoch > l.ackEpoch:
		l.ackEpoch = epoch
		l.ackCum = cum + 1
	case epoch == l.ackEpoch && cum+1 > l.ackCum:
		l.ackCum = cum + 1
	default:
		l.ackMu.Unlock()
		return
	}
	l.ackMu.Unlock()
	select {
	case l.ackFlag <- struct{}{}:
	default:
	}
}

// onAck prunes frames acknowledged by the peer, returning their buffers
// to the pool. Safe against an in-flight write: the writer copied the
// bytes out under l.mu before writing. epoch is the acknowledging
// stream's handshake epoch — an ack read from a stale connection just
// before an epoch reset must not prune the new epoch's frames.
func (l *link) onAck(cum uint64, epoch uint32) {
	l.mu.Lock()
	if epoch != l.curEpoch {
		l.mu.Unlock()
		return
	}
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= cum {
		wire.PutBuffer(l.unacked[i].buf)
		l.unacked[i].buf = nil
		i++
	}
	l.unacked = l.unacked[i:]
	l.mu.Unlock()
}

// reset abandons the current epoch's traffic for a controlled
// re-execution at epoch e: unacknowledged frames are discarded (the old
// execution they belonged to is void), sequence numbering restarts, the
// connection is dropped so both sides re-handshake at the new epoch,
// and the redial backoff is cleared.
func (l *link) reset(e uint32) {
	l.mu.Lock()
	for _, f := range l.unacked {
		wire.PutBuffer(f.buf)
	}
	l.unacked = nil
	l.nextSeq = 0
	l.curEpoch = e
	l.mu.Unlock()
	l.ackMu.Lock()
	l.ackCum = 0
	l.ackEpoch = e
	l.ackMu.Unlock()
	l.dropConn()
	l.connMu.Lock()
	l.dialFails = 0
	l.nextDial = time.Time{}
	l.connMu.Unlock()
}

// close stops the writer and drops the connection.
func (l *link) close() {
	l.stop()
	l.dropConn()
	l.wg.Wait()
	l.mu.Lock()
	for _, f := range l.unacked {
		wire.PutBuffer(f.buf)
	}
	l.unacked = nil
	l.mu.Unlock()
}

func (l *link) dropConn() {
	l.connMu.Lock()
	l.connGen++
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.connMu.Unlock()
}

// writer is the link's single writer goroutine: first transmissions,
// retransmissions and acks all funnel here, so frames never interleave
// on the stream. The RTO timer is demand-armed: it runs only while
// unacknowledged frames exist, so a quiet link costs no wakeups.
func (l *link) writer() {
	defer l.wg.Done()
	rto := time.NewTimer(l.opt.RTO)
	if !rto.Stop() {
		<-rto.C
	}
	defer rto.Stop()
	armed := false
	arm := func() {
		if armed {
			return
		}
		l.mu.Lock()
		pending := len(l.unacked) > 0
		l.mu.Unlock()
		if pending {
			rto.Reset(l.opt.RTO)
			armed = true
		}
	}
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-l.sendFlag:
			l.flush(false)
			arm()
		case <-rto.C:
			armed = false
			l.flush(true)
			arm()
		case <-l.ackFlag:
			l.ackMu.Lock()
			cum, epoch := l.ackCum, l.ackEpoch
			l.ackMu.Unlock()
			if cum > 0 {
				// Acks are fault-exempt (idempotent and self-healing; a
				// shim-dropped ack under receiver dedup would retransmit
				// forever) and never coalesce into a faulted batch.
				l.abuf = wire.AppendFrame(l.abuf[:0], 0, wire.LinkAck{Cum: cum - 1})
				l.wm.frames.Inc()
				l.wm.bytes.Add(int64(len(l.abuf)))
				l.writeFrame(l.abuf, epoch)
			}
		}
	}
}

// flush puts pending frames on the wire: the unsent tail on a send
// wake, everything unacknowledged on an RTO pass. Frame bytes are
// copied into the writer-owned wbuf under l.mu — the pooled per-frame
// buffers may be reclaimed by onAck the instant the lock drops — and
// the clean path writes the whole batch with a single syscall. With
// the fault shim active, decisions stay per frame (drop/dup/delay are
// per-write-attempt semantics), so frames are written individually.
func (l *link) flush(retransmit bool) {
	l.wbuf = l.wbuf[:0]
	l.marks = l.marks[:0]
	l.mu.Lock()
	// The copied frames are pinned to the epoch they were queued under: a
	// Reset can land while the shim delays a write below, and writing the
	// abandoned epoch's bytes on a freshly-handshaken stream would let
	// them masquerade as the new epoch's small sequence numbers (a stale
	// protocol ack delivered into the re-execution grants instantly).
	epoch := l.curEpoch
	resent := 0
	for i := range l.unacked {
		f := &l.unacked[i]
		if f.sent && !retransmit {
			continue
		}
		if f.sent {
			resent++
		}
		f.sent = true
		l.wbuf = append(l.wbuf, f.buf.B...)
		l.marks = append(l.marks, len(l.wbuf))
	}
	l.mu.Unlock()
	if len(l.marks) == 0 {
		return
	}
	if resent > 0 {
		l.wm.retx.Add(int64(resent))
	}
	l.wm.frames.Add(int64(len(l.marks)))
	l.wm.batch.Observe(int64(len(l.marks)))
	if l.faults == nil {
		l.wm.bytes.Add(int64(len(l.wbuf)))
		l.writeFrame(l.wbuf, epoch)
		return
	}
	start := 0
	for _, end := range l.marks {
		frame := l.wbuf[start:end]
		start = end
		d := l.faults.next()
		if d.delay > 0 {
			select {
			case <-l.ctx.Done():
				return
			case <-time.After(d.delay):
			}
		}
		if d.drop {
			continue
		}
		l.wm.bytes.Add(int64(len(frame)))
		l.writeFrame(frame, epoch)
		if d.dup {
			l.wm.bytes.Add(int64(len(frame)))
			l.writeFrame(frame, epoch)
		}
	}
}

// writeFrame writes one already-encoded frame (or coalesced batch) with
// a deadline, (re)dialing first if needed. epoch is the epoch the bytes
// belong to; they only go out on a connection handshaken at exactly that
// epoch, so traffic of an abandoned execution can never slip into a
// fresh sequence space. Errors drop the connection; recovery is the
// retransmit pass's job. An open partition window severs the link
// completely: the frame is skipped (it stays unacknowledged and the RTO
// pass re-offers it after the heal) and any live connection is torn down
// so no TCP buffer smuggles bytes across the cut.
func (l *link) writeFrame(buf []byte, epoch uint32) {
	if l.parts.meshSevered(l.from, l.to, time.Now()) {
		l.dropConn()
		return
	}
	conn := l.ensureConn(epoch)
	if conn == nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(l.opt.WriteTimeout))
	if _, err := conn.Write(buf); err != nil {
		select {
		case <-l.ctx.Done(): // teardown closes conns under the writer; quiet
		default:
			l.logf("node %d: link to %d: write: %v", l.from, l.to, err)
		}
		l.dropConn()
	}
}

// ensureConn returns the live connection handshaken at exactly `epoch`,
// dialing (with capped exponential backoff between attempts) when there
// is none. A connection at any other epoch is stale — torn down, not
// reused — and dialing is refused both while a partition window severs
// the link and when the transport has already moved past `epoch` (the
// frames wanting this connection belong to an abandoned execution). The
// handshake frame is Hello at epoch 0 and Resume{Epoch} after any
// controlled re-execution restart: the acceptor rejects mismatched
// epochs, so a stale peer cannot feed frames from a discarded execution
// into the new one. The dial runs with no lock held, and a drop, reset
// or close that lands during it wins: the new connection is closed, not
// installed.
func (l *link) ensureConn(epoch uint32) net.Conn {
	l.connMu.Lock()
	if l.conn != nil && l.connEpoch != epoch {
		l.conn.Close()
		l.conn = nil
	}
	conn, gen := l.conn, l.connGen
	dial := conn == nil && l.epoch.Load() == epoch && !time.Now().Before(l.nextDial) &&
		!l.parts.meshSevered(l.from, l.to, time.Now())
	l.connMu.Unlock()
	if !dial {
		return conn
	}
	// The unacknowledged tail is replayed by the next RTO pass, and the
	// peer's dedup makes the replay harmless. A rejected epoch (peer not
	// yet restarted, or we are behind) surfaces as the peer closing the
	// connection; the next dial retries.
	var hs wire.Msg = wire.Hello{From: int32(l.from), N: int32(l.n)}
	if epoch > 0 {
		hs = wire.Resume{From: int32(l.from), N: int32(l.n), Epoch: epoch}
	}
	c, err := dialHandshake(l.ctx, l.addr, wire.Marshal(0, hs), l.opt)
	l.connMu.Lock()
	defer l.connMu.Unlock()
	switch {
	case err != nil:
		l.nextDial = time.Now().Add(backoffDelay(l.opt, l.dialFails))
		if l.dialFails < 30 {
			l.dialFails++
		}
		return nil
	case gen != l.connGen:
		c.Close()
		return nil
	}
	l.dialFails = 0
	l.nextDial = time.Time{}
	l.conn = c
	l.connEpoch = epoch
	return c
}

// bufReader sizes the per-connection read buffer.
func bufReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, 64<<10) }
