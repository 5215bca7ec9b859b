// Package wire is the network runtime's binary codec: a compact,
// versioned, length-prefixed encoding of every message the predicate
// control protocol puts on a real link. It is the contract between node
// daemons (internal/node) and between a node and the trace-capturing
// coordinator, kept deliberately free of both net and sim dependencies
// so it can be fuzzed and round-trip-tested in isolation.
//
// Stream framing:
//
//	[u32 big-endian body length][body]
//	body = [u8 version][u8 kind][uvarint seq][kind-specific payload]
//
// seq is the reliable-link sequence number assigned by the sender
// (0 for unsequenced link-control frames such as Hello and LinkAck);
// the link layer in internal/node uses it for at-least-once delivery
// with receiver-side deduplication, which is what makes the
// fault-injection shim's drops and duplicates recoverable.
//
// Integers are varint-encoded (zigzag for signed fields, so the
// vclock.None = -1 sentinel costs one byte); strings and byte slices
// are length-prefixed. Decoding is strict: unknown versions or kinds,
// truncated payloads, oversized counts and trailing bytes are all
// errors, never panics — the fuzz target in fuzz_test.go holds the
// codec to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Version is the protocol version this codec speaks. A node refuses
// frames from any other version: protocol evolution bumps it, and mixed
// clusters fail loudly at the handshake instead of misparsing.
const Version = 1

// MaxFrame bounds the body length accepted from a peer (1 MiB): a
// corrupt or hostile length prefix must not OOM the daemon.
const MaxFrame = 1 << 20

// maxVC bounds vector-clock and list lengths inside one frame.
const maxVC = 1 << 16

// Msg is one decoded protocol message. The set is closed (sealed by the
// unexported method): Hello, LinkAck, Ctl, App, Candidate, JournalEvent,
// Trace, Done, Shutdown, JournalBatch, TraceOpBatch, CandidateBatch,
// Resume, ResumeAck, Restart, EpochMark, Commit, MetricsSnapshot,
// Detection, ReExec, RelayHello, RelayBatch, SegmentRecord.
type Msg interface{ wireKind() byte }

// Frame kinds (the body's second byte).
const (
	kindHello byte = iota + 1
	kindLinkAck
	kindCtl
	kindApp
	kindCandidate
	kindJournalEvent
	kindTrace
	kindDone
	kindShutdown
	kindJournalBatch
	kindTraceOpBatch
	kindCandidateBatch
	kindResume
	kindResumeAck
	kindRestart
	kindEpochMark
	kindCommit
	kindMetricsSnapshot
	kindDetection
	kindReExec
	kindRelayHello
	kindRelayBatch
	kindSegmentRecord
)

// CtlKind is a controller-to-controller handoff message kind, mirroring
// online.MsgKind (req/ack/confirm/cancel) without importing it.
type CtlKind uint8

// The four handoff message kinds of the paper's Figure 3 strategy plus
// the broadcast completion round.
const (
	CtlReq CtlKind = iota
	CtlAck
	CtlConfirm
	CtlCancel
)

var ctlKindNames = [...]string{"req", "ack", "confirm", "cancel"}

func (k CtlKind) String() string {
	if int(k) < len(ctlKindNames) {
		return ctlKindNames[k]
	}
	return fmt.Sprintf("CtlKind(%d)", uint8(k))
}

// Hello opens every connection: it names the dialing node and the
// cluster size, so the accepting side can reject mismatched clusters
// and index its per-peer receive state. On a coordinator stream it is
// also sequenced frame 1 of the session log, and Inc names the dialing
// process incarnation: non-zero, drawn once per process, so the root
// can tell a relaunched node from a resume replaying the same Hello.
// Inc is an optional trailing field (omitted when zero), so mesh Hellos
// stay byte-identical to the committed v1 fixtures.
type Hello struct {
	From int32  // dialing node id (coordinator uses -1)
	N    int32  // cluster size the dialer believes in
	Inc  uint64 // coordinator streams: the process incarnation
}

// LinkAck is the reliable link's cumulative acknowledgement: every
// sequenced frame with seq ≤ Cum from the acknowledged direction has
// been delivered. Unsequenced itself, idempotent, safe to lose.
type LinkAck struct {
	Cum uint64
}

// Ctl is a handoff protocol message between controllers (app-index
// space). Gen piggybacks the sender's anti-token generation so
// acquisitions are totally ordered for the chain invariant; TraceID
// identifies the message in the captured deposet trace; VC piggybacks
// the sender's node-level vector clock.
type Ctl struct {
	Kind    CtlKind
	From    int32
	To      int32
	Gen     uint64
	TraceID uint64
	VC      []int32
}

// App is an application-level message between controlled processes,
// with the piggybacked vector clock the monitor-style online detection
// needs and the TraceID that binds it into the captured deposet.
type App struct {
	From    int32
	To      int32
	TraceID uint64
	VC      []int32
	Payload []byte
}

// Candidate reports one maximal true-interval of a node's local
// predicate to the coordinator (the Garg–Waldecker candidate of
// internal/monitor, §4 of the paper): interval endpoints as vector
// clocks plus traced state indices. No node sends one since the root
// derives the intervals from the trace it assembles; the kind still
// decodes, and the root reads it and drops it.
type Candidate struct {
	Proc   int32
	LoIdx  int64
	HiIdx  int64
	Lo, Hi []int32
}

// JournalEvent forwards one obs.Event from a node to the coordinator,
// so a multi-process cluster still assembles a single journal for the
// invariant checkers.
type JournalEvent struct {
	At   int64
	Proc int32
	Kind uint8
	Name string
	A    int64
	B    int64
	C    int64
	VC   []int32
}

// TraceOp codes for TraceOp.Op.
const (
	TraceInit byte = iota + 1 // set Name := Value at the initial state ⊥
	TraceStep                 // local event
	TraceSend                 // send event of message MsgID
	TraceRecv                 // receive event of message MsgID
	TraceLet                  // set Name := Value at the current state
	TraceSet                  // local event that sets Name := Value
)

// TraceOp is one deposet-building operation of logical process Proc, in
// that process's event order. The coordinator replays ops through a
// deposet.Builder, matching TraceSend/TraceRecv pairs by MsgID, to
// capture the networked run as a trace that pctl replay and the offline
// analyses consume unchanged.
type TraceOp struct {
	Op    byte
	Proc  int32
	MsgID uint64
	Name  string
	Value int64
}

// Trace batches trace-capture operations from one node. It is the v1
// per-flush framing; streaming senders use TraceOpBatch, whose grouped
// encoding drops the per-op process tag, but Trace remains decodable
// forever so v1 captures stay readable.
type Trace struct {
	Ops []TraceOp
}

// JournalBatch carries many forwarded journal events in one frame — the
// batched replacement for a stream of JournalEvent frames, flushed by
// the node's capture batcher on a size-or-interval policy.
type JournalBatch struct {
	Events []JournalEvent
}

// TraceOpBatch carries trace-capture operations run-length grouped by
// logical process: consecutive ops of the same process share one group
// header, so the per-op process tag disappears from the wire. A node's
// capture buffer alternates long runs of app and controller ops, which
// is exactly the shape this encoding compresses. Decoding flattens the
// groups back into the op stream, so consumers see the same []TraceOp a
// Trace frame would carry.
type TraceOpBatch struct {
	Ops []TraceOp
}

// CandidateBatch carries many Candidate reports in one frame, like
// JournalBatch. No node sends one any more; it decodes, and the root
// drops it, as it drops a Candidate.
type CandidateBatch struct {
	Cands []Candidate
}

// Done tells the coordinator this node's application body finished,
// carrying the node's protocol tallies. The coordinator broadcasts
// Shutdown once every node reported Done.
type Done struct {
	Proc        int32
	Requests    uint64
	Handoffs    uint64
	CtlMessages uint64
	Responses   []int64 // per-request grant latency, nanoseconds
}

// Shutdown is the coordinator's stop signal to a node — and, echoed
// back with the node's epoch, the node's bye. Epoch tags which
// execution the signal belongs to: a Shutdown raced by a controlled
// re-execution restart is stale and must be ignored, not obeyed. It is
// an optional trailing field (omitted when zero) so epoch-0 frames
// stay byte-identical to the committed v1 fixtures.
type Shutdown struct {
	Epoch uint32
}

// Commit is the coordinator's final word: every node's bye for the
// final epoch is in, the run's capture is sealed, and no further
// restart can void it. Until a node sees Commit it stays resident
// after its bye — a crash elsewhere in the cluster can still trigger
// a controlled re-execution that needs this node back.
type Commit struct{}

// Resume is the session-resume handshake. It replaces Hello on any
// connection that continues an existing session rather than opening a
// fresh one: a node redialing the coordinator after a stream break or a
// healed partition, and every mesh link dial at epoch > 0 (so peers can
// tell a current-epoch stream from a stale one). Epoch is the sender's
// current re-execution epoch (§8 controlled re-execution: a crash
// anywhere restarts the run at epoch+1).
type Resume struct {
	From  int32
	N     int32
	Epoch uint32
}

// ResumeAck answers a Resume on the coordinator stream: Cum is the
// highest contiguous capture-stream sequence number the coordinator
// holds for the resuming node (the node retransmits everything after
// it), and Epoch is the cluster's current re-execution epoch, so a node
// that missed a Restart broadcast while disconnected catches up at the
// handshake.
type ResumeAck struct {
	Cum   uint64
	Epoch uint32
}

// Restart is the coordinator's controlled re-execution order: abort the
// current execution, reset protocol and capture state, and re-run the
// workload at Epoch. Broadcast when a crashed node rejoins; the paper's
// §8 recovery path — the debugged computation is re-executed under
// control rather than patched around the crash. With Inc set it answers
// that incarnation's Hello, which starts only on its own answer; Inc is
// an optional trailing field (omitted when zero), like Hello.Inc.
type Restart struct {
	Epoch uint32
	Inc   uint64 // the incarnation whose Hello this answers; 0 for a broadcast
}

// EpochMark is a node's in-stream epoch boundary on the coordinator
// capture stream: every capture frame after it belongs to Epoch, and
// the coordinator discards the node's staging from earlier epochs (the
// partial, pre-crash execution the restart superseded).
type EpochMark struct {
	Epoch uint32
}

// MetricPoint is one cumulative metric value inside a MetricsSnapshot:
// Kind discriminates counter/gauge/histogram-component (mirroring
// obs.MetricKind without importing it), Key is the rendered Prometheus
// series identity (name{labels}), Value the current cumulative value.
type MetricPoint struct {
	Kind  uint8
	Key   string
	Value int64
}

// MetricsSnapshot is a node's periodic live-metrics report to the
// coordinator: a full cumulative dump of its registry, flushed on the
// capture batcher's cadence. Set semantics make re-delivery and session
// replay idempotent; the coordinator merges the points into its live
// registry under a node label and feeds `/metrics`, `/statusz` and
// `pctl top`. AtNs is the node's wall-clock nanoseconds since run
// start, Epoch its current re-execution epoch.
type MetricsSnapshot struct {
	Proc   int32
	Epoch  uint32
	AtNs   int64
	Points []MetricPoint
}

// Detection is the coordinator's broadcast that the live checker
// confirmed possibly(¬B) mid-run: Epoch is the epoch the witness
// belongs to, Node the node whose candidate completed it, AtNs the
// coordinator's nanoseconds since run start at confirmation, and Cut
// the witness global state as one traced state index per logical
// process of the assembled prefix. Nodes treat it as advisory (journal
// + switch a planted rogue back to controlled behavior); the restart
// order, if any, follows as a ReExec frame.
type Detection struct {
	Epoch uint32
	Node  int32
	AtNs  int64
	Cut   []int64
}

// ReExec orders the §8 controlled re-execution that closes the
// active-debugging loop after a live detection: nodes handle it exactly
// like Restart (reset links, mark the new epoch, re-run the workload
// under control), with Edges carrying the size of the control strategy
// the coordinator computed on the detecting prefix (0 when control was
// infeasible on the prefix).
type ReExec struct {
	Epoch uint32
	Edges uint32
}

// RelayHello opens (or resumes) a relay's single upstream session to
// the root coordinator in a hierarchical ingest tree. Relay is the
// relay's index, Relays the fan-in width of the tree level, N the
// cluster size the relay serves. Resume distinguishes a session
// continuation (after a relay-to-root stream break) from a fresh relay
// process coming up after a crash; Epoch carries the relay's cached
// cluster epoch on resume so the root can catch a stale relay up at
// the handshake, exactly as ResumeAck does for a node.
type RelayHello struct {
	Relay  int32
	Relays int32
	N      int32
	Resume bool
	Epoch  uint32
}

// RelayFrame is one forwarded child frame inside a RelayBatch: Origin
// is the child node id and Body the child frame's complete body bytes
// (version|kind|seq|payload), copied through verbatim — the relay never
// re-encodes capture payloads, it only re-frames them. The inner seq is
// the child's own capture-stream sequence number, which the root keeps
// using for per-origin dedup after a relay restart.
type RelayFrame struct {
	Origin int32
	Body   []byte
}

// RelayBatch is the relay's upstream frame: child frames packed into
// one sequenced frame on the relay→root session — one frame as a relay
// writes it through, many from many origins as a bundle ingest feeds
// them. The outer seq (renumbered by the relay) drives
// session resume on the relay hop; the inner per-origin seqs survive
// inside the bodies, so resume/epoch semantics compose across both
// hops.
type RelayBatch struct {
	Frames []RelayFrame
}

// SegmentRecord is the trace store's on-disk record payload: one staged
// capture frame body (version|kind|seq|payload) tagged with the origin
// node and the epoch it was staged under. Segment files are sequences
// of checksummed SegmentRecord frames, which makes a capture bundle
// self-describing — replay is DecodeBody over the inner bodies, the
// same decode path the live ingest uses.
type SegmentRecord struct {
	Origin int32
	Epoch  uint32
	Body   []byte
}

func (Hello) wireKind() byte           { return kindHello }
func (LinkAck) wireKind() byte         { return kindLinkAck }
func (Ctl) wireKind() byte             { return kindCtl }
func (App) wireKind() byte             { return kindApp }
func (Candidate) wireKind() byte       { return kindCandidate }
func (JournalEvent) wireKind() byte    { return kindJournalEvent }
func (Trace) wireKind() byte           { return kindTrace }
func (Done) wireKind() byte            { return kindDone }
func (Shutdown) wireKind() byte        { return kindShutdown }
func (JournalBatch) wireKind() byte    { return kindJournalBatch }
func (TraceOpBatch) wireKind() byte    { return kindTraceOpBatch }
func (CandidateBatch) wireKind() byte  { return kindCandidateBatch }
func (Resume) wireKind() byte          { return kindResume }
func (ResumeAck) wireKind() byte       { return kindResumeAck }
func (Restart) wireKind() byte         { return kindRestart }
func (EpochMark) wireKind() byte       { return kindEpochMark }
func (Commit) wireKind() byte          { return kindCommit }
func (MetricsSnapshot) wireKind() byte { return kindMetricsSnapshot }
func (Detection) wireKind() byte       { return kindDetection }
func (ReExec) wireKind() byte          { return kindReExec }
func (RelayHello) wireKind() byte      { return kindRelayHello }
func (RelayBatch) wireKind() byte      { return kindRelayBatch }
func (SegmentRecord) wireKind() byte   { return kindSegmentRecord }

// --- encoding ---

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendVC(b []byte, vc []int32) []byte {
	b = appendUvarint(b, uint64(len(vc)))
	for _, c := range vc {
		b = appendVarint(b, int64(c))
	}
	return b
}

func appendCandidate(dst []byte, v Candidate) []byte {
	dst = appendVarint(dst, int64(v.Proc))
	dst = appendVarint(dst, v.LoIdx)
	dst = appendVarint(dst, v.HiIdx)
	dst = appendVC(dst, v.Lo)
	return appendVC(dst, v.Hi)
}

func appendJournalEvent(dst []byte, v JournalEvent) []byte {
	dst = appendVarint(dst, v.At)
	dst = appendVarint(dst, int64(v.Proc))
	dst = append(dst, v.Kind)
	dst = appendString(dst, v.Name)
	dst = appendVarint(dst, v.A)
	dst = appendVarint(dst, v.B)
	dst = appendVarint(dst, v.C)
	return appendVC(dst, v.VC)
}

// AppendBody appends the frame body (version, kind, seq, payload) for m
// to dst — without the length prefix — and returns the result.
func AppendBody(dst []byte, seq uint64, m Msg) []byte {
	dst = append(dst, Version, m.wireKind())
	dst = appendUvarint(dst, seq)
	switch v := m.(type) {
	case Hello:
		dst = appendVarint(dst, int64(v.From))
		dst = appendVarint(dst, int64(v.N))
		if v.Inc != 0 {
			dst = appendUvarint(dst, v.Inc)
		}
	case LinkAck:
		dst = appendUvarint(dst, v.Cum)
	case Ctl:
		dst = append(dst, byte(v.Kind))
		dst = appendVarint(dst, int64(v.From))
		dst = appendVarint(dst, int64(v.To))
		dst = appendUvarint(dst, v.Gen)
		dst = appendUvarint(dst, v.TraceID)
		dst = appendVC(dst, v.VC)
	case App:
		dst = appendVarint(dst, int64(v.From))
		dst = appendVarint(dst, int64(v.To))
		dst = appendUvarint(dst, v.TraceID)
		dst = appendVC(dst, v.VC)
		dst = appendBytes(dst, v.Payload)
	case Candidate:
		dst = appendCandidate(dst, v)
	case JournalEvent:
		dst = appendJournalEvent(dst, v)
	case Trace:
		dst = appendUvarint(dst, uint64(len(v.Ops)))
		for _, op := range v.Ops {
			dst = append(dst, op.Op)
			dst = appendVarint(dst, int64(op.Proc))
			dst = appendUvarint(dst, op.MsgID)
			dst = appendString(dst, op.Name)
			dst = appendVarint(dst, op.Value)
		}
	case JournalBatch:
		dst = appendUvarint(dst, uint64(len(v.Events)))
		for _, e := range v.Events {
			dst = appendJournalEvent(dst, e)
		}
	case TraceOpBatch:
		// Run-length group the ops by process: count the groups first
		// (consecutive ops with equal Proc), then emit each group as a
		// process header followed by its process-tag-free ops.
		groups := 0
		for i, op := range v.Ops {
			if i == 0 || op.Proc != v.Ops[i-1].Proc {
				groups++
			}
		}
		dst = appendUvarint(dst, uint64(groups))
		for i := 0; i < len(v.Ops); {
			j := i
			for j < len(v.Ops) && v.Ops[j].Proc == v.Ops[i].Proc {
				j++
			}
			dst = appendVarint(dst, int64(v.Ops[i].Proc))
			dst = appendUvarint(dst, uint64(j-i))
			for ; i < j; i++ {
				op := v.Ops[i]
				dst = append(dst, op.Op)
				dst = appendUvarint(dst, op.MsgID)
				dst = appendString(dst, op.Name)
				dst = appendVarint(dst, op.Value)
			}
		}
	case CandidateBatch:
		dst = appendUvarint(dst, uint64(len(v.Cands)))
		for _, c := range v.Cands {
			dst = appendCandidate(dst, c)
		}
	case Done:
		dst = appendVarint(dst, int64(v.Proc))
		dst = appendUvarint(dst, v.Requests)
		dst = appendUvarint(dst, v.Handoffs)
		dst = appendUvarint(dst, v.CtlMessages)
		dst = appendUvarint(dst, uint64(len(v.Responses)))
		for _, r := range v.Responses {
			dst = appendVarint(dst, r)
		}
	case Shutdown:
		if v.Epoch != 0 {
			dst = appendUvarint(dst, uint64(v.Epoch))
		}
	case Commit:
	case Resume:
		dst = appendVarint(dst, int64(v.From))
		dst = appendVarint(dst, int64(v.N))
		dst = appendUvarint(dst, uint64(v.Epoch))
	case ResumeAck:
		dst = appendUvarint(dst, v.Cum)
		dst = appendUvarint(dst, uint64(v.Epoch))
	case Restart:
		dst = appendUvarint(dst, uint64(v.Epoch))
		if v.Inc != 0 {
			dst = appendUvarint(dst, v.Inc)
		}
	case EpochMark:
		dst = appendUvarint(dst, uint64(v.Epoch))
	case MetricsSnapshot:
		dst = appendVarint(dst, int64(v.Proc))
		dst = appendUvarint(dst, uint64(v.Epoch))
		dst = appendVarint(dst, v.AtNs)
		dst = appendUvarint(dst, uint64(len(v.Points)))
		for _, p := range v.Points {
			dst = append(dst, p.Kind)
			dst = appendString(dst, p.Key)
			dst = appendVarint(dst, p.Value)
		}
	case Detection:
		dst = appendUvarint(dst, uint64(v.Epoch))
		dst = appendVarint(dst, int64(v.Node))
		dst = appendVarint(dst, v.AtNs)
		dst = appendUvarint(dst, uint64(len(v.Cut)))
		for _, s := range v.Cut {
			dst = appendVarint(dst, s)
		}
	case ReExec:
		dst = appendUvarint(dst, uint64(v.Epoch))
		dst = appendUvarint(dst, uint64(v.Edges))
	case RelayHello:
		dst = appendVarint(dst, int64(v.Relay))
		dst = appendVarint(dst, int64(v.Relays))
		dst = appendVarint(dst, int64(v.N))
		if v.Resume {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendUvarint(dst, uint64(v.Epoch))
	case RelayBatch:
		dst = appendUvarint(dst, uint64(len(v.Frames)))
		for _, f := range v.Frames {
			dst = appendVarint(dst, int64(f.Origin))
			dst = appendBytes(dst, f.Body)
		}
	case SegmentRecord:
		dst = appendVarint(dst, int64(v.Origin))
		dst = appendUvarint(dst, uint64(v.Epoch))
		dst = appendBytes(dst, v.Body)
	default:
		panic(fmt.Sprintf("wire: unknown message type %T", m))
	}
	return dst
}

// AppendFrame appends one complete frame — length prefix plus body —
// for m to dst and returns the result. It is the allocation-free encode
// path: callers that reuse dst (the link writer, the coordinator
// client) encode every frame into pooled or writer-owned buffers and
// never touch the heap per frame.
func AppendFrame(dst []byte, seq uint64, m Msg) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendBody(dst, seq, m)
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

// Marshal encodes m as a complete frame: length prefix plus body.
func Marshal(seq uint64, m Msg) []byte {
	return AppendFrame(make([]byte, 0, 64), seq, m)
}

// Buffer is a pooled encode scratch buffer. Frame producers Get one,
// AppendFrame into B, hand the bytes to the wire, and Put it back; the
// pool is shared by the reliable links and the coordinator client, so
// steady-state encoding allocates nothing.
type Buffer struct{ B []byte }

// bufferKeepCap bounds the capacity of buffers returned to the pool: an
// occasional giant batch must not pin megabytes in the pool forever.
const bufferKeepCap = 1 << 16

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 256)} }}

// GetBuffer fetches an empty buffer from the shared pool.
func GetBuffer() *Buffer {
	return bufferPool.Get().(*Buffer)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b
// (or aliases of b.B) afterwards. Oversized buffers are dropped.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.B) > bufferKeepCap {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// --- decoding ---

var (
	// ErrVersion is returned for a frame of a different protocol version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrTruncated is returned when a frame body ends mid-field.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing is returned when a frame body has bytes past its
	// payload — strict framing catches desynchronized streams early.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
	// ErrFrameSize is returned when a length prefix exceeds MaxFrame.
	ErrFrameSize = errors.New("wire: frame exceeds size limit")
)

// dec is a cursor over a frame body with sticky error handling.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// trailing reads an optional trailing field, 0 where the body ends.
func (d *dec) trailing() (v uint64) {
	if d.err == nil && d.off < len(d.b) {
		v = d.uvarint()
	}
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i32() int32 { return int32(d.varint()) }

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += int(n)
	return out
}

func (d *dec) str() string { return string(d.bytes()) }

func (d *dec) candidate() Candidate {
	return Candidate{Proc: d.i32(), LoIdx: d.varint(), HiIdx: d.varint(),
		Lo: d.vc(), Hi: d.vc()}
}

func (d *dec) journalEvent() JournalEvent {
	return JournalEvent{At: d.varint(), Proc: d.i32(), Kind: d.u8(),
		Name: d.str(), A: d.varint(), B: d.varint(), C: d.varint(), VC: d.vc()}
}

func (d *dec) vc() []int32 {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxVC || n > uint64(len(d.b)-d.off) { // each component ≥ 1 byte
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

// DecodeBody decodes one frame body (without the length prefix).
func DecodeBody(body []byte) (seq uint64, m Msg, err error) {
	d := &dec{b: body}
	if v := d.u8(); d.err == nil && v != Version {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	kind := d.u8()
	seq = d.uvarint()
	switch kind {
	case kindHello:
		m = Hello{From: d.i32(), N: d.i32(), Inc: d.trailing()}
	case kindLinkAck:
		m = LinkAck{Cum: d.uvarint()}
	case kindCtl:
		m = Ctl{Kind: CtlKind(d.u8()), From: d.i32(), To: d.i32(),
			Gen: d.uvarint(), TraceID: d.uvarint(), VC: d.vc()}
	case kindApp:
		m = App{From: d.i32(), To: d.i32(), TraceID: d.uvarint(),
			VC: d.vc(), Payload: d.bytes()}
	case kindCandidate:
		m = d.candidate()
	case kindJournalEvent:
		m = d.journalEvent()
	case kindTrace:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each op ≥ 1 byte
			d.fail()
		}
		var ops []TraceOp
		if d.err == nil && n > 0 {
			ops = make([]TraceOp, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				ops = append(ops, TraceOp{Op: d.u8(), Proc: d.i32(),
					MsgID: d.uvarint(), Name: d.str(), Value: d.varint()})
			}
		}
		m = Trace{Ops: ops}
	case kindJournalBatch:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each event ≥ 1 byte
			d.fail()
		}
		var evs []JournalEvent
		if d.err == nil && n > 0 {
			evs = make([]JournalEvent, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				evs = append(evs, d.journalEvent())
			}
		}
		m = JournalBatch{Events: evs}
	case kindTraceOpBatch:
		groups := d.uvarint()
		if d.err == nil && groups > uint64(len(d.b)-d.off) { // each group ≥ 1 byte
			d.fail()
		}
		var ops []TraceOp
		for g := uint64(0); g < groups && d.err == nil; g++ {
			proc := d.i32()
			n := d.uvarint()
			if d.err == nil && n > uint64(len(d.b)-d.off) { // each op ≥ 1 byte
				d.fail()
				break
			}
			if d.err == nil && ops == nil && n > 0 {
				ops = make([]TraceOp, 0, n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				ops = append(ops, TraceOp{Op: d.u8(), Proc: proc,
					MsgID: d.uvarint(), Name: d.str(), Value: d.varint()})
			}
		}
		m = TraceOpBatch{Ops: ops}
	case kindCandidateBatch:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each candidate ≥ 1 byte
			d.fail()
		}
		var cands []Candidate
		if d.err == nil && n > 0 {
			cands = make([]Candidate, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				cands = append(cands, d.candidate())
			}
		}
		m = CandidateBatch{Cands: cands}
	case kindDone:
		v := Done{Proc: d.i32(), Requests: d.uvarint(), Handoffs: d.uvarint(),
			CtlMessages: d.uvarint()}
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each entry ≥ 1 byte
			d.fail()
		}
		if d.err == nil && n > 0 {
			v.Responses = make([]int64, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				v.Responses = append(v.Responses, d.varint())
			}
		}
		m = v
	case kindShutdown:
		v := Shutdown{}
		if d.off < len(d.b) {
			v.Epoch = uint32(d.uvarint())
		}
		m = v
	case kindCommit:
		m = Commit{}
	case kindResume:
		m = Resume{From: d.i32(), N: d.i32(), Epoch: uint32(d.uvarint())}
	case kindResumeAck:
		m = ResumeAck{Cum: d.uvarint(), Epoch: uint32(d.uvarint())}
	case kindRestart:
		m = Restart{Epoch: uint32(d.uvarint()), Inc: d.trailing()}
	case kindEpochMark:
		m = EpochMark{Epoch: uint32(d.uvarint())}
	case kindMetricsSnapshot:
		v := MetricsSnapshot{Proc: d.i32(), Epoch: uint32(d.uvarint()), AtNs: d.varint()}
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each point ≥ 1 byte
			d.fail()
		}
		if d.err == nil && n > 0 {
			v.Points = make([]MetricPoint, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				v.Points = append(v.Points, MetricPoint{Kind: d.u8(), Key: d.str(), Value: d.varint()})
			}
		}
		m = v
	case kindDetection:
		v := Detection{Epoch: uint32(d.uvarint()), Node: d.i32(), AtNs: d.varint()}
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each entry ≥ 1 byte
			d.fail()
		}
		if d.err == nil && n > 0 {
			v.Cut = make([]int64, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				v.Cut = append(v.Cut, d.varint())
			}
		}
		m = v
	case kindReExec:
		m = ReExec{Epoch: uint32(d.uvarint()), Edges: uint32(d.uvarint())}
	case kindRelayHello:
		m = RelayHello{Relay: d.i32(), Relays: d.i32(), N: d.i32(),
			Resume: d.u8() != 0, Epoch: uint32(d.uvarint())}
	case kindRelayBatch:
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)-d.off) { // each frame ≥ 1 byte
			d.fail()
		}
		var frames []RelayFrame
		if d.err == nil && n > 0 {
			frames = make([]RelayFrame, 0, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				frames = append(frames, RelayFrame{Origin: d.i32(), Body: d.bytes()})
			}
		}
		m = RelayBatch{Frames: frames}
	case kindSegmentRecord:
		m = SegmentRecord{Origin: d.i32(), Epoch: uint32(d.uvarint()), Body: d.bytes()}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown frame kind %d", kind)
		}
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	if d.off != len(d.b) {
		return 0, nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, d.off, len(d.b))
	}
	return seq, m, nil
}

// PeekBody is the relay's sequence read: it parses only the header of
// a frame body — version check, kind, seq — and returns the seq, so a
// forwarded body is re-framed without touching its payload and full
// decoding happens exactly once, at the root.
func PeekBody(body []byte) (seq uint64, err error) {
	d := &dec{b: body}
	if v := d.u8(); d.err == nil && v != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	d.u8() // kind
	seq = d.uvarint()
	return seq, d.err
}

// WriteFrame writes one complete frame to w.
func WriteFrame(w io.Writer, seq uint64, m Msg) error {
	_, err := w.Write(Marshal(seq, m))
	return err
}

// ReadFrame reads one complete frame from r: the length prefix, then
// the body, which it decodes. io.EOF is returned verbatim on a clean
// end-of-stream boundary.
func ReadFrame(r io.Reader) (seq uint64, m Msg, err error) {
	body, err := ReadRawBody(r)
	if err != nil {
		return 0, nil, err
	}
	return DecodeBody(body)
}

// ReadRawBody reads one frame from r and returns its raw body bytes
// without decoding the payload. Relays and the root's ingest loop read
// this way so a body can be forwarded or written to the trace store
// verbatim; io.EOF is returned verbatim on a clean frame boundary.
func ReadRawBody(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
