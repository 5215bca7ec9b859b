package node

import (
	"time"

	"predctl/internal/livedetect"
	"predctl/internal/obs"
	"predctl/internal/wire"
)

// rootCore is the root's decision state and the policy that changes
// it, one step per control frame. Nodes stream; once all n report Done
// at the epoch, the core decides Shutdown{epoch}; each node
// final-flushes, echoes it as its bye and parks; the last bye decides
// Commit, and Wait assembles the trace. The park makes shutdown
// crash-safe: a node killed before its bye rejoins and the epoch is
// re-run, while after Commit a rejoin is refused. Failure handling is
// the paper's §8 controlled re-execution, global form: a relaunched
// node's Hello decides Restart{epoch+1}, and every node discards its
// capture and re-executes from scratch, so the final trace is
// indistinguishable from a fault-free run. A confirmed live verdict
// decides Detection + ReExec, the same restart driven by the debugger.
//
// The core takes no lock, writes to no connection and reads no clock.
// The Coordinator calls it under c.mu, queues what it returns under the
// same lock (carry), and seals after releasing it. Its only outside
// calls are logf and the live checker's Reset and Confirm; a dark run
// has no checker, so Reset is skipped and no verdict reaches land. dec
// changes only by folding the frames a step returns in out.all, sent to
// every stream, so the root holds exactly what its clients fold — except
// that an EpochMark above the root's epoch is adopted and sends nothing:
// the streams that carry it are already there.
type rootCore struct {
	n    int
	logf func(string, ...any)
	ld   *livedetect.Checker // nil when live detection is off
	live LiveConfig          // the response to a verdict

	dec        decisions
	inc        []uint64 // each node's incarnation on record; 0 before its first Hello
	stats      []Stats  // each node's latest Done tallies
	doneSeen   []bool   // a Done counted at dec.epoch
	byeSeen    []bool   // a bye counted at dec.epoch
	doneCount  int
	byeCount   int
	restarts   int
	reexecs    int               // detection-triggered re-executions
	detections []DetectionRecord // confirmed live detections, all epochs
	detByNode  []int             // confirmed detections per witness node
	annots     []obs.Event       // cluster-level annotations (chaos, epoch bumps)
}

// out is what one step decided: reply goes to the connection the input
// came on, then all to every stream.
type out struct {
	reply, all []wire.Msg
	known      bool // a Hello of the incarnation on record: a resume replaying frame 1, answered and left to the gate
	refused    bool // a relaunch after Commit, turned away by reply, or a dead predecessor's Hello, by silence
	counted    bool // a bye counted at the epoch (its stream's capture is closed), or a verdict recorded
	seal       bool // Commit decided: seal the store and release Wait
}

func newRootCore(n int, logf func(string, ...any)) rootCore {
	return rootCore{n: n, logf: logf, inc: make([]uint64, n), stats: make([]Stats, n),
		doneSeen: make([]bool, n), byeSeen: make([]bool, n), detByNode: make([]int, n)}
}

// step takes one control frame of node id's stream — a Hello, a Done, a
// bye (Shutdown) or an EpochMark — at atNs since the run start. A Done
// or bye counts only if streamEpoch, the stream's last EpochMark, is the
// cluster epoch: one a Restart raced belongs to a voided execution.
//
// Every Hello before Commit gets its answer on its own connection: a
// Restart at the cluster epoch addressed to its incarnation. A first
// incarnation opens the session. A higher one is a relaunch: until
// Commit the cluster restarts, even between the Shutdown and the last
// bye, because refusing the relaunch would strand the byes the dead
// incarnation never sent; after it, the relaunch takes the exit ramp of
// a parked node, Shutdown then Commit. The incarnation on record's Hello
// is a resume replaying frame 1 through a relaunched relay: answered
// again, its frame left to the gate. A lower one is a dead
// predecessor's, overtaken by its successor's: neither adopted nor
// answered, since an answer on a relay's uplink reaches every child.
// Incarnations are launch stamps (launchStamp), so the order rests on
// one assumption: a node's clock does not go back across one
// relaunch's downtime.
func (r *rootCore) step(id int, streamEpoch uint32, m wire.Msg, atNs int64) (o out) {
	switch v := m.(type) {
	case wire.Hello:
		rejoin := r.inc[id] != 0
		switch {
		case r.inc[id] == v.Inc:
			o.known = true
		case v.Inc < r.inc[id]:
			o.refused = true // a direct connection ends its handshake
			return o
		case rejoin && r.dec.committed:
			o.refused = true
			o.reply = []wire.Msg{wire.Shutdown{Epoch: r.dec.epoch}, wire.Commit{}}
			return o
		default:
			r.inc[id] = v.Inc
			// The Detection broadcast it missed: a planted rogue reverts to
			// controlled behavior on it.
			if r.dec.detection != nil {
				o.reply = append(o.reply, *r.dec.detection)
			}
			if rejoin {
				// The §8 controlled re-execution: everyone else's Restart.
				r.restarts++
				e := r.dec.epoch + 1
				r.logf("coordinator: node %d rejoined; restarting cluster at epoch %d", id, e)
				r.annotate(atNs, obs.EvEpochRestart, int64(id), int64(e))
				o.all = r.decide(wire.Restart{Epoch: e})
			} else if r.dec.epoch > 0 {
				// A first dial held (a partition window) past a restart joins
				// the re-execution in flight.
				r.logf("coordinator: node %d joined late; starting it at epoch %d", id, r.dec.epoch)
			}
		}
		o.reply = append(o.reply, wire.Restart{Epoch: r.dec.epoch, Inc: r.inc[id]})
	case wire.EpochMark:
		// A mark above our epoch: we restarted, and the session replays
		// carry state we lack. Adopt it, voiding a pending Shutdown and
		// recounting completion — unless the committed epoch is sealed.
		if v.Epoch > r.dec.epoch && !r.dec.committed {
			r.dec.advance(v.Epoch)
			r.newEpoch()
		}
	case wire.Done:
		if streamEpoch != r.dec.epoch {
			break
		}
		// A node reports Done twice at its final epoch — once when its
		// application finishes, once with the closing tallies in its bye
		// phase — so later reports overwrite, only the first counts.
		r.stats[id] = Stats{Requests: int(v.Requests), Handoffs: int(v.Handoffs), CtlMessages: int(v.CtlMessages)}
		for _, ns := range v.Responses {
			r.stats[id].Responses = append(r.stats[id].Responses, time.Duration(ns))
		}
		if r.count(r.doneSeen, &r.doneCount, id) {
			o.all = r.decide(wire.Shutdown{Epoch: r.dec.epoch})
		}
	case wire.Shutdown:
		if streamEpoch != r.dec.epoch || v.Epoch != r.dec.epoch || r.byeSeen[id] {
			break
		}
		o.counted = true
		if r.count(r.byeSeen, &r.byeCount, id) && r.dec.shutdown {
			o.all, o.seal = r.decide(wire.Commit{}), true
		}
	}
	return o
}

// resume is the replay for a handshake acked at cum, with the answers
// of the nodes in ids (whose acked Hellos come no more): a node's Resume
// names itself, a resumed relay uplink every node, and a fresh relay
// none, as its children replay their Hellos from its ack of 0.
func (r *rootCore) resume(cum uint64, ids ...int) []wire.Msg {
	ms := r.dec.replay(cum)
	for _, id := range ids {
		if r.inc[id] != 0 {
			ms = append(ms, wire.Restart{Epoch: r.dec.epoch, Inc: r.inc[id]})
		}
	}
	return ms
}

// land takes a live verdict, found at rec.AtNs and landing at nowNs. It
// revalidates first: a mid-run verdict must still precede Commit and a
// final one follow it, and the checker, armed for the cluster's epoch
// (newEpoch), must confirm rec's — which fails if a restart voided it or
// the epoch already has its detection. A mid-run verdict that Commit
// overtook is dropped; Wait's closing verdict takes over.
//
// In OnDetectReExec mode a mid-run detection gets the paper's
// active-debugging response, the rejoin restart's twin: Detection (every
// node now runs under control), then ReExec, the §8 re-execution.
func (r *rootCore) land(rec DetectionRecord, nowNs int64) (o out) {
	if r.dec.committed != rec.Final || !r.ld.Confirm(rec.Epoch) {
		return o
	}
	o.counted = true
	rec.ReExec = !rec.Final && r.live.OnDetect == OnDetectReExec && r.reexecs < r.live.MaxReExecs
	if rec.ReExec {
		r.reexecs++
	}
	r.detections = append(r.detections, rec)
	if rec.Node >= 0 && rec.Node < r.n {
		r.detByNode[rec.Node]++
	}
	// Stamped when the cut was found: the strategy can take far longer
	// than the detection did.
	r.annotate(rec.AtNs, obs.EvDetect, int64(rec.Node), int64(rec.Epoch))
	r.logf("coordinator: live detection: possibly(¬B) confirmed at epoch %d (witness node %d, cut %v)",
		rec.Epoch, rec.Node, rec.Cut)
	if rec.ReExec {
		ne := rec.Epoch + 1
		r.logf("coordinator: detection at epoch %d: controlled re-execution at epoch %d (%d strategy edges)",
			rec.Epoch, ne, rec.StrategyEdges)
		r.annotate(nowNs, obs.EvEpochReExec, int64(rec.Node), int64(ne))
		o.all = r.decide(rec.frame(), wire.ReExec{Epoch: ne, Edges: uint32(rec.StrategyEdges)})
	}
	return o
}

// decide folds ms into dec and returns them, for every stream. If they
// move the epoch, the fold has voided a pending Shutdown, and the
// abandoned execution's completion progress goes with it.
func (r *rootCore) decide(ms ...wire.Msg) []wire.Msg {
	was := r.dec.epoch
	for _, m := range ms {
		r.dec.fold(m)
	}
	if r.dec.epoch != was {
		r.newEpoch()
	}
	return ms
}

// newEpoch voids the completion progress of the execution the cluster
// just left for dec.epoch, and re-arms the live checker at it: the
// abandoned epoch's intervals must not seed a detection in the new one.
func (r *rootCore) newEpoch() {
	r.doneCount, r.byeCount = 0, 0
	clear(r.doneSeen)
	clear(r.byeSeen)
	if r.ld != nil {
		r.ld.Reset(r.dec.epoch)
	}
}

// count marks id in seen, counted in k, and reports whether that
// completed the set: true for the one call that marks the last node.
func (r *rootCore) count(seen []bool, k *int, id int) bool {
	if seen[id] {
		return false
	}
	seen[id] = true
	*k++
	return *k == r.n
}

// annotate records a cluster-level instant event on the merged
// journal's timeline. Annotations use Proc -1 (no logical process; the
// trace exporter renders them on a cluster pseudo-row) and survive
// epoch discards: they describe the run's real history, which
// controlled re-execution does not rewrite.
func (r *rootCore) annotate(atNs int64, name string, a, b int64) {
	r.annots = append(r.annots, obs.Event{At: atNs, Proc: -1, Kind: obs.KindControl, Name: name, A: a, B: b})
}
