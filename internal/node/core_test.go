package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"predctl/internal/livedetect"
	"predctl/internal/wire"
)

// coreModel drives one rootCore with random inputs and checks every
// step against what the protocol promises, from the inputs and the
// frames the core returned alone.
type coreModel struct {
	t    *testing.T
	rng  *rand.Rand
	core rootCore
	n    int

	incs    []uint64 // each node's latest process incarnation; 0 before its first
	streams []uint32 // each node's stream epoch (its last EpochMark, 0 after a Hello)
	// doneAt and byeAt hold the epoch each node's Done and bye last
	// counted at, -1 for none.
	doneAt, byeAt []int64
	sent          decisions // the fold of every frame sent to all streams
	shutdownAt    uint64    // bit e: a Shutdown was sent at epoch e (< 64: one step moves it by 1 at most)
	confirmed     bool      // a verdict landed at the current epoch

	steps, restarts, reexecs, stale int
	// The step's input, for a failure's message: node id's frame in, or
	// a verdict when in is nil.
	id      int
	in      wire.Msg
	verdict *DetectionRecord
}

func newCoreModel(t *testing.T, rng *rand.Rand, n int) *coreModel {
	core := newRootCore(n, func(string, ...any) {})
	core.ld = livedetect.New(n)
	core.live = LiveConfig{OnDetect: OnDetectReExec, MaxReExecs: 1 + rng.Intn(2)}
	if rng.Intn(4) == 0 {
		core.live.OnDetect = OnDetectNote
	}
	m := &coreModel{
		t: t, rng: rng, core: core, n: n,
		incs: make([]uint64, n), streams: make([]uint32, n),
		doneAt: make([]int64, n), byeAt: make([]int64, n),
	}
	for id := range m.doneAt {
		m.doneAt[id], m.byeAt[id] = -1, -1
	}
	return m
}

func (m *coreModel) fail(format string, args ...any) {
	m.t.Helper()
	input := fmt.Sprintf("node %d at stream epoch %d sends %T%+v", m.id, m.streams[m.id], m.in, m.in)
	if m.in == nil {
		input = fmt.Sprintf("a verdict %+v", *m.verdict)
	}
	m.t.Fatalf("n=%d, step %d (%s): %s; the core holds %+v", m.n, m.steps, input, fmt.Sprintf(format, args...), m.core.dec)
}

// allAt reports whether every node's entry in at is e.
func allAt(at []int64, e uint32) bool {
	return !slices.ContainsFunc(at, func(x int64) bool { return x != int64(e) })
}

// sameDecisions compares two decisions values, detections by value.
func sameDecisions(a, b decisions) bool {
	if a.epoch != b.epoch || a.shutdown != b.shutdown || a.committed != b.committed || (a.detection == nil) != (b.detection == nil) ||
		!slices.Equal(a.answered, b.answered) {
		return false
	}
	return a.detection == nil || a.detection.Epoch == b.detection.Epoch && a.detection.Node == b.detection.Node &&
		a.detection.AtNs == b.detection.AtNs && slices.Equal(a.detection.Cut, b.detection.Cut)
}

// doneFrame is every Done the model sends, boxed once: a step allocates
// little, so 10⁵ sequences run in well under a second.
var doneFrame wire.Msg = wire.Done{Requests: 1}

// step feeds the core one random input — biased toward the next frame
// a well-behaved node would send, so runs complete — and checks it.
func (m *coreModel) step() {
	m.steps++
	r := &m.core
	was := r.dec // before the step
	e := was.epoch
	id := m.rng.Intn(m.n)
	on := r.inc[id] // the incarnation on record before the step
	m.id, m.in, m.verdict = id, nil, nil
	switch k := m.rng.Intn(20); {
	case on == 0 || k == 0: // a first Hello, or a relaunch
		m.incs[id]++
		m.in = wire.Hello{From: int32(id), N: int32(m.n), Inc: m.incs[id]}
	case k == 1: // a resume replaying frame 1
		m.in = wire.Hello{From: int32(id), N: int32(m.n), Inc: on}
	case k == 2: // a live verdict, mid-run or closing, maybe on a voided epoch
		rec := DetectionRecord{Epoch: e, Node: m.rng.Intn(m.n+1) - 1, AtNs: int64(m.steps), Cut: []int64{int64(m.steps), 1}, Final: was.committed}
		if e > 0 && m.rng.Intn(3) == 0 {
			rec.Epoch = e - 1
		}
		if m.rng.Intn(4) == 0 {
			rec.Final = !rec.Final
		}
		m.verdict = &rec
	case k == 3: // a straggler's bye, or one sent before the Shutdown
		m.in = wire.Shutdown{Epoch: m.streams[id] + uint32(m.rng.Intn(2))}
	case k == 4: // a mark above the root's epoch: a restarted root adopts it
		m.in = wire.EpochMark{Epoch: e + 1}
	case k == 5 && on > 1: // a dead predecessor's Hello, overtaken by its successor's
		m.in = wire.Hello{From: int32(id), N: int32(m.n), Inc: 1 + uint64(m.rng.Int63n(int64(on-1)))}
	case m.streams[id] != e:
		m.in = wire.EpochMark{Epoch: e}
	case m.doneAt[id] != int64(e) || !was.shutdown || m.byeAt[id] == int64(e):
		m.in = doneFrame
	default:
		m.in = wire.Shutdown{Epoch: e}
	}
	var o out
	if m.in == nil {
		o = r.land(*m.verdict, int64(m.steps))
	} else {
		// The coordinator stages first: a newer mark moves the stream.
		if mark, ok := m.in.(wire.EpochMark); ok && mark.Epoch > m.streams[id] {
			m.streams[id] = mark.Epoch
		}
		o = r.step(id, m.streams[id], m.in, int64(m.steps))
	}

	// What the step must have counted, decided or answered.
	countedBye := false
	switch v := m.in.(type) {
	case nil:
		want := m.verdict.Final == was.committed && m.verdict.Epoch == e && !m.confirmed
		if o.counted != want {
			m.fail("counted the verdict %t, want %t", o.counted, want)
		}
		m.confirmed = m.confirmed || want
	case wire.Done:
		if m.streams[id] == e {
			m.doneAt[id] = int64(e)
		}
	case wire.Shutdown:
		countedBye = m.streams[id] == e && v.Epoch == e && m.byeAt[id] != int64(e)
		if o.counted != countedBye {
			m.fail("counted the bye %t, want %t", o.counted, countedBye)
		}
		if countedBye {
			m.byeAt[id] = int64(e)
		}
	case wire.Hello:
		// The incarnation on record decides nothing but is answered again;
		// a predecessor's is neither adopted nor answered; a new one after
		// Commit is refused; before it, a relaunch restarts the cluster at
		// e+1 and is answered there, and a first join is answered at the
		// cluster's epoch.
		switch {
		case v.Inc < on:
			if !o.refused || o.known || o.counted || o.seal || o.reply != nil || o.all != nil || r.inc[id] != on {
				m.fail("a predecessor's Hello decided %+v, and the core holds incarnation %d; want it refused, unanswered", o, r.inc[id])
			}
			m.stale++
		case v.Inc == on:
			if !o.known || o.refused || o.counted || o.seal || o.all != nil ||
				!slices.Equal(o.reply, []wire.Msg{wire.Restart{Epoch: e, Inc: on}}) {
				m.fail("the incarnation on record decided %+v", o)
			}
		case was.committed:
			if !o.refused || !slices.Equal(o.reply, []wire.Msg{wire.Shutdown{Epoch: e}, wire.Commit{}}) {
				m.fail("a relaunch after Commit was answered %+v, want the refusal", o)
			}
		case on != 0:
			if !slices.Equal(o.all, []wire.Msg{wire.Restart{Epoch: e + 1}}) {
				m.fail("a relaunch decided %v, want Restart{%d}", o.all, e+1)
			}
			if len(o.reply) == 0 || o.reply[len(o.reply)-1] != (wire.Restart{Epoch: e + 1, Inc: v.Inc}) {
				m.fail("a relaunch was answered %v, want its answer at epoch %d last", o.reply, e+1)
			}
			m.restarts++
			m.streams[id] = 0
		default:
			var got decisions
			for _, f := range o.reply {
				got.fold(f)
			}
			if !sameDecisions(got, decisions{epoch: e, detection: was.detection, answered: []uint64{v.Inc}}) {
				m.fail("a first join was answered %v, want caught up to epoch %d", o.reply, e)
			}
			m.streams[id] = 0
		}
	}

	// Every frame sent to all streams is a decision taken for the right
	// reason, and the core holds their fold; an adopted mark only
	// advances it.
	for _, f := range o.all {
		switch v := f.(type) {
		case wire.Restart:
			if h, ok := m.in.(wire.Hello); !ok || on == 0 || h.Inc == on || v.Epoch != e+1 {
				m.fail("Restart{%d} at epoch %d does not answer a relaunch", v.Epoch, e)
			}
		case wire.Detection, wire.ReExec:
			if m.verdict == nil || m.verdict.Final {
				m.fail("%T at epoch %d does not answer a mid-run verdict", f, e)
			}
			if x, ok := v.(wire.ReExec); ok {
				if x.Epoch != e+1 {
					m.fail("ReExec{%d} at epoch %d", x.Epoch, e)
				}
				m.reexecs++
			}
		case wire.Shutdown:
			sent := m.shutdownAt&(1<<e) != 0
			if v.Epoch != e || !allAt(m.doneAt, e) || sent {
				m.fail("Shutdown{%d} at epoch %d: every Done there %t, sent there before %t", v.Epoch, e, allAt(m.doneAt, e), sent)
			}
			m.shutdownAt |= 1 << e
		case wire.Commit:
			if sent := m.shutdownAt&(1<<e) != 0; !was.shutdown || !sent || !allAt(m.byeAt, e) || was.committed {
				m.fail("Commit at epoch %d: Shutdown there %t, every bye there %t, committed before %t", e, sent, allAt(m.byeAt, e), was.committed)
			}
		}
		if !m.sent.fold(f) {
			m.fail("every stream was sent %T, not a decision", f)
		}
	}
	if mark, ok := m.in.(wire.EpochMark); ok && !was.committed {
		m.sent.advance(mark.Epoch)
	}
	if !sameDecisions(m.sent, r.dec) {
		m.fail("every stream folded %+v", m.sent)
	}
	if r.dec.epoch < e || was.committed && r.dec.epoch != e {
		m.fail("the epoch moved from %d", e)
	}
	if r.dec.epoch != e {
		m.confirmed = false
	}
	if was.committed && (o.all != nil || o.reply != nil && !o.refused && !o.known) {
		m.fail("after Commit the core sent %+v", o)
	}
	if o.seal != slices.Contains(o.all, wire.Msg(wire.Commit{})) {
		m.fail("seal %t with %v", o.seal, o.all)
	}

	// What must be decided by now: Shutdown once every Done at the epoch
	// is counted, Commit once the last bye after it is.
	if now := r.dec.epoch; allAt(m.doneAt, now) && !r.dec.shutdown {
		m.fail("every Done at epoch %d is counted, and no Shutdown", now)
	}
	if countedBye && was.shutdown && allAt(m.byeAt, e) && !r.dec.committed {
		m.fail("the last bye at epoch %d came after its Shutdown, and no Commit", e)
	}

	if sameDecisions(was, r.dec) {
		return // the replay of what was checked before
	}
	var replayed decisions
	for _, f := range r.dec.replay(uint64(m.steps)) {
		replayed.fold(f)
	}
	if !sameDecisions(replayed, r.dec) {
		m.fail("a resume replay folds to %+v", replayed)
	}
}

// TestRootCoreModel drives the root's decision core directly — no
// coordinator, no connection — with random sequences at n = 2..4 of
// first Hellos, relaunches, a resume's replayed Hello, a dead
// predecessor's Hello arriving after its successor's, Dones, byes
// (stragglers and early ones among them), EpochMarks (one above the
// root's epoch among them) and live verdicts, mid-run and closing, at
// the root's epoch or a voided one. After every step it checks the
// protocol against a model that sees only the inputs and what the core
// sent: the root holds the fold of what every stream was sent; Shutdown
// follows every Done at its epoch, once; Commit follows that Shutdown and
// every bye, once, and after it only refusals and no epoch move; the
// epoch never goes back, and a relaunch's Restart and a mid-run verdict's
// ReExec each move it to e+1; every Hello before Commit is answered
// with a Restart addressed to its incarnation, one of the incarnation
// on record decides nothing else, and a predecessor's is neither adopted
// nor answered; and a resume replay folds to the root's decisions.
func TestRootCoreModel(t *testing.T) {
	sequences, steps := 100_000, 16
	if raceEnabled { // nothing here is concurrent: the detector only slows it
		sequences = 10_000
	}
	rng := rand.New(rand.NewSource(43))
	var total, commits, restarts, reexecs, stale int
	for seq := 0; seq < sequences; seq++ {
		m := newCoreModel(t, rng, 2+seq%3)
		for range steps {
			m.step()
		}
		total += m.steps
		restarts += m.restarts
		reexecs += m.reexecs
		stale += m.stale
		if m.core.dec.committed {
			commits++
		}
	}
	t.Logf("%d sequences, %d steps at n = 2..4: %d committed, %d relaunch restarts, %d re-executions, %d predecessors' Hellos", sequences, total, commits, restarts, reexecs, stale)
	if commits < sequences/10 || restarts < sequences/10 || reexecs < sequences/100 || stale < sequences/100 {
		t.Fatalf("the sequences hardly reach the decisions under test: %d commits, %d restarts, %d re-executions, %d predecessors' Hellos", commits, restarts, reexecs, stale)
	}
}
