package livedetect

import (
	"bytes"
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/trace"
	"predctl/internal/wire"
)

// iv builds a 2-node interval with the given clock endpoints.
func iv(proc int, loIdx, hiIdx int64, lo, hi []int32) Interval {
	return Interval{Proc: proc, LoIdx: loIdx, HiIdx: hiIdx, Lo: lo, Hi: hi}
}

func TestCheckerTriggersOnConcurrentIntervals(t *testing.T) {
	c := New(2)
	if c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0})) {
		t.Fatal("single queue must not trigger")
	}
	// Concurrent with proc 0's interval: neither lo dominates the
	// other's hi component.
	if !c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("pairwise overlappable fronts must trigger")
	}
	cut, trig, ok := c.Verdict(0)
	if !ok || trig.Proc != 1 {
		t.Fatalf("verdict %v by %+v, %t: want one triggered by proc 1", cut, trig, ok)
	}
	// Each front's first state requires the other's state after the
	// last one its clock names: none here, so the cut is the two lows.
	if want := (deposet.Cut{1, 1}); !cut.Equal(want) {
		t.Fatalf("verdict cut %v, want %v", cut, want)
	}
	w := c.Witness()
	if len(w) != 2 || w[0].Proc != 0 || w[1].Proc != 1 {
		t.Fatalf("witness = %+v", w)
	}
	if c.Confirm(1) {
		t.Fatal("a verdict of another epoch confirmed")
	}
	if !c.Confirm(0) || c.Confirm(0) {
		t.Fatal("confirm must succeed exactly once")
	}
	if !c.Fired() {
		t.Fatal("confirmed detection must report Fired")
	}
	if _, _, ok := c.Verdict(0); ok {
		t.Fatal("a confirmed epoch still offers its verdict")
	}
}

// TestCheckerRestartVoidsTheStream: a stream that starts over within
// its epoch takes its queued intervals and its trigger with it; a
// detection confirmed before the restart stands, and the epoch
// confirms no second one.
func TestCheckerRestartVoidsTheStream(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2}))
	c.Restart(0)
	if _, _, ok := c.Verdict(0); ok || c.Depth() != 0 || c.Witness() != nil {
		t.Fatalf("restart left depth %d, witness %v, or a verdict", c.Depth(), c.Witness())
	}
	// The same indices are new again on the restarted stream.
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	if !c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("the restarted stream does not trigger on the same intervals")
	}
	if !c.Confirm(0) {
		t.Fatal("the restarted stream's verdict did not confirm")
	}
	c.Restart(0)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2}))
	if _, _, ok := c.Verdict(0); ok || !c.Fired() {
		t.Fatal("a restart revoked the epoch's detection or armed a second one")
	}
	c.Restart(3) // not the armed epoch: nothing happens
	if !c.Fired() {
		t.Fatal("a restart at another epoch touched this one")
	}
}

func TestCheckerEliminatesOrderedIntervals(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	// Proc 1's interval starts causally after proc 0's ended
	// (lo[0]=3 ≥ hi[0]=2): proc 0's front is eliminated.
	if c.Offer(0, iv(1, 1, 2, []int32{3, 1}, []int32{3, 2})) {
		t.Fatal("causally ordered intervals must not trigger")
	}
	if _, dropped, _ := c.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if c.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (only proc 1's interval left)", c.Depth())
	}
}

func TestCheckerEpochDiscardAndReplayDedup(t *testing.T) {
	c := New(2)
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	// A session-resume replay of the same interval is a no-op.
	c.Offer(0, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	if c.Depth() != 1 {
		t.Fatalf("replayed offer duplicated the queue: depth = %d", c.Depth())
	}
	c.Reset(1)
	if c.Depth() != 0 {
		t.Fatalf("reset left depth=%d", c.Depth())
	}
	// Stale-epoch offers (the abandoned execution's stragglers) are dropped...
	if c.Offer(0, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) || c.Depth() != 0 {
		t.Fatal("stale-epoch offer leaked into the checker")
	}
	// ...and after the reset the same state indices are acceptable again.
	c.Offer(1, iv(0, 1, 2, []int32{1, 0}, []int32{2, 0}))
	if !c.Offer(1, iv(1, 1, 2, []int32{0, 1}, []int32{0, 2})) {
		t.Fatal("fresh-epoch intervals must trigger")
	}
}

// prefix op-stream helpers.
func initOp(p int) wire.TraceOp { return wire.TraceOp{Op: wire.TraceInit, Proc: int32(p), Name: "cs"} }
func set(p, v int) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceSet, Proc: int32(p), Name: "cs", Value: int64(v)}
}
func send(p int, id uint64) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceSend, Proc: int32(p), MsgID: id}
}
func recv(p int, id uint64) wire.TraceOp {
	return wire.TraceOp{Op: wire.TraceRecv, Proc: int32(p), MsgID: id}
}

func TestAssemblePrefixStopsAtUnmatchedRecv(t *testing.T) {
	// n=1: procs 0 (app) and 1 (ctl). The ctl stream has a recv whose
	// send is not staged yet; assemble would wedge, the prefix stops.
	ops := [][]wire.TraceOp{
		{initOp(0), set(0, 1)},
		{recv(1, 42), set(1, 7)},
	}
	d, consumed, err := AssemblePrefix(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if consumed[0] != 2 || consumed[1] != 0 {
		t.Fatalf("consumed = %v, want [2 0]", consumed)
	}
	if got := d.Len(1); got != 1 {
		t.Fatalf("ctl proc has %d states, want 1 (just ⊥)", got)
	}
	// Staging the send extends the prefix past the former stop.
	ops[0] = append(ops[0], send(0, 42))
	_, consumed, err = AssemblePrefix(1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if consumed[0] != 3 || consumed[1] != 2 {
		t.Fatalf("consumed = %v, want [3 2]", consumed)
	}
}

func TestConfirmPrefixDecidesViolation(t *testing.T) {
	violation := predicate.And(
		predicate.VarLocal{P: 0, Var: "cs", Op: predicate.Eq, Value: 1}.Expr(),
		predicate.VarLocal{P: 1, Var: "cs", Op: predicate.Eq, Value: 1}.Expr(),
	)
	// Concurrent critical sections: no causality between the two app
	// streams, so a cut with both cs=1 exists.
	conc := [][]wire.TraceOp{
		{initOp(0), set(0, 1), set(0, 0)},
		{initOp(1), set(1, 1), set(1, 0)},
		nil, nil,
	}
	if _, found, err := ConfirmPrefix(2, conc, violation); err != nil || !found {
		t.Fatalf("concurrent CSs: found=%v err=%v, want detection", found, err)
	}
	// Serialized critical sections: proc 1 enters only after a message
	// chain from proc 0's exit, so no such cut exists.
	serial := [][]wire.TraceOp{
		{initOp(0), set(0, 1), set(0, 0), send(0, 1)},
		{initOp(1), recv(1, 1), set(1, 1), set(1, 0)},
		nil, nil,
	}
	if _, found, err := ConfirmPrefix(2, serial, violation); err != nil || found {
		t.Fatalf("serialized CSs: found=%v err=%v, want none", found, err)
	}
}

// randomCapture builds a causally consistent capture of 2n processes:
// ops are dealt out along one global linearization, so every receive's
// send precedes it somewhere in the streams. Some sends stay in flight;
// a process sets cs with its states' Sets, and cs or x with Lets at its
// top state.
func randomCapture(r *rand.Rand, n, ops int) [][]wire.TraceOp {
	streams := make([][]wire.TraceOp, 2*n)
	for p := range streams {
		streams[p] = append(streams[p], initOp(p))
	}
	var inFlight []uint64
	next := uint64(0)
	for i := 0; i < ops; i++ {
		p := r.Intn(2 * n)
		switch x := r.Intn(10); {
		case x < 3:
			next++
			// Ids as the nodes mint them, plus a few from the far corners
			// of the id space: the send table must not care.
			id := uint64(p)<<40 | next
			if next%17 == 0 {
				id = ^uint64(0) - next
			}
			streams[p] = append(streams[p], send(p, id))
			inFlight = append(inFlight, id)
		case x < 6 && len(inFlight) > 0:
			k := r.Intn(len(inFlight))
			streams[p] = append(streams[p], recv(p, inFlight[k]))
			inFlight = append(inFlight[:k], inFlight[k+1:]...)
		case x < 8:
			streams[p] = append(streams[p], set(p, r.Intn(2)))
		case x < 9:
			// A Let at the top state: it may undo what the state's Set did.
			name := []string{"cs", "x"}[r.Intn(2)]
			streams[p] = append(streams[p], wire.TraceOp{Op: wire.TraceLet, Proc: int32(p), Name: name, Value: int64(r.Intn(3))})
		default:
			streams[p] = append(streams[p], wire.TraceOp{Op: wire.TraceStep, Proc: int32(p)})
		}
	}
	return streams
}

// encode is d as trace.Encode writes it.
func encode(t *testing.T, d *deposet.Deposet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAssemblerResumes feeds random captures to one assembler a slice
// at a time — every stream cut at a random point, so receives routinely
// arrive before their sends — and requires the final deposet to encode
// to the bytes a single strict pass over the whole capture gives, with
// every op consumed: the messages are numbered alike whatever order
// they were replayed in. Each slice's build must encode as a one-shot
// prefix assembly of that slice does, and still encode so once the
// assembler has grown past it.
func TestAssemblerResumes(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		full := randomCapture(r, n, 50+r.Intn(400))

		whole := NewAssembler(n)
		if err := whole.Feed(full, true); err != nil {
			t.Fatalf("seed %d: strict pass: %v", seed, err)
		}
		want, err := whole.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		inc := NewAssembler(n)
		fed := make([]int, 2*n)
		var builds []*deposet.Deposet
		var bytesAt [][]byte
		for step := 0; step < 6; step++ {
			part := make([][]wire.TraceOp, 2*n)
			for p, ops := range full {
				fed[p] += r.Intn(len(ops) - fed[p] + 1)
				part[p] = ops[:fed[p]]
			}
			if err := inc.Feed(part, false); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			d, err := inc.Build()
			if err != nil {
				t.Fatalf("seed %d step %d: prefix build: %v", seed, step, err)
			}
			one, _, err := AssemblePrefix(n, part)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !bytes.Equal(encode(t, d), encode(t, one)) {
				t.Fatalf("seed %d step %d: prefix build encodes to other bytes than a one-shot prefix assembly", seed, step)
			}
			builds, bytesAt = append(builds, d), append(bytesAt, encode(t, d))
		}
		if err := inc.Feed(full, true); err != nil {
			t.Fatalf("seed %d: closing strict feed: %v", seed, err)
		}
		for p, at := range inc.Consumed() {
			if at != len(full[p]) {
				t.Fatalf("seed %d: process %d consumed %d of %d ops", seed, p, at, len(full[p]))
			}
		}
		got, err := inc.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(encode(t, got), encode(t, want)) {
			t.Fatalf("seed %d: incremental assembly encodes to other bytes than the single pass", seed)
		}
		for step, d := range builds {
			if !bytes.Equal(encode(t, d), bytesAt[step]) {
				t.Fatalf("seed %d: the build of step %d changed as the assembler grew", seed, step)
			}
		}
	}
}

// TestAssemblerErrors pins what a corrupt capture reports in each mode,
// including ids chosen to provoke a table indexed by id.
func TestAssemblerErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ops    [][]wire.TraceOp
		strict bool
		want   string
	}{
		{"wedge", [][]wire.TraceOp{{recv(0, 99)}, {}}, true,
			"process 0 wedged at op 0 (recv of unknown message 0x63)"},
		{"hostile wedge", [][]wire.TraceOp{{}, {initOp(1), recv(1, ^uint64(0))}}, true,
			"process 1 wedged at op 1 (recv of unknown message 0xffffffffffffffff)"},
		{"duplicate", [][]wire.TraceOp{{send(0, 5), send(0, 5)}, {}}, false,
			"duplicate trace id 0x5"},
		{"hostile duplicate", [][]wire.TraceOp{{send(0, 1<<63)}, {send(1, 1<<63)}}, true,
			"duplicate trace id 0x8000000000000000"},
		{"unknown op", [][]wire.TraceOp{{{Op: 99}}, {}}, false,
			"unknown trace op 99"},
		{"stream count", [][]wire.TraceOp{{}}, true,
			"1 op streams for 2 processes"},
	} {
		err := NewAssembler(1).Feed(tc.ops, tc.strict)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
	// A prefix pass stops at the wedge instead; the exported wrapper
	// names itself in what it does report.
	if err := NewAssembler(1).Feed([][]wire.TraceOp{{recv(0, 99)}, {}}, false); err != nil {
		t.Errorf("prefix pass reported a wedge: %v", err)
	}
	_, _, err := AssemblePrefix(1, [][]wire.TraceOp{{send(0, 5), send(0, 5)}, {}})
	if want := "livedetect: prefix: duplicate trace id 0x5"; err == nil || err.Error() != want {
		t.Errorf("AssemblePrefix: error %v, want %q", err, want)
	}
}

// TestDerivedVerdictEqualsPossiblyGeneral is the derived stream's
// equivalence property: over random captures — Sets of cs, Lets of cs
// and x at top states, a B with a variable local on a random subset of
// the processes and none on the rest — an assembler fed the capture in
// random prefixes, deriving ¬B's intervals into a checker, ends with
// the verdict and the cut detect.PossiblyGeneral(d, ¬B) finds on the
// assembled deposet, intervals still open at the end closed by the
// strict feed; and a trigger already there on a prefix names that cut
// too, for the least cut where ¬B holds lies in every prefix that
// shows one.
func TestDerivedVerdictEqualsPossiblyGeneral(t *testing.T) {
	ops := []predicate.Op{predicate.Eq, predicate.Ne, predicate.Lt, predicate.Ge, predicate.True, predicate.False}
	found, early := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		full := randomCapture(r, n, 10+r.Intn(150))
		var xs []predicate.Expr
		for p, none := 0, r.Intn(2*n); p < 2*n; p++ {
			if p == none || r.Intn(3) == 0 {
				continue // no local: ¬B leaves p unconstrained
			}
			l := predicate.VarLocal{P: p, Var: []string{"cs", "x"}[r.Intn(4)/3], Op: ops[r.Intn(len(ops))]}
			if l.Op != predicate.True && l.Op != predicate.False {
				l.Value = r.Intn(2)
			}
			xs = append(xs, l.Expr())
		}
		if len(xs) == 0 {
			xs = append(xs, predicate.VarLocal{P: r.Intn(2 * n), Var: "cs", Op: predicate.Eq}.Expr())
		}
		b := predicate.Or(xs...)
		locals, ok := Locals(b, 2*n)
		if !ok {
			t.Fatalf("seed %d: %v not recognised as a disjunction of variable locals", seed, b)
		}
		chk := NewFor(locals)
		a := NewAssembler(n)
		a.Derive(locals, func(iv Interval) { chk.Offer(0, iv) })
		var mid deposet.Cut
		fed := make([]int, 2*n)
		for step := 0; step < 5; step++ {
			part := make([][]wire.TraceOp, 2*n)
			for p, ops := range full {
				fed[p] += r.Intn(len(ops) - fed[p] + 1)
				part[p] = ops[:fed[p]]
			}
			if err := a.Feed(part, false); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if cut, _, ok := chk.Verdict(0); ok && mid == nil {
				mid = cut
			}
		}
		if err := a.Feed(full, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := a.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, wantOK := detect.PossiblyGeneral(d, predicate.Not(b))
		cut, _, ok := chk.Verdict(0)
		if ok != wantOK || ok && !cut.Equal(want) {
			t.Fatalf("seed %d, ¬(%v): derived verdict %t at %v, PossiblyGeneral %t at %v", seed, b, ok, cut, wantOK, want)
		}
		if mid != nil && !mid.Equal(want) {
			t.Fatalf("seed %d, ¬(%v): a prefix's trigger found %v, the least cut is %v", seed, b, mid, want)
		}
		if ok {
			found++
		}
		if mid != nil {
			early++
		}
	}
	t.Logf("%d of 400 captures violate, %d of them on a prefix", found, early)
	// Both verdicts, and triggers on a prefix, must be common enough for
	// the property to say something.
	if found < 50 || found > 350 || early < 20 {
		t.Fatalf("%d of 400 captures violate, %d of them on a prefix: the generator no longer exercises both verdicts", found, early)
	}
}
