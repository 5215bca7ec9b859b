package deposet

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"predctl/internal/vclock"
)

// chainPair builds the two-process computation used throughout:
//
//	P0: ⊥ —s0—→ 1 —·—→ 2
//	P1: ⊥ —·—→ 1 —r0—→ 2
//
// with one message sent by P0's first event and received by P1's second.
func chainPair(t *testing.T) *Deposet {
	t.Helper()
	b := NewBuilder(2)
	_, h := b.Send(0)
	b.Step(0)
	b.Step(1)
	b.Recv(1, h)
	return b.MustBuild()
}

func TestBuilderShapes(t *testing.T) {
	d := chainPair(t)
	if d.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d", d.NumProcs())
	}
	if d.Len(0) != 3 || d.Len(1) != 3 {
		t.Fatalf("lens = %d,%d", d.Len(0), d.Len(1))
	}
	if d.NumStates() != 6 {
		t.Fatalf("NumStates = %d", d.NumStates())
	}
	if len(d.Messages()) != 1 {
		t.Fatalf("messages = %d", len(d.Messages()))
	}
	m := d.Messages()[0]
	if m.FromP != 0 || m.SendEvent != 1 || m.ToP != 1 || m.RecvEvent != 2 {
		t.Fatalf("message = %+v", m)
	}
	if d.SendAt(0, 1) != 0 || d.RecvAt(1, 2) != 0 || d.SendAt(1, 2) != -1 {
		t.Fatal("event role lookup wrong")
	}
}

func TestHappenedBefore(t *testing.T) {
	d := chainPair(t)
	// The message relates state (0,0) to state (1,2): s ⇝ t.
	cases := []struct {
		s, t StateID
		want bool
	}{
		{StateID{0, 0}, StateID{0, 1}, true},  // local order
		{StateID{0, 1}, StateID{0, 0}, false}, // irreflexive/antisym
		{StateID{0, 0}, StateID{0, 0}, false}, // strict
		{StateID{0, 0}, StateID{1, 2}, true},  // via message
		{StateID{0, 0}, StateID{1, 1}, false}, // before the receive
		{StateID{0, 1}, StateID{1, 2}, false}, // send state itself not ⇝
		{StateID{1, 0}, StateID{0, 2}, false}, // no channel that way
		{StateID{1, 2}, StateID{0, 0}, false},
	}
	for _, c := range cases {
		if got := d.HB(c.s, c.t); got != c.want {
			t.Errorf("HB(%v,%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
	if !d.Concurrent(StateID{0, 1}, StateID{1, 1}) {
		t.Error("expected concurrency")
	}
	if d.Concurrent(StateID{0, 0}, StateID{0, 0}) {
		t.Error("state concurrent with itself")
	}
}

func TestClockConvention(t *testing.T) {
	d := chainPair(t)
	// State (1,2) knows P0 up to state 0 (the state before the send).
	v := d.Clock(StateID{1, 2})
	if v[0] != 0 || v[1] != 2 {
		t.Fatalf("Clock(1,2) = %v", v)
	}
	if v0 := d.Clock(StateID{1, 1}); v0[0] != vclock.None {
		t.Fatalf("Clock(1,1)[0] = %d, want None", v0[0])
	}
}

func TestConsistency(t *testing.T) {
	d := chainPair(t)
	// Orphan-message cut: P1 received but P0 "has not sent".
	if d.Consistent(Cut{0, 2}) {
		t.Error("orphan cut (0,2) reported consistent")
	}
	for _, g := range []Cut{{0, 0}, {1, 2}, {2, 2}, {1, 1}, {2, 0}} {
		if !d.Consistent(g) {
			t.Errorf("cut %v should be consistent", g)
		}
	}
	if !d.Consistent(d.BottomCut()) || !d.Consistent(d.TopCut()) {
		t.Error("⊥ or ⊤ inconsistent")
	}
}

func TestBottomTopAndRange(t *testing.T) {
	d := chainPair(t)
	if d.Top(0) != (StateID{0, 2}) || !slices.Equal(d.BottomCut(), Cut{0, 0}) || !slices.Equal(d.TopCut(), Cut{2, 2}) {
		t.Error("Top/BottomCut/TopCut wrong")
	}
	if !d.IsTop(StateID{1, 2}) || d.IsTop(StateID{1, 1}) {
		t.Error("IsTop wrong")
	}
	if d.InRange(Cut{0, 3}) || d.InRange(Cut{0}) || !d.InRange(Cut{2, 1}) {
		t.Error("InRange wrong")
	}
}

func TestForEachConsistentCutGrid(t *testing.T) {
	// Two independent processes with 2 events each: full 3×3 grid.
	b := NewBuilder(2)
	b.Step(0)
	b.Step(0)
	b.Step(1)
	b.Step(1)
	d := b.MustBuild()
	if got := d.CountConsistentCuts(); got != 9 {
		t.Fatalf("grid lattice size = %d, want 9", got)
	}
}

func TestForEachConsistentCutMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		d := Random(r, DefaultGen(3, 9))
		want := 0
		var rec func(p int, g Cut)
		rec = func(p int, g Cut) {
			if p == d.NumProcs() {
				if d.Consistent(g) {
					want++
				}
				return
			}
			for k := 0; k < d.Len(p); k++ {
				g[p] = k
				rec(p+1, g)
			}
		}
		rec(0, d.BottomCut())
		seen := map[string]bool{}
		got := 0
		d.ForEachConsistentCut(func(g Cut) bool {
			if !d.Consistent(g) {
				t.Fatalf("enumerated inconsistent cut %v", g)
			}
			if seen[g.Key()] {
				t.Fatalf("cut %v enumerated twice", g)
			}
			seen[g.Key()] = true
			got++
			return true
		})
		if got != want {
			t.Fatalf("trial %d: enumerated %d cuts, brute force %d", trial, got, want)
		}
	}
}

func TestForEachConsistentCutEarlyStop(t *testing.T) {
	d := chainPair(t)
	calls := 0
	d.ForEachConsistentCut(func(Cut) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop made %d calls", calls)
	}
}

func TestSomeSequenceValid(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		d := Random(r, DefaultGen(1+r.Intn(4), r.Intn(20)))
		seq := d.SomeSequence()
		if err := d.ValidateSequence(seq); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestValidateSequenceRejects(t *testing.T) {
	d := chainPair(t)
	cases := []struct {
		name string
		seq  Sequence
	}{
		{"empty", nil},
		{"not bottom", Sequence{{1, 0}}},
		{"not top", Sequence{{0, 0}}},
		{"jump", Sequence{{0, 0}, {2, 0}, {2, 2}}},
		{"inconsistent", Sequence{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}}},
		{"backwards", Sequence{{0, 0}, {1, 0}, {0, 0}, {2, 2}}},
		{"out of range", Sequence{{0, 0}, {0, 5}, {2, 2}}},
	}
	for _, c := range cases {
		if err := d.ValidateSequence(c.seq); err == nil {
			t.Errorf("%s: sequence accepted", c.name)
		}
	}
	if err := d.ValidateSequence(d.SomeSequence()); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
}

func TestFalseIntervals(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 6; i++ {
		b.Step(0)
	}
	d := b.MustBuild() // 7 states
	truth := []bool{true, false, false, true, false, true, true}
	ivs := TruthIntervals(d, 0, func(_, k int) bool { return !truth[k] })
	want := []Interval{{0, 1, 2}, {0, 4, 4}}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", ivs, want)
		}
	}
	if !ivs[0].Contains(2) || ivs[0].Contains(3) {
		t.Error("Contains wrong")
	}
	if ivs[1].LoState() != (StateID{0, 4}) || ivs[1].HiState() != (StateID{0, 4}) {
		t.Error("endpoint states wrong")
	}
	if none := TruthIntervals(d, 0, func(int, int) bool { return false }); none != nil {
		t.Errorf("all-true predicate has false-intervals %v", none)
	}
	allFalse := TruthIntervals(d, 0, func(int, int) bool { return true })
	if len(allFalse) != 1 || allFalse[0] != (Interval{0, 0, 6}) {
		t.Errorf("all-false intervals = %v", allFalse)
	}
}

func TestVars(t *testing.T) {
	b := NewBuilder(2)
	b.Let(0, "x", 1) // at ⊥
	b.Step(0)
	b.Let(0, "x", 2)
	b.Step(0)
	d := b.MustBuild()
	if !d.HasVars() {
		t.Fatal("HasVars false")
	}
	for k, want := range []int{1, 2, 2} {
		got, ok := d.Var(StateID{0, k}, "x")
		if !ok || got != want {
			t.Errorf("x at (0,%d) = %d,%v; want %d", k, got, ok, want)
		}
	}
	if _, ok := d.Var(StateID{0, 0}, "y"); ok {
		t.Error("unset variable found")
	}
	if _, ok := d.Var(StateID{1, 0}, "x"); ok {
		t.Error("variable leaked across processes")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	_, h := b.Send(0)
	b.Recv(1, h)
	b.Recv(1, h) // double receive
	if _, err := b.Build(); err == nil {
		t.Error("double receive accepted")
	}

	b2 := NewBuilder(1)
	b2.Recv(0, MsgHandle(42))
	if _, err := b2.Build(); err == nil {
		t.Error("unknown message accepted")
	}
}

func TestBuilderPanicsOnBadProc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2).Step(5)
}

func TestNewBuilderPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(0)
}

func TestTransfer(t *testing.T) {
	b := NewBuilder(2)
	s, r := b.Transfer(0, 1)
	d := b.MustBuild()
	if s != (StateID{0, 1}) || r != (StateID{1, 1}) {
		t.Fatalf("Transfer states = %v,%v", s, r)
	}
	if !d.HB(StateID{0, 0}, StateID{1, 1}) {
		t.Error("transfer did not create causality")
	}
}

func TestUnreceivedMessageAllowed(t *testing.T) {
	b := NewBuilder(2)
	b.Send(0)
	d := b.MustBuild()
	if d.Messages()[0].Received() {
		t.Error("dangling message marked received")
	}
	if d.HB(StateID{0, 0}, StateID{1, 0}) {
		t.Error("dangling message created causality")
	}
}

func TestFromRawRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		d := Random(r, DefaultGen(3, 12))
		d2, err := FromRaw(d.Raw())
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				s := StateID{p, k}
				if !slices.Equal(d.Clock(s), d2.Clock(s)) {
					t.Fatalf("clock mismatch at %v", s)
				}
			}
		}
	}
}

func TestFromRawRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		raw  Raw
	}{
		{"no procs", Raw{}},
		{"zero states", Raw{Lens: []int{0}}},
		{"bad sender", Raw{Lens: []int{2}, Msgs: []Message{{FromP: 5, SendEvent: 1, ToP: -1}}}},
		{"bad send event", Raw{Lens: []int{2}, Msgs: []Message{{FromP: 0, SendEvent: 9, ToP: -1}}}},
		{"bad receiver", Raw{Lens: []int{2, 2}, Msgs: []Message{{FromP: 0, SendEvent: 1, ToP: 7, RecvEvent: 1}}}},
		{"bad recv event", Raw{Lens: []int{2, 2}, Msgs: []Message{{FromP: 0, SendEvent: 1, ToP: 1, RecvEvent: 4}}}},
		{"D3 send+recv", Raw{Lens: []int{2, 2}, Msgs: []Message{
			{FromP: 0, SendEvent: 1, ToP: 1, RecvEvent: 1},
			{FromP: 1, SendEvent: 1, ToP: -1},
		}}},
		{"double send", Raw{Lens: []int{2}, Msgs: []Message{
			{FromP: 0, SendEvent: 1, ToP: -1},
			{FromP: 0, SendEvent: 1, ToP: -1},
		}}},
		{"vars wrong procs", Raw{Lens: []int{1}, Vars: make([][]map[string]int, 2)}},
		{"vars wrong len", Raw{Lens: []int{2}, Vars: [][]map[string]int{{nil}}}},
		// Sizes only a hostile or damaged file claims: refused before
		// anything is allocated for them.
		{"one absurd len", Raw{Lens: []int{math.MaxInt}}},
		{"lens absurd only in sum", Raw{Lens: []int{MaxStates/2 + 1, MaxStates / 2}}},
	}
	for _, c := range cases {
		if _, err := FromRaw(c.raw); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	_, err := FromRaw(Raw{Lens: []int{3, 4_000_000_000}})
	if err == nil || !strings.Contains(err.Error(), "4000000000") || !strings.Contains(err.Error(), strconv.Itoa(MaxStates)) {
		t.Errorf("oversize error does not name the count and the limit: %v", err)
	}
}

func TestFromRawDetectsCycle(t *testing.T) {
	// P0 event1 receives m1 and event2 sends m0; P1 event1 receives m0 and
	// event2 sends m1. Each message is received "before" it is sent.
	raw := Raw{
		Lens: []int{3, 3},
		Msgs: []Message{
			{FromP: 0, SendEvent: 2, ToP: 1, RecvEvent: 1},
			{FromP: 1, SendEvent: 2, ToP: 0, RecvEvent: 1},
		},
	}
	if _, err := FromRaw(raw); err != ErrCyclic {
		t.Fatalf("err = %v, want ErrCyclic", err)
	}
}

// The clocks of a trace far larger than the property tests build (≥16k
// states) obey the clock recurrence row by row: a state's row is its
// predecessor's, merged with the sender's pre-send row when its event is
// a receive, with its own component set to its index.
func TestBuildLargeTraceClockRecurrence(t *testing.T) {
	d := Random(rand.New(rand.NewSource(7)), DefaultGen(8, 16384))
	if d.NumStates() < 16384 {
		t.Fatalf("trace has %d states, want ≥ 16384", d.NumStates())
	}
	n := d.NumProcs()
	for p := 0; p < n; p++ {
		bottom := vclock.New(n)
		bottom[p] = 0
		if got := d.Clock(StateID{p, 0}); !slices.Equal(got, bottom) {
			t.Fatalf("clock(⊥%d) = %v, want %v", p, got, bottom)
		}
		for k := 1; k < d.Len(p); k++ {
			want := d.Clock(StateID{p, k - 1}).Clone()
			if mi := d.RecvAt(p, k); mi >= 0 {
				m := d.Messages()[mi]
				want.Merge(d.Clock(StateID{m.FromP, m.SendEvent - 1}))
			}
			want[p] = int32(k)
			if got := d.Clock(StateID{p, k}); !slices.Equal(got, want) {
				t.Fatalf("clock(%d,%d) = %v, want %v", p, k, got, want)
			}
		}
	}
}

// Property: HB coincides with strict vector-clock ordering on distinct
// states, and HB is transitive and irreflexive.
func TestHBPartialOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := Random(r, DefaultGen(1+r.Intn(4), r.Intn(25)))
		states := allStates(d)
		for trial := 0; trial < 40; trial++ {
			s := states[r.Intn(len(states))]
			u := states[r.Intn(len(states))]
			w := states[r.Intn(len(states))]
			if d.HB(s, s) {
				return false
			}
			// HB ≡ the component-wise clock order: ≤ everywhere, not equal.
			cs, cu := d.Clock(s), d.Clock(u)
			less := !slices.Equal(cs, cu)
			for i := range cs {
				less = less && cs[i] <= cu[i]
			}
			if s != u && d.HB(s, u) != less {
				return false
			}
			if d.HB(s, u) && d.HB(u, w) && !d.HB(s, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every step of SomeSequence is a consistent cut and the lattice
// BFS from ⊥ reaches ⊤.
func TestLatticeReachesTopProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := Random(r, DefaultGen(1+r.Intn(3), r.Intn(14)))
		reached := false
		top := d.TopCut()
		d.ForEachConsistentCut(func(g Cut) bool {
			if g.Equal(top) {
				reached = true
			}
			return true
		})
		return reached
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func allStates(d *Deposet) []StateID {
	var ss []StateID
	for p := 0; p < d.NumProcs(); p++ {
		for k := 0; k < d.Len(p); k++ {
			ss = append(ss, StateID{p, k})
		}
	}
	return ss
}

func TestCutHelpers(t *testing.T) {
	g := Cut{1, 2}
	h := g.Clone()
	h[0] = 9
	if g[0] != 1 {
		t.Error("Clone shares storage")
	}
	if !g.Equal(Cut{1, 2}) || g.Equal(Cut{1}) || g.Equal(Cut{2, 2}) {
		t.Error("Equal wrong")
	}
	if !g.Leq(Cut{1, 3}) || g.Leq(Cut{0, 3}) {
		t.Error("Leq wrong")
	}
	if g.Key() != "1,2" {
		t.Errorf("Key = %q", g.Key())
	}
	if g.String() != "⟨1,2⟩" {
		t.Errorf("String = %q", g.String())
	}
	if (StateID{1, 2}).String() != "(1,2)" {
		t.Error("StateID.String wrong")
	}
	if (Interval{0, 1, 2}).String() != "P0[1..2]" {
		t.Error("Interval.String wrong")
	}
}
