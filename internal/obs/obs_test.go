package obs

import (
	"strings"
	"testing"
)

func TestJournalAppendAndOrder(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Append(Event{At: int64(i), Proc: i % 2, Kind: KindWork, B: 1})
	}
	if j.Len() != 5 || j.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", j.Len(), j.Dropped())
	}
	for i, e := range j.Events() {
		if e.Seq != uint64(i) || e.At != int64(i) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
}

func TestJournalRingDropsOldest(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{At: int64(i), Kind: KindMark})
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", j.Dropped())
	}
	ev := j.Events()
	for i, e := range ev {
		if e.Seq != uint64(6+i) {
			t.Fatalf("retained[%d].Seq = %d, want %d", i, e.Seq, 6+i)
		}
	}
	if got := j.Slice(7, 8); len(got) != 2 || got[0].Seq != 7 || got[1].Seq != 8 {
		t.Fatalf("Slice(7,8) = %+v", got)
	}
}

func TestJournalNilReceiver(t *testing.T) {
	var j *Journal
	j.Append(Event{Kind: KindMark}) // must not panic
	if j.Enabled() || j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil {
		t.Fatal("nil journal should be inert")
	}
}

// TestJournalAppendNoAlloc pins the zero-allocation hot path: the ring
// is preallocated, so recording an event (without a VC snapshot) must
// not allocate.
func TestJournalAppendNoAlloc(t *testing.T) {
	j := NewJournal(1 << 10)
	e := Event{At: 3, Proc: 1, Kind: KindSend, A: 2, B: 7}
	if n := testing.AllocsPerRun(200, func() { j.Append(e) }); n != 0 {
		t.Fatalf("Journal.Append allocates %v per op, want 0", n)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	g.Set(7)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil registry instruments must be inert")
	}
}

func TestRegistrySharedKeyspace(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("b", "2"), L("a", "1"))
	b := r.Counter("m", L("a", "1"), L("b", "2")) // label order must not matter
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("same name+labels must resolve to the same counter")
	}
	if r.Counter("m") == a || r.Counter("m", L("a", "2")) == a {
		t.Fatal("different labels must resolve to different counters")
	}
}

func TestHistogramStats(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{10, 0, 30, 10} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 50 || h.Max() != 30 || h.Mean() != 12.5 {
		t.Fatalf("count=%d sum=%d max=%d mean=%v", h.Count(), h.Sum(), h.Max(), h.Mean())
	}
	if got := h.Values(); len(got) != 4 || got[2] != 30 {
		t.Fatalf("values = %v", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("predctl_ctl_messages_total", L("proto", "scapegoat")).Add(4)
	r.Counter("predctl_ctl_messages_total", L("proto", "central")).Add(9)
	r.Gauge("predctl_run_end_vtime").Set(361)
	h := r.Histogram("predctl_response_vtime", L("proto", "scapegoat"))
	h.Observe(0)
	h.Observe(12)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE predctl_ctl_messages_total counter\n",
		`predctl_ctl_messages_total{proto="central"} 9` + "\n",
		`predctl_ctl_messages_total{proto="scapegoat"} 4` + "\n",
		"# TYPE predctl_run_end_vtime gauge\npredctl_run_end_vtime 361\n",
		"# TYPE predctl_response_vtime histogram\n",
		`predctl_response_vtime_bucket{proto="scapegoat",le="1"} 1` + "\n",
		`predctl_response_vtime_bucket{proto="scapegoat",le="20"} 2` + "\n",
		`predctl_response_vtime_bucket{proto="scapegoat",le="+Inf"} 3` + "\n",
		`predctl_response_vtime_sum{proto="scapegoat"} 42` + "\n",
		`predctl_response_vtime_count{proto="scapegoat"} 3` + "\n",
		`predctl_response_vtime_max{proto="scapegoat"} 30` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
	// central sorts before scapegoat: deterministic series order.
	if strings.Index(got, `proto="central"`) > strings.Index(got, `proto="scapegoat"`) {
		t.Error("series not sorted")
	}

	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Error("WritePrometheus is not deterministic")
	}
}

func TestCheckResponses(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 10, 30, 0} { // T=5, Emax=20: allowed {0} ∪ [10,30]
		h.Observe(v)
	}
	var ok Report
	ok.CheckResponses(h, 5, 20, nil)
	if !ok.Ok() {
		t.Fatalf("in-bound responses flagged: %v", ok.Err())
	}

	h.Observe(31)
	h.Observe(4)
	var bad Report
	bad.CheckResponses(h, 5, 20, nil)
	if len(bad.Violations) != 2 {
		t.Fatalf("want 2 violations, got %v", bad.Err())
	}
}

func chainJournal(events ...Event) *Journal {
	j := NewJournal(0)
	for _, e := range events {
		e.Kind = KindControl
		j.Append(e)
	}
	return j
}

func TestCheckScapegoatChain(t *testing.T) {
	// Appended out of acquisition order, as a merged journal may be: the
	// generation (C) orders the chain, not the position.
	good := chainJournal(
		Event{Name: EvScapegoatAcquire, A: 1, B: 0, C: 2},
		Event{Name: EvScapegoatInit, A: 2},
		Event{Name: EvScapegoatAcquire, A: 0, B: 2, C: 1},
	)
	var ok Report
	ok.CheckScapegoatChain(good)
	if !ok.Ok() {
		t.Fatalf("valid chain flagged: %v", ok.Err())
	}
	if ChainLength(good) != 2 {
		t.Fatalf("ChainLength = %d", ChainLength(good))
	}

	forked := chainJournal(
		Event{Name: EvScapegoatInit, A: 2},
		Event{Name: EvScapegoatAcquire, A: 0, B: 2, C: 1},
		Event{Name: EvScapegoatAcquire, A: 1, B: 2, C: 2}, // 2 is no longer the holder
	)
	var bad Report
	bad.CheckScapegoatChain(forked)
	if bad.Ok() {
		t.Fatal("forked chain not flagged")
	}
	if v := bad.Violations[0]; len(v.Events) == 0 {
		t.Fatal("violation carries no journal slice")
	}

	for name, j := range map[string]*Journal{
		"acquire before init": chainJournal(Event{Name: EvScapegoatAcquire, A: 1, B: 0, C: 1}),
		"second init": chainJournal(
			Event{Name: EvScapegoatInit, A: 2},
			Event{Name: EvScapegoatInit, A: 0}),
		// Two controllers both took anti-token generation 1: only the
		// generation order can see it when each names the true holder.
		"duplicate generation": chainJournal(
			Event{Name: EvScapegoatInit, A: 2},
			Event{Name: EvScapegoatAcquire, A: 0, B: 2, C: 1},
			Event{Name: EvScapegoatAcquire, A: 1, B: 2, C: 1}),
		// Generation 2's transfer was journaled by nobody.
		"generation gap": chainJournal(
			Event{Name: EvScapegoatInit, A: 2},
			Event{Name: EvScapegoatAcquire, A: 0, B: 2, C: 1},
			Event{Name: EvScapegoatAcquire, A: 1, B: 0, C: 3}),
	} {
		var rep Report
		rep.CheckScapegoatChain(j)
		if rep.Ok() {
			t.Errorf("%s not flagged", name)
		}
	}

	// A wrapped journal lost the chain prefix: the check must skip, not
	// report a phantom fork.
	wrapped := NewJournal(2)
	for _, e := range []Event{
		{Kind: KindControl, Name: EvScapegoatInit, A: 0},
		{Kind: KindControl, Name: EvScapegoatAcquire, A: 1, B: 0, C: 1},
		{Kind: KindControl, Name: EvScapegoatAcquire, A: 2, B: 1, C: 2},
	} {
		wrapped.Append(e)
	}
	var skip Report
	skip.CheckScapegoatChain(wrapped)
	if !skip.Ok() || len(skip.Checked) != 0 {
		t.Fatal("check on a wrapped journal must be skipped")
	}
}

func TestCheckOfflineEdges(t *testing.T) {
	var ok Report
	ok.CheckOfflineEdges(10, 2, 4) // bound 2*5 = 10
	if !ok.Ok() {
		t.Fatalf("in-bound edges flagged: %v", ok.Err())
	}
	var bad Report
	bad.CheckOfflineEdges(11, 2, 4)
	if bad.Ok() {
		t.Fatal("over-bound edges not flagged")
	}
}

func TestTimeline(t *testing.T) {
	j := NewJournal(0)
	j.Append(Event{At: 1, Proc: 0, Kind: KindSend, A: 1, B: 0})
	j.Append(Event{At: 3, Proc: 1, Kind: KindRecv, A: 0, B: 0})
	j.Append(Event{At: 3, Proc: 1, Kind: KindSet, Name: "cs", A: 1})
	out := Timeline(j, 0)
	for _, want := range []string{"send → P1", "recv ← P0", "set cs := 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if tail := Timeline(j, 1); strings.Contains(tail, "send") || !strings.Contains(tail, "2 earlier events elided") {
		t.Errorf("limited timeline wrong:\n%s", tail)
	}
}
