package expt

import (
	"strconv"
	"strings"
	"testing"
)

// quickSlice is E10's sweep at smoke size: one workload of each kind.
var quickSlice = []sliceWorkload{
	{"violations-sparse n=4", 4, 56, 0.55, true},
	{"slice-control n=8", 8, 400, 0.9, false},
}

// TestAllExperimentsRun smoke-tests every experiment end to end and
// checks the structural invariants of the rendered tables. E10 renders
// a quick sweep: its full one (pcbench e10, BENCH_slice.json) would be
// nearly all of this package's test time, for the same table shape.
func TestAllExperimentsRun(t *testing.T) {
	if len(experiments) != 10 {
		t.Fatalf("experiments = %d, want 10", len(experiments))
	}
	for _, e := range experiments {
		run := e.run
		if e.id == "e10" {
			run = func(seed int64) *Table { return sliceTable(measureSlice(seed, quickSlice)) }
		}
		tb := run(7)
		if !strings.EqualFold(tb.ID, e.id) {
			t.Errorf("experiment %s rendered table %q", e.id, tb.ID)
		}
		if tb.Title == "" || tb.Claim == "" {
			t.Errorf("%s: missing metadata", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", tb.ID)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Columns) {
				t.Errorf("%s: row width %d vs %d columns", tb.ID, len(r), len(tb.Columns))
			}
		}
		s := tb.String()
		if !strings.Contains(s, tb.Title) {
			t.Errorf("%s: render missing title", tb.ID)
		}
	}
}

// TestByID checks the id lookup — case-folding and unknown ids — without
// re-running the experiments TestAllExperimentsRun already ran; one cheap
// experiment goes end to end.
func TestByID(t *testing.T) {
	for _, id := range []string{"e1", "E3", "e7", "e9", "e10", "E10"} {
		if lookup(id) == nil {
			t.Errorf("lookup(%q) = nil", id)
		}
	}
	for _, id := range []string{"e42", "", "e", "e100"} {
		if lookup(id) != nil || ByID(id, 3) != nil {
			t.Errorf("unknown id %q accepted", id)
		}
	}
	if tb := ByID("E7", 3); tb == nil || tb.ID != "E7" {
		t.Errorf("ByID(E7) = %v", tb)
	}
}

func col(tb *Table, name string) int {
	for i, c := range tb.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// TestE1Agreement: SGSD must agree with brute-force SAT in every row.
func TestE1Agreement(t *testing.T) {
	tb := E1(99)
	i := col(tb, "SGSD agrees")
	for _, r := range tb.Rows {
		if r[i] != "yes" {
			t.Fatalf("reduction disagreement: %v", r)
		}
	}
}

// TestE2EdgeBound: message counts never exceed the paper's np bound.
func TestE2EdgeBound(t *testing.T) {
	tb := E2(0)
	ei, bi := col(tb, "edges"), col(tb, "np bound")
	for _, r := range tb.Rows {
		edges, _ := strconv.Atoi(r[ei])
		bound, _ := strconv.Atoi(r[bi])
		if edges > bound {
			t.Fatalf("edges %d exceed np bound %d: %v", edges, bound, r)
		}
	}
}

// TestE4Bounds: every measured max response respects 2T+Emax, and no
// violation note was emitted.
func TestE4Bounds(t *testing.T) {
	tb := E4(99)
	mi, bi := col(tb, "max resp"), col(tb, "2T+Emax")
	for _, r := range tb.Rows {
		m, _ := strconv.Atoi(r[mi])
		b, _ := strconv.Atoi(r[bi])
		if m > b {
			t.Fatalf("max response %d exceeds bound %d: %v", m, b, r)
		}
	}
	for _, n := range tb.Notes {
		if strings.Contains(n, "EXCEEDS") {
			t.Fatalf("bound violation noted: %s", n)
		}
	}
}

// TestE6AntiTokenWins: on every n, the anti-token has the lowest
// messages-per-entry of the three protocols.
func TestE6AntiTokenWins(t *testing.T) {
	tb := E6(99)
	ni, pi, mi := col(tb, "n"), col(tb, "protocol"), col(tb, "msgs/entry")
	best := map[string]struct {
		proto string
		v     float64
	}{}
	for _, r := range tb.Rows {
		v, _ := strconv.ParseFloat(r[mi], 64)
		if cur, ok := best[r[ni]]; !ok || v < cur.v {
			best[r[ni]] = struct {
				proto string
				v     float64
			}{r[pi], v}
		}
	}
	for n, b := range best {
		if b.proto != "anti-token" {
			t.Fatalf("n=%s: cheapest protocol is %s", n, b.proto)
		}
	}
}

// TestE7Story: the Figure 4 table must tell the paper's story.
func TestE7Story(t *testing.T) {
	tb := E7()
	b1, b2 := col(tb, "bug 1 possible"), col(tb, "bug 2 possible")
	want := map[string][2]bool{ // bug1, bug2 possible?
		"C1": {true, true},
		"C2": {false, true},
		"C3": {false, false},
		"C4": {false, false},
	}
	for _, r := range tb.Rows {
		w, ok := want[r[0]]
		if !ok {
			t.Fatalf("unexpected computation %q", r[0])
		}
		if (strings.HasPrefix(r[b1], "yes")) != w[0] || (strings.HasPrefix(r[b2], "yes")) != w[1] {
			t.Fatalf("%s: got bug1=%q bug2=%q, want %v", r[0], r[b1], r[b2], w)
		}
	}
}

// TestE8AllVerified: every controlled instance re-verifies.
func TestE8AllVerified(t *testing.T) {
	tb := E8(99)
	vi := col(tb, "verified")
	for _, r := range tb.Rows {
		parts := strings.Split(r[vi], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Fatalf("verification incomplete: %v", r)
		}
	}
	for _, n := range tb.Notes {
		if strings.Contains(n, "unexpected failures") {
			t.Fatalf("failures noted: %s", n)
		}
	}
}

// TestE9Tradeoff: latest-first never uses more edges than earliest-first
// on the same workload, and earliest-first never retains fewer cuts.
func TestE9Tradeoff(t *testing.T) {
	tb := E9(0)
	oi, ei, ci := col(tb, "ordering"), col(tb, "edges"), col(tb, "consistent cuts")
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		early, late := tb.Rows[i], tb.Rows[i+1]
		if early[oi] != "earliest-first" || late[oi] != "latest-first" {
			t.Fatalf("unexpected row order at %d", i)
		}
		ee, _ := strconv.Atoi(early[ei])
		le, _ := strconv.Atoi(late[ei])
		ec, _ := strconv.Atoi(early[ci])
		lc, _ := strconv.Atoi(late[ci])
		if le > ee {
			t.Errorf("row %d: latest-first used more edges (%d > %d)", i, le, ee)
		}
		if ec < lc {
			t.Errorf("row %d: earliest-first retained fewer cuts (%d < %d)", i, ec, lc)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}}
	tb.Row(1, 2.5)
	tb.Row("x", "y")
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"X — t", "a", "bb", "2.5", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}
