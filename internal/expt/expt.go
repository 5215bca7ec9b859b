// Package expt is the experiment harness: one function per evaluation
// artifact of the paper (figures, complexity claims, and the §6/§7
// analyses), each regenerating the corresponding result as a text table.
// cmd/pcbench drives it; EXPERIMENTS.md records paper-vs-measured.
package expt

import (
	"fmt"
	"strings"
	"time"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Row appends a row of stringified cells.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// timeIt measures fn, repeating short runs for stability.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if d > 10*time.Millisecond {
		return d
	}
	// Too fast to trust a single run: repeat.
	reps := 1 + int(10*time.Millisecond/(d+1))
	start = time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(reps)
}

// experiments is the one id → constructor table behind ByID, in
// presentation order.
var experiments = []struct {
	id  string
	run func(seed int64) *Table
}{
	{"e1", E1}, {"e2", E2}, {"e3", E3}, {"e4", E4}, {"e5", E5}, {"e6", E6},
	{"e7", func(int64) *Table { return E7() }},
	{"e8", E8}, {"e9", E9}, {"e10", E10},
}

// lookup returns the constructor of the experiment with the given id
// (e1..e10, case-insensitive), or nil.
func lookup(id string) func(seed int64) *Table {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return e.run
		}
	}
	return nil
}

// ByID runs the experiment with the given id (e1..e10), or returns nil.
func ByID(id string, seed int64) *Table {
	run := lookup(id)
	if run == nil {
		return nil
	}
	return run(seed)
}
