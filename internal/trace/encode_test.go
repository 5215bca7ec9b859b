package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
)

// encodeJSON is the reference encoder: encoding/json over File, indented
// by one space. Encode must write exactly its bytes.
func encodeJSON(w io.Writer, d *deposet.Deposet, rel control.Relation) error {
	raw := d.Raw()
	f := File{Version: Version, Lens: raw.Lens, Vars: raw.Vars}
	for _, m := range raw.Msgs {
		f.Msgs = append(f.Msgs, Message{m.FromP, m.SendEvent, m.ToP, m.RecvEvent})
	}
	for _, e := range rel {
		f.Control = append(f.Control, Edge{e.From.P, e.From.K, e.To.P, e.To.K})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// checkEncodeMatchesJSON holds Encode to the reference on one input and
// returns its bytes.
func checkEncodeMatchesJSON(t testing.TB, d *deposet.Deposet, rel control.Relation) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := Encode(&got, d, rel); err != nil {
		t.Fatal(err)
	}
	if err := encodeJSON(&want, d, rel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Encode wrote\n%s\nencoding/json\n%s", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// encodeNames are variable names encoding/json escapes or sorts with
// care, and a few it writes as they are.
var encodeNames = []string{"x", "cs", "a b", "~", "", "<a&b>", "é", "\u2028", `"`, `\`, "\t", "\xff"}

// canonicalName reports whether Encode writes name as it is, in the
// printable ASCII the scanner reads: encoding/json escapes '"', '\\' and,
// for HTML, '<', '>' and '&'.
func canonicalName(name string) bool {
	for _, c := range []byte(name) {
		if c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// randomComputation is a small computation with in-flight messages and,
// mostly, variables: built by the Builder, or its variables given as Raw
// maps through FromRaw.
func randomComputation(r *rand.Rand) *deposet.Deposet {
	values := []int{0, 1, -1, 42, math.MaxInt64, -math.MaxInt64, math.MinInt64}
	n := 1 + r.Intn(4)
	withVars, viaRaw := r.Intn(4) > 0, r.Intn(2) == 0
	b := deposet.NewBuilder(n)
	var flight []deposet.MsgHandle
	for i := r.Intn(40); i > 0; i-- {
		p := r.Intn(n)
		switch r.Intn(4) {
		case 0:
			b.Step(p)
		case 1:
			_, h := b.Send(p)
			flight = append(flight, h)
		case 2:
			if len(flight) > 0 {
				b.Recv(p, flight[0])
				flight = flight[1:]
			}
		case 3:
			if withVars && !viaRaw {
				b.Let(p, encodeNames[r.Intn(len(encodeNames))], values[r.Intn(len(values))])
			}
		}
	}
	d := b.MustBuild()
	if !withVars || !viaRaw {
		return d
	}
	raw := d.Raw()
	raw.Vars = make([][]map[string]int, n)
	for p := range raw.Vars {
		if r.Intn(4) == 0 {
			continue // a process without snapshots
		}
		raw.Vars[p] = make([]map[string]int, d.Len(p))
		for k := range raw.Vars[p] {
			if r.Intn(3) == 0 {
				continue // a state without one
			}
			m := map[string]int{}
			for j := r.Intn(4); j > 0; j-- {
				m[encodeNames[r.Intn(len(encodeNames))]] = values[r.Intn(len(values))]
			}
			raw.Vars[p][k] = m
		}
	}
	d, err := deposet.FromRaw(raw)
	if err != nil {
		panic(err)
	}
	return d
}

// TestEncodeMatchesJSON holds Encode to encoding/json's bytes on random
// computations, and holds it to the scanner's subset: a computation whose
// names Encode writes as they are is read back without the fallback.
func TestEncodeMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		d := randomComputation(r)
		var rel control.Relation
		if r.Intn(2) == 0 {
			rel = control.Relation{} // empty, and omitted like nil
			for i := r.Intn(4); i > 0; i-- {
				rel = append(rel, control.Edge{
					From: deposet.StateID{P: r.Intn(d.NumProcs()), K: r.Intn(4)},
					To:   deposet.StateID{P: r.Intn(d.NumProcs()), K: r.Intn(4)},
				})
			}
		}
		out := checkEncodeMatchesJSON(t, d, rel)
		names, _, _ := d.VarsAt(deposet.StateID{})
		canonical := true
		for _, name := range names {
			canonical = canonical && canonicalName(name)
		}
		if _, ok := scan(out); canonical && !ok {
			t.Fatalf("trial %d: the scanner refused Encode's output over names %q:\n%s", trial, names, out)
		}
	}
}

// failWriter fails its second write.
type failWriter struct{ writes int }

var errFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errFull
	}
	return len(p), nil
}

// TestEncodeChunks checks that a document larger than a chunk reaches w
// in chunks, and that the first write error is what Encode returns.
func TestEncodeChunks(t *testing.T) {
	d := deposet.Random(rand.New(rand.NewSource(3)), deposet.DefaultGen(4, 8_000))
	out := checkEncodeMatchesJSON(t, d, nil)
	if len(out) < 3*chunk {
		t.Fatalf("%d bytes do not span three chunks", len(out))
	}
	w := &failWriter{}
	if err := Encode(w, d, nil); !errors.Is(err, errFull) {
		t.Errorf("Encode returned %v, want the writer's error", err)
	}
	if w.writes != 2 {
		t.Errorf("%d writes, want the second to fail and end them", w.writes)
	}
}

// varTrace is a var-carrying computation of about states states over
// procs processes, each event setting one of names.
func varTrace(procs, states int, names []string) *deposet.Deposet {
	b := deposet.NewBuilder(procs)
	for i := 0; i < states-procs; i++ {
		p := i % procs
		if i%5 == 0 {
			b.Transfer(p, (p+1)%procs)
		} else {
			b.Step(p)
		}
		b.Let(p, names[i%len(names)], i)
	}
	return b.MustBuild()
}

// TestEncodeAllocBound pins what Encode allocates: its chunk, and a
// quoted key per distinct variable name, however long the trace; and
// under a megabyte for offline-cycle's 250k-event trace.
func TestEncodeAllocBound(t *testing.T) {
	allocs := func(d *deposet.Deposet) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := Encode(io.Discard, d, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	r := rand.New(rand.NewSource(5))
	small := deposet.Random(r, deposet.DefaultGen(4, 2_000))
	large := deposet.Random(r, deposet.DefaultGen(4, 32_000))
	if len(large.Messages()) < 8*len(small.Messages()) {
		t.Fatal("the larger trace does not have the messages to show growth")
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("vars-free encode: %.0f allocs at %d messages, %.0f at %d", a, len(small.Messages()), b, len(large.Messages()))
	}

	// The chunk, the key table and a few per name (json.Marshal's pooled
	// state is dropped at random under -race, so a bound, not a count).
	vars := allocs(small) + 1
	for _, names := range [][]string{{"cs", "req"}, {"a", "b", "c", "d", "e", "f", "g", "h"}} {
		for _, states := range []int{2_000, 32_000} {
			if got, bound := allocs(varTrace(4, states, names)), vars+4*float64(len(names)); got > bound {
				t.Errorf("encode with %d names over %d states: %.0f allocs, want at most %.0f", len(names), states, got, bound)
			}
		}
	}

	d := deposet.Random(r, deposet.DefaultGen(16, 250_000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Encode(io.Discard, d, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("encoding %d states allocated %d bytes, want under 1 MB", d.NumStates(), got)
	}
}
