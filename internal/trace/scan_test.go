package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"predctl/internal/control"
	"predctl/internal/deposet"
)

// encoded is Encode's output for a small computation with two processes,
// one received and one in-flight message and, if asked for, a variable per
// state and a control edge.
func encoded(t testing.TB, vars, ctl bool) string {
	b := deposet.NewBuilder(2)
	if vars {
		b.Let(0, "x", 1)
		b.Let(1, "cs", -3)
	}
	b.Transfer(0, 1)
	if vars {
		b.Let(0, "x", 2)
	}
	b.Send(1)
	b.Step(0)
	d := b.MustBuild()
	var rel control.Relation
	if ctl {
		rel = control.Relation{{From: deposet.StateID{P: 0, K: 1}, To: deposet.StateID{P: 1, K: 2}}}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, d, rel); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

type decodeCase struct {
	name, in  string
	canonical bool
	wantErr   bool
}

// decodeCases are the inputs the scanner is held to: canonical ones it
// must decode itself, and one or more of every class it must leave to
// encoding/json. wantErr is Decode's outcome at the commit before the
// scanner, which stands — except for the two trailing-bytes inputs,
// which that commit accepted, and the two absurd sizes, which killed it.
var decodeCases = []decodeCase{
	{"compact", `{"version":1,"lens":[2,2],"msgs":[{"from_p":0,"send_event":1,"to_p":1,"recv_event":1}]}`, true, false},
	{"keys permuted", `{"control":[{"to_k":2,"to_p":1,"from_k":1,"from_p":0}],"msgs":[{"recv_event":1,"to_p":1,"send_event":1,"from_p":0}],"lens":[3,3],"version":1}`, true, false},
	{"whitespace", " \t\r\n{ \"version\" : 1 , \"lens\" : [ 1 , 2 ] }\r\n", true, false},
	{"recv_event omitted", `{"version":1,"lens":[2],"msgs":[{"from_p":0,"send_event":1,"to_p":-1}]}`, true, false},
	{"negative and -0", `{"version":1,"lens":[2,2],"msgs":[{"from_p":-0,"send_event":1,"to_p":-7,"recv_event":-0}]}`, true, false},
	{"negative len", `{"version":1,"lens":[-1]}`, true, true},
	{"absurd len", `{"version":1,"lens":[9223372036854775807]}`, true, true},
	{"absurd lens", `{"version":1,"lens":[4000000000,4000000000]}`, true, true},
	{"int range ends", `{"version":1,"lens":[1],"vars":[[{"hi":9223372036854775807,"lo":-9223372036854775808}]]}`, true, false},
	{"null sections", `{"version":1,"lens":[2,2],"msgs":null,"vars":null,"control":null}`, true, false},
	{"null version", `{"version":null,"lens":[1]}`, true, true},
	{"null lens", `{"version":1,"lens":null}`, true, true},
	{"null len", `{"version":1,"lens":[null]}`, true, true},
	{"null message", `{"version":1,"lens":[2],"msgs":[null]}`, true, true},
	{"null field", `{"version":1,"lens":[2],"msgs":[{"from_p":null,"send_event":1,"to_p":-1,"recv_event":null}]}`, true, false},
	{"null edge", `{"version":1,"lens":[2,2],"control":[null]}`, true, true},
	{"null process and state", `{"version":1,"lens":[1,2],"vars":[null,[null,{"x":1}]]}`, true, false},
	{"empty sections", `{"version":1,"lens":[1],"msgs":[],"control":[]}`, true, false},
	{"empty lens", `{"version":1,"lens":[]}`, true, true},
	{"empty vars", `{"version":1,"lens":[1],"vars":[]}`, true, true},
	{"empty process vars", `{"version":1,"lens":[1,1],"vars":[null,[]]}`, true, true},
	{"empty state and name", `{"version":1,"lens":[2],"vars":[[{},{"":4}]]}`, true, false},
	{"bad version", `{"version":99,"lens":[1]}`, true, true},
	{"bad control", `{"version":1,"lens":[2,2],"control":[{"from_p":0,"from_k":1,"to_p":1,"to_k":0}]}`, true, true},

	{"null document", `null`, false, true},
	{"null value", `{"version":1,"lens":[1],"vars":[[{"x":null}]]}`, false, false},
	{"exponent", `{"version":1,"lens":[1e3]}`, false, true},
	{"fraction", `{"version":1.0,"lens":[1]}`, false, true},
	{"leading zero", `{"version":01,"lens":[1]}`, false, true},
	{"past MaxInt64", `{"version":1,"lens":[1],"vars":[[{"x":9223372036854775808}]]}`, false, true},
	{"past MinInt64", `{"version":1,"lens":[1],"vars":[[{"x":-9223372036854775809}]]}`, false, true},
	{"twenty digits", `{"version":1,"lens":[1],"vars":[[{"x":10000000000000000000}]]}`, false, true},
	{"bare minus", `{"version":1,"lens":[-]}`, false, true},
	{"escaped name", `{"version":1,"lens":[1],"vars":[[{"x\u0041":1}]]}`, false, false},
	{"non-ASCII name", `{"version":1,"lens":[1],"vars":[[{"é":1}]]}`, false, false},
	{"control byte in name", "{\"version\":1,\"lens\":[1],\"vars\":[[{\"a\tb\":1}]]}", false, true},
	{"upper-case key", `{"version":1,"LENS":[1]}`, false, false},
	{"upper-case field", `{"version":1,"lens":[2],"msgs":[{"from_p":0,"SEND_EVENT":1,"to_p":-1}]}`, false, false},
	{"duplicate lens", `{"version":1,"lens":[5],"lens":[1]}`, false, false},
	{"duplicate field", `{"version":1,"lens":[2],"msgs":[{"from_p":0,"send_event":9,"send_event":1,"to_p":-1}]}`, false, false},
	{"duplicate name", `{"version":1,"lens":[1],"vars":[[{"x":1,"x":2}]]}`, false, false},
	{"unknown key", `{"version":1,"lens":[1],"extra":{"a":[1,"]"]}}`, false, false},
	{"unknown field", `{"version":1,"lens":[2],"msgs":[{"from_p":0,"send_event":1,"to_p":-1,"at":"now"}]}`, false, false},
	{"string for int", `{"version":"1","lens":[1]}`, false, true},
	{"object for array", `{"version":1,"lens":[1],"msgs":{}}`, false, true},
	{"array for object", `{"version":1,"lens":[1],"msgs":[[1]]}`, false, true},
	{"array document", `[1]`, false, true},
	{"trailing comma", `{"version":1,"lens":[1,]}`, false, true},
	{"missing comma", `{"version":1 "lens":[1]}`, false, true},
	{"truncated", `{"version":1,"lens":[1]`, false, true},
	{"empty", ``, false, true},
	{"trailing bytes", `{"version":1,"lens":[1]} garbage`, false, true},
	{"two documents", `{"version":1,"lens":[1]}{"version":1,"lens":[1]}`, false, true},
}

// viaJSON is Decode without the scanner: the reference.
func viaJSON(data []byte) (*deposet.Deposet, control.Relation, error) {
	f, err := decodeJSON(data)
	if err != nil {
		return nil, nil, err
	}
	return f.build()
}

// outcome renders a Decode result for comparison: the error, or the
// deposet and relation as Encode writes them — which must be the bytes
// encoding/json writes.
func outcome(t testing.TB, d *deposet.Deposet, rel control.Relation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return string(checkEncodeMatchesJSON(t, d, rel))
}

// checkMatchesJSON holds one input to the scanner's contract: what it
// accepts, encoding/json accepts and reads to the same Raw and relation
// (nil-ness included), and Decode's outcome is the reference's either
// way. Whatever Decode accepts, Encode writes as encoding/json does. It
// reports whether the scanner accepted.
func checkMatchesJSON(t testing.TB, in string) bool {
	data := []byte(in)
	got, ok := scan(data)
	want, err := decodeJSON(data)
	if ok && err != nil {
		t.Fatalf("scanner accepted what encoding/json rejects (%v)", err)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner read %+v, encoding/json %+v", got, want)
	}
	refused := slices.ContainsFunc(want.raw.Lens, func(l int) bool { return l > deposet.MaxStates })
	if err == nil && !refused {
		// FromRaw allocates a clock row per state; keep fuzzed lens small
		// (past MaxStates it refuses them before allocating anything).
		states := 0
		for _, l := range want.raw.Lens {
			if l > 1<<12 {
				return ok
			}
			states += l
		}
		if len(want.raw.Lens)*states > 1<<16 {
			return ok
		}
	}
	d, rel, err := Decode(strings.NewReader(in))
	rd, rrel, rerr := viaJSON(data)
	if got, want := outcome(t, d, rel, err), outcome(t, rd, rrel, rerr); got != want {
		t.Fatalf("Decode gives\n%s\nencoding/json alone\n%s", got, want)
	}
	return ok
}

// TestDecodeCases checks, for every case, which decoder took it and
// that the outcome is the reference's and the recorded one.
func TestDecodeCases(t *testing.T) {
	cases := decodeCases
	for _, vars := range []bool{false, true} {
		for _, ctl := range []bool{false, true} {
			cases = append(cases, decodeCase{fmt.Sprintf("Encode vars=%v control=%v", vars, ctl), encoded(t, vars, ctl), true, false})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ok := checkMatchesJSON(t, c.in); ok != c.canonical {
				t.Errorf("scanner accepted = %v, want %v", ok, c.canonical)
			}
			if _, _, err := Decode(strings.NewReader(c.in)); (err != nil) != c.wantErr {
				t.Errorf("Decode error = %v, want error = %v", err, c.wantErr)
			}
		})
	}
}

// FuzzDecodeMatchesJSON is the differential test of the scanner, and of
// Encode on what Decode accepts, against encoding/json.
func FuzzDecodeMatchesJSON(f *testing.F) {
	for _, c := range decodeCases {
		f.Add(c.in)
	}
	for _, vars := range []bool{false, true} {
		f.Add(encoded(f, vars, vars))
	}
	f.Fuzz(func(t *testing.T, in string) { checkMatchesJSON(t, in) })
}

// lenReader announces a length that is not its input's.
type lenReader struct {
	io.Reader
	n int
}

func (r lenReader) Len() int { return r.n }

// TestDecodeReaders checks that the sized read takes exactly the unread
// input from every kind of reader, whatever size the reader announces.
func TestDecodeReaders(t *testing.T) {
	in := encoded(t, true, true)
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, []byte("junk"+in), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if _, err := file.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	readers := map[string]io.Reader{
		"bytes.Reader":        bytes.NewReader([]byte(in)),
		"strings.Reader":      strings.NewReader(in),
		"bytes.Buffer":        bytes.NewBufferString(in),
		"file from an offset": file,
		"no Len":              struct{ io.Reader }{strings.NewReader(in)},
		"one byte a Read":     iotest.OneByteReader(strings.NewReader(in)),
		"Len too short":       lenReader{strings.NewReader(in), 10},
		"Len too long":        lenReader{strings.NewReader(in), 10 * len(in)},
	}
	d, rel, err := viaJSON([]byte(in))
	want := outcome(t, d, rel, err)
	for name, r := range readers {
		d, rel, err := Decode(r)
		if got := outcome(t, d, rel, err); got != want {
			t.Errorf("%s: Decode gives\n%s\nwant\n%s", name, got, want)
		}
	}
	if _, _, err := Decode(iotest.ErrReader(io.ErrClosedPipe)); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("read error came back as %v", err)
	}
}

var sink any

// TestDecodeAllocBound pins what the scanner allocates: nothing per
// message or per field, and for variables one map per state and one
// string per distinct name.
func TestDecodeAllocBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scanAllocs := func(d *deposet.Deposet) float64 {
		var buf bytes.Buffer
		if err := Encode(&buf, d, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			f, ok := scan(buf.Bytes())
			if !ok {
				t.Fatal("scanner rejected Encode's output")
			}
			sink = f
		})
	}
	small := deposet.Random(r, deposet.DefaultGen(4, 2_000))
	large := deposet.Random(r, deposet.DefaultGen(4, 32_000))
	if len(large.Raw().Msgs) < 8*len(small.Raw().Msgs) {
		t.Fatal("the larger trace does not have the messages to show growth")
	}
	if a, b := scanAllocs(small), scanAllocs(large); b > a {
		t.Errorf("vars-free scan: %.0f allocs at %d messages, %.0f at %d", a, len(small.Raw().Msgs), b, len(large.Raw().Msgs))
	}

	names := []string{"cs", "x", "a-longer-name"}
	b := deposet.NewBuilder(4)
	const steps = 1_000
	for i := 0; i < steps; i++ {
		p := i % 4
		b.Let(p, names[i%len(names)], i)
		b.Step(p)
	}
	d := b.MustBuild()
	perMap := testing.AllocsPerRun(5, func() {
		m := map[string]int{}
		for i, name := range names {
			m[name] = i
		}
		sink = m
	})
	// Beside the maps and names: the name table, Lens, and the doublings
	// of four per-process rows and the row of rows.
	slack := 16.0 + 4*12
	if got, bound := scanAllocs(d), float64(d.NumStates())*perMap+float64(len(names))+slack; got > bound {
		t.Errorf("scan with vars: %.0f allocs for %d states, want at most %.0f (%.0f a map)", got, d.NumStates(), bound, perMap)
	}
}
