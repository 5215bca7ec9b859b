package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
)

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		d := deposet.Random(r, deposet.DefaultGen(3, 12))
		dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.6))
		res, err := offline.Control(d, dj, offline.Options{})
		var rel control.Relation
		if err == nil {
			rel = res.Relation
		}
		var buf bytes.Buffer
		if err := Encode(&buf, d, rel); err != nil {
			t.Fatal(err)
		}
		d2, rel2, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if d2.NumProcs() != d.NumProcs() || d2.NumStates() != d.NumStates() {
			t.Fatal("shape mismatch")
		}
		if len(rel2) != len(rel) {
			t.Fatalf("control mismatch: %d vs %d", len(rel2), len(rel))
		}
		for i := range rel {
			if rel[i] != rel2[i] {
				t.Fatal("control edge mismatch")
			}
		}
		for p := 0; p < d.NumProcs(); p++ {
			for k := 0; k < d.Len(p); k++ {
				for q := 0; q < d.NumProcs(); q++ {
					for j := 0; j < d.Len(q); j++ {
						s, u := deposet.StateID{P: p, K: k}, deposet.StateID{P: q, K: j}
						if d.HB(s, u) != d2.HB(s, u) {
							t.Fatalf("HB mismatch at %v→%v", s, u)
						}
					}
				}
			}
		}
	}
}

func TestRoundTripVars(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "x", 7)
	b.Step(0)
	b.Let(0, "x", 9)
	b.Step(1)
	d := b.MustBuild()
	var buf bytes.Buffer
	if err := Encode(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := d2.Var(deposet.StateID{P: 0, K: 1}, "x")
	if !ok || v != 9 {
		t.Fatalf("x = %d,%v", v, ok)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []string{
		`{`,                         // malformed
		`{"version":99,"lens":[1]}`, // version
		`{"version":1,"lens":[0]}`,  // invalid deposet
		`{"version":1,"lens":[2,2],"control":[{"from_p":0,"from_k":1,"to_p":1,"to_k":0}]}`, // D1
		`{"version":1,"lens":[1]} garbage`,                                                 // bytes after the document
		`{"version":1,"lens":[1]}{"version":1,"lens":[1]}`,                                 // a file written twice
	}
	for _, c := range cases {
		if _, _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestPredicateSpec(t *testing.T) {
	spec := DisjunctionSpec{Locals: []LocalSpec{
		{P: 0, Var: "cs", Op: "eq", Value: 0},
		{P: 1, Var: "cs", Op: "false"},
	}}
	var buf bytes.Buffer
	if err := EncodeDisjunction(&buf, spec); err != nil {
		t.Fatal(err)
	}
	spec2, err := DecodeDisjunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := deposet.NewBuilder(2)
	b.Let(0, "cs", 0)
	b.Let(1, "cs", 1)
	b.Step(0)
	b.Let(0, "cs", 1)
	d := b.MustBuild()
	dj, err := spec2.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if !dj.Holds(d, 0, 0) || dj.Holds(d, 0, 1) || dj.Holds(d, 1, 0) {
		t.Fatal("compiled predicate wrong")
	}
}

func TestPredicateSpecErrors(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "ok", 1)
	b.Let(1, "x", 0)
	b.Let(1, "y", 0)
	d := b.MustBuild()
	if _, err := (DisjunctionSpec{Locals: []LocalSpec{{P: 5}}}).Compile(d); err == nil {
		t.Error("bad process accepted")
	}
	if _, err := (DisjunctionSpec{Locals: []LocalSpec{{P: 0, Var: "ok", Op: "weird"}}}).Compile(d); err == nil {
		t.Error("bad op accepted")
	}
	// Two locals for one process: an error naming it, not Add's panic.
	twice := DisjunctionSpec{Locals: []LocalSpec{{P: 1, Var: "x", Op: "true"}, {P: 1, Var: "y", Op: "true"}}}
	if _, err := twice.Compile(d); err == nil || !strings.Contains(err.Error(), "process 1") {
		t.Errorf("two locals on process 1: error %v, want one naming the process", err)
	}
	if _, err := DecodeDisjunction(strings.NewReader("{")); err == nil {
		t.Error("malformed predicate accepted")
	}
}

// TestPredicateSpecUnsetVariable: a local naming a variable its process
// never sets — a misspelling — is refused with the names it does set,
// instead of reading as false at every state; so is every local on a
// trace with no variables.
func TestPredicateSpecUnsetVariable(t *testing.T) {
	b := deposet.NewBuilder(2)
	b.Let(0, "ok", 1)
	b.Let(0, "cs", 0)
	b.Let(1, "ok", 0)
	d := b.MustBuild()
	typo := DisjunctionSpec{Locals: []LocalSpec{{P: 0, Var: "okk", Op: "eq", Value: 1}}}
	_, err := typo.Compile(d)
	if want := `variable "okk" is not set on process 0 (set: cs, ok)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("misspelt variable: error %v, want one containing %q", err, want)
	}
	other := DisjunctionSpec{Locals: []LocalSpec{{P: 1, Var: "cs", Op: "eq"}}}
	if _, err := other.Compile(d); err == nil || !strings.Contains(err.Error(), "(set: ok)") {
		t.Errorf("a variable set only on another process: error %v", err)
	}
	bare := deposet.NewBuilder(2)
	bare.Step(0)
	_, err = typo.Compile(bare.MustBuild())
	if want := `variable "okk" is not set on process 0 (set: none)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a trace with no variables: error %v, want one containing %q", err, want)
	}
}

// TestPredicateSpecStrict checks that a typo in a predicate file, or a
// file written twice, is an error naming the field or the offset, not an
// empty predicate.
func TestPredicateSpecStrict(t *testing.T) {
	local := `{"p":0,"var":"ok","op":"eq","value":1}`
	cases := map[string]string{
		`{"local":[` + local + `]}`:                   `"local"`,
		`{"locals":[{"p":0,"vr":"ok","op":"eq"}]}`:    `"vr"`,
		`{"locals":[` + local + `]}{"locals":[]}`:     "offset 51",
		`{"locals":[` + local + `]}` + "\n garbage\n": "offset 53",
	}
	for in, want := range cases {
		if _, err := DecodeDisjunction(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", in, err, want)
		}
	}
	spec, err := DecodeDisjunction(strings.NewReader(`{"locals":[` + local + `]}` + "\n"))
	if err != nil || len(spec.Locals) != 1 {
		t.Errorf("one document and a newline: %+v, %v", spec, err)
	}
}

func TestCompareOps(t *testing.T) {
	cases := map[string][3]bool{ // results for (1,2), (2,2), (3,2)
		"eq": {false, true, false},
		"ne": {true, false, true},
		"lt": {true, false, false},
		"le": {true, true, false},
		"gt": {false, false, true},
		"ge": {false, true, true},
	}
	for op, want := range cases {
		f, err := compare(op)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range []int{1, 2, 3} {
			if f(a, 2) != want[i] {
				t.Errorf("%s(%d,2) = %v", op, a, f(a, 2))
			}
		}
	}
	tr, _ := compare("true")
	fa, _ := compare("false")
	if !tr(5, 0) || tr(0, 0) || !fa(0, 0) || fa(5, 0) {
		t.Error("true/false ops wrong")
	}
}
