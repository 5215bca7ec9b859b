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

// TestPredicateSpec: a predicate file reads back as the locals written,
// and they mean what they say on a computation.
func TestPredicateSpec(t *testing.T) {
	locals := []predicate.VarLocal{
		{P: 0, Var: "cs", Op: predicate.Eq, Value: 0},
		{P: 1, Var: "cs", Op: predicate.False},
	}
	var buf bytes.Buffer
	if err := EncodeDisjunction(&buf, locals); err != nil {
		t.Fatal(err)
	}
	locals2, err := DecodeDisjunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := deposet.NewBuilder(2)
	b.Let(0, "cs", 0)
	b.Let(1, "cs", 1)
	b.Step(0)
	b.Let(0, "cs", 1)
	d := b.MustBuild()
	dj, err := predicate.VarDisjunction(d, locals2)
	if err != nil {
		t.Fatal(err)
	}
	if !dj.Holds(d, 0, 0) || dj.Holds(d, 0, 1) || dj.Holds(d, 1, 0) {
		t.Fatal("compiled predicate wrong")
	}
	if got, want := dj.String(), "cs eq 0@P0 ∨ cs false 0@P1"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestPredicateSpecStrict checks that a typo in a predicate file, or a
// file written twice, is an error naming the field, the op or the
// offset, not an empty predicate.
func TestPredicateSpecStrict(t *testing.T) {
	local := `{"p":0,"var":"ok","op":"eq","value":1}`
	cases := map[string]string{
		`{"local":[` + local + `]}`:                    `"local"`,
		`{"locals":[{"p":0,"vr":"ok","op":"eq"}]}`:     `"vr"`,
		`{"locals":[{"p":0,"var":"ok","op":"weird"}]}`: `unknown op "weird"`,
		`{"locals":[{"p":0,"var":"ok","op":1}]}`:       "op",
		`{"locals":[` + local + `]}{"locals":[]}`:      "offset 51",
		`{"locals":[` + local + `]}` + "\n garbage\n":  "offset 53",
		`{`: "unexpected EOF",
	}
	for in, want := range cases {
		if _, err := DecodeDisjunction(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", in, err, want)
		}
	}
	locals, err := DecodeDisjunction(strings.NewReader(`{"locals":[` + local + `]}` + "\n"))
	if err != nil || len(locals) != 1 {
		t.Errorf("one document and a newline: %+v, %v", locals, err)
	}
}
