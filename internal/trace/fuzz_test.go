package trace

import (
	"bytes"
	"strings"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// FuzzDecode ensures arbitrary input never panics the trace decoder and
// that anything it accepts round-trips.
func FuzzDecode(f *testing.F) {
	b := deposet.NewBuilder(2)
	b.Let(0, "x", 1)
	b.Transfer(0, 1)
	d := b.MustBuild()
	var buf bytes.Buffer
	if err := Encode(&buf, d, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1,"lens":[1]}`)
	f.Add(`{"version":1,"lens":[2,2],"msgs":[{"from_p":0,"send_event":1,"to_p":1,"recv_event":1}]}`)
	f.Add(`{`)
	f.Add(`{"version":1,"lens":[0]}`)
	f.Add(`{"version":1,"lens":[1]} garbage`)
	f.Add(`{"version":1,"lens":[1]}{"version":1,"lens":[1]}`)
	f.Add(`{"version":1,"lens":[9223372036854775807]}`)
	f.Add(`{"version":1,"lens":[4000000000,4000000000]}`)
	f.Fuzz(func(t *testing.T, s string) {
		d, rel, err := Decode(strings.NewReader(s))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, d, rel); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		if _, _, err := Decode(&out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzDecodeDisjunction ensures predicate files never panic, decode or
// build, and build only with valid ops, values and processes.
func FuzzDecodeDisjunction(f *testing.F) {
	f.Add(`{"locals":[{"p":0,"var":"x","op":"eq","value":1}]}`)
	f.Add(`{"locals":[{"p":9,"var":"x","op":"weird"}]}`)
	f.Add(`{"locals":null}`)
	f.Add(`{"local":[{"p":0,"var":"ok","op":"eq","value":1}]}`)
	f.Add(`{"locals":[{"p":0,"vr":"ok","op":"eq","value":1}]}`)
	f.Add(`{"locals":[]}{"locals":[]}`)
	f.Add(`{"locals":[]} garbage`)
	f.Add(`{"locals":[{"p":0,"var":"ok","op":"true","value":3}]}`)
	b := deposet.NewBuilder(3)
	b.Let(0, "ok", 1)
	b.Let(2, "x", 0)
	d := b.MustBuild()
	f.Fuzz(func(t *testing.T, s string) {
		locals, err := DecodeDisjunction(strings.NewReader(s))
		if err != nil {
			return
		}
		predicate.VarDisjunction(d, locals) // must not panic; errors are fine
	})
}
