package trace

import (
	"encoding/json"
	"io"
	"strconv"

	"predctl/internal/control"
	"predctl/internal/deposet"
)

const (
	chunk   = 64 << 10 // Encode's buffer, handed to w each time it fills
	indents = "\n    " // the newline and indent of every depth a trace file has
)

// The quoted keys of a message's and a control edge's fields.
var (
	msgKeys  = [4]string{`"from_p": `, `"send_event": `, `"to_p": `, `"recv_event": `}
	edgeKeys = [4]string{`"from_p": `, `"from_k": `, `"to_p": `, `"to_k": `}
)

// Encode writes d (and an optional control relation) as JSON: exactly
// the bytes encoding/json writes for the File indented by one space (the
// tests' reference), a chunk at a time. It returns w's first error.
func Encode(w io.Writer, d *deposet.Deposet, rel control.Relation) error {
	e := encoder{w: w, buf: make([]byte, 0, chunk)}
	e.buf = append(e.buf, "{\n \"version\": "...)
	e.integer(Version)
	e.buf = append(e.buf, ",\n \"lens\": ["...)
	for p := 0; p < d.NumProcs(); p++ {
		e.elem(p, 2)
		e.integer(d.Len(p))
	}
	e.end(d.NumProcs(), 1, ']')
	if msgs := d.Messages(); len(msgs) > 0 {
		e.buf = append(e.buf, ",\n \"msgs\": ["...)
		for i, m := range msgs {
			fields := 4
			if m.RecvEvent == 0 {
				fields = 3 // omitempty
			}
			e.object(i, &msgKeys, [4]int{m.FromP, m.SendEvent, m.ToP, m.RecvEvent}, fields)
		}
		e.end(len(msgs), 1, ']')
	}
	if d.HasVars() {
		e.vars(d)
	}
	if len(rel) > 0 {
		e.buf = append(e.buf, ",\n \"control\": ["...)
		for i, c := range rel {
			e.object(i, &edgeKeys, [4]int{c.From.P, c.From.K, c.To.P, c.To.K}, 4)
		}
		e.end(len(rel), 1, ']')
	}
	e.buf = append(e.buf, "\n}\n"...)
	e.flush()
	return e.err
}

// encoder appends the document to buf, handing buf to w when it fills.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) integer(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// elem starts element i of an array or object whose elements sit at
// depth, flushing first when the chunk is within an element of full.
func (e *encoder) elem(i, depth int) {
	if len(e.buf) > chunk-128 {
		e.flush()
	}
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, indents[:1+depth]...)
}

// end closes with c an array or object at depth holding n elements.
func (e *encoder) end(n, depth int, c byte) {
	if n > 0 {
		e.buf = append(e.buf, indents[:1+depth]...)
	}
	e.buf = append(e.buf, c)
}

// object writes element i of msgs or control: its first n fields.
func (e *encoder) object(i int, keys *[4]string, v [4]int, n int) {
	e.elem(i, 2)
	e.buf = append(e.buf, '{')
	for f := 0; f < n; f++ {
		e.elem(f, 3)
		e.buf = append(e.buf, keys[f]...)
		e.integer(v[f])
	}
	e.end(n, 2, '}')
}

// vars writes each state's variables in name order: the deposet's slot
// order, and the order encoding/json sorts a map's keys in. Each name is
// quoted once, by encoding/json, so its escaping is encoding/json's.
func (e *encoder) vars(d *deposet.Deposet) {
	names, _, _ := d.VarsAt(deposet.StateID{})
	keys := make([][]byte, len(names))
	for i, name := range names {
		q, _ := json.Marshal(name) // a string always marshals
		keys[i] = append(q, ": "...)
	}
	e.buf = append(e.buf, ",\n \"vars\": ["...)
	for p := 0; p < d.NumProcs(); p++ {
		e.elem(p, 2)
		e.buf = append(e.buf, '[')
		for k := 0; k < d.Len(p); k++ {
			e.elem(k, 3)
			e.buf = append(e.buf, '{')
			_, vals, set := d.VarsAt(deposet.StateID{P: p, K: k})
			j := 0
			for slot, ok := range set {
				if ok {
					e.elem(j, 4)
					e.buf = append(e.buf, keys[slot]...)
					e.integer(vals[slot])
					j++
				}
			}
			e.end(j, 3, '}')
		}
		e.end(d.Len(p), 2, ']')
	}
	e.end(d.NumProcs(), 1, ']')
}
