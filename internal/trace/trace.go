// Package trace serializes computations, control relations and
// variable-based predicates to JSON, for the command-line tools: a trace
// captured from one run (or another system) can be analyzed, controlled
// and replayed offline.
package trace

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// Version is the current trace file format version.
const Version = 1

// File is the on-disk representation.
type File struct {
	Version int                `json:"version"`
	Lens    []int              `json:"lens"`
	Msgs    []Message          `json:"msgs,omitempty"`
	Vars    [][]map[string]int `json:"vars,omitempty"`
	Control []Edge             `json:"control,omitempty"`
}

// Message mirrors deposet.Message.
type Message struct {
	FromP     int `json:"from_p"`
	SendEvent int `json:"send_event"`
	ToP       int `json:"to_p"`
	RecvEvent int `json:"recv_event,omitempty"`
}

// Edge mirrors control.Edge.
type Edge struct {
	FromP int `json:"from_p"`
	FromK int `json:"from_k"`
	ToP   int `json:"to_p"`
	ToK   int `json:"to_k"`
}

// Decode reads a trace file back into a computation and control
// relation. It reads r to its end: the file is one JSON document, and
// anything but whitespace after it is an error. A document in the
// canonical subset (see scanner) is decoded by the scanner; any other is
// decoded by encoding/json, to the same result.
func Decode(r io.Reader) (*deposet.Deposet, control.Relation, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: %w", err)
	}
	f, ok := scan(data)
	if !ok {
		if f, err = decodeJSON(data); err != nil {
			return nil, nil, err
		}
	}
	return f.build()
}

// readInput reads all of r, into a buffer of exactly the input's size
// where r can tell it: the input is megabytes, and io.ReadAll's doubling
// allocates several times that.
func readInput(r io.Reader) ([]byte, error) {
	var size int64
	switch r := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader: the unread part
		size = int64(r.Len())
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	if size <= 0 || size != int64(int(size)) {
		return io.ReadAll(r)
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:n], nil // shorter than announced: a file read from the middle
	}
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r) // longer than announced: a file still being written
	return append(buf, rest...), err
}

// decodeJSON is the reference decoder: encoding/json into File, then
// the same shapes the scanner builds.
func decodeJSON(data []byte) (decoded, error) {
	var f File
	if err := decodeOne(json.NewDecoder(bytes.NewReader(data)), data, &f); err != nil {
		return decoded{}, fmt.Errorf("trace: %w", err)
	}
	out := decoded{version: f.Version, raw: deposet.Raw{Lens: f.Lens, Vars: f.Vars}}
	for _, m := range f.Msgs {
		out.raw.Msgs = append(out.raw.Msgs, deposet.Message{
			FromP: m.FromP, SendEvent: m.SendEvent, ToP: m.ToP, RecvEvent: m.RecvEvent,
		})
	}
	for _, e := range f.Control {
		out.rel = append(out.rel, control.Edge{
			From: deposet.StateID{P: e.FromP, K: e.FromK},
			To:   deposet.StateID{P: e.ToP, K: e.ToK},
		})
	}
	return out, nil
}

// decodeOne decodes into v, with dec, the document data holds: anything
// but whitespace after it is an error naming the offset.
func decodeOne(dec *json.Decoder, data []byte, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := int(dec.InputOffset())
	if rest := bytes.TrimLeft(data[end:], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("unexpected %q after the document, at offset %d", rest[0], len(data)-len(rest))
	}
	return nil
}

// build validates what a decoder read.
func (f decoded) build() (*deposet.Deposet, control.Relation, error) {
	if f.version != Version {
		return nil, nil, fmt.Errorf("trace: unsupported version %d", f.version)
	}
	d, err := deposet.FromRaw(f.raw)
	if err != nil {
		return nil, nil, err
	}
	if f.rel != nil {
		if err := control.Check(d, f.rel); err != nil {
			return nil, nil, err
		}
	}
	return d, f.rel, nil
}

// LocalSpec describes one variable-based local predicate.
type LocalSpec struct {
	P     int    `json:"p"`
	Var   string `json:"var"`
	Op    string `json:"op"` // eq ne lt le gt ge true false
	Value int    `json:"value,omitempty"`
}

// DisjunctionSpec describes B = l1 ∨ … ∨ ln over state variables.
type DisjunctionSpec struct {
	Locals []LocalSpec `json:"locals"`
}

// DecodeDisjunction reads a predicate spec: one JSON document, with
// nothing but whitespace after it and no field the spec has no place for
// (a misspelt "locals" would otherwise read as B = false).
func DecodeDisjunction(r io.Reader) (DisjunctionSpec, error) {
	var s DisjunctionSpec
	data, err := io.ReadAll(r)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = decodeOne(dec, data, &s)
	}
	if err != nil {
		return DisjunctionSpec{}, fmt.Errorf("trace: predicate: %w", err)
	}
	return s, nil
}

// EncodeDisjunction writes a predicate spec.
func EncodeDisjunction(w io.Writer, s DisjunctionSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// Compile turns the spec into an evaluatable disjunction over d's
// processes. A spec is bytes from disk: a local naming a process outside
// d, a second local for one process, or a variable set on no state of
// its process (a misspelt name would otherwise read as false
// everywhere) is an error naming the process.
func (s DisjunctionSpec) Compile(d *deposet.Deposet) (*predicate.Disjunction, error) {
	n := d.NumProcs()
	dj := predicate.NewDisjunction(n)
	for _, l := range s.Locals {
		holds, err := compare(l.Op)
		if err != nil {
			return nil, err
		}
		if l.P >= 0 && l.P < n && !slices.Contains(varsSet(d, l.P), l.Var) {
			return nil, fmt.Errorf("trace: predicate spec: variable %q is not set on process %d (set: %s)",
				l.Var, l.P, cmp.Or(strings.Join(varsSet(d, l.P), ", "), "none"))
		}
		name := fmt.Sprintf("%s %s %d", l.Var, l.Op, l.Value)
		err = dj.Set(l.P, name, func(d *deposet.Deposet, k int) bool {
			v, ok := d.Var(deposet.StateID{P: l.P, K: k}, l.Var)
			return ok && holds(v, l.Value)
		})
		if err != nil {
			return nil, fmt.Errorf("trace: predicate spec: %w", err)
		}
	}
	return dj, nil
}

// varsSet lists, sorted, the variables set on some state of process p.
func varsSet(d *deposet.Deposet, p int) (set []string) {
	for k := range d.Len(p) {
		names, _, on := d.VarsAt(deposet.StateID{P: p, K: k})
		for i, ok := range on {
			if ok && !slices.Contains(set, names[i]) {
				set = append(set, names[i])
			}
		}
	}
	slices.Sort(set)
	return set
}

func compare(op string) (func(a, b int) bool, error) {
	switch op {
	case "eq":
		return func(a, b int) bool { return a == b }, nil
	case "ne":
		return func(a, b int) bool { return a != b }, nil
	case "lt":
		return func(a, b int) bool { return a < b }, nil
	case "le":
		return func(a, b int) bool { return a <= b }, nil
	case "gt":
		return func(a, b int) bool { return a > b }, nil
	case "ge":
		return func(a, b int) bool { return a >= b }, nil
	case "true":
		return func(a, _ int) bool { return a != 0 }, nil
	case "false":
		return func(a, _ int) bool { return a == 0 }, nil
	}
	return nil, fmt.Errorf("trace: unknown op %q", op)
}
