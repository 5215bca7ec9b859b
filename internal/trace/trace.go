// Package trace serializes computations, control relations and
// predicate files (lists of predicate.VarLocal; their meaning is package
// predicate's) to JSON, for the command-line tools: a trace captured from
// one run (or another system) can be analyzed, controlled and replayed.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

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

// disjunctionFile is a predicate file: B = l1 ∨ … ∨ ln over state
// variables, one variable local each.
type disjunctionFile struct {
	Locals []predicate.VarLocal `json:"locals"`
}

// DecodeDisjunction reads a predicate file's locals: one JSON document,
// with nothing but whitespace after it and no field or op the file has no
// place for (a misspelt "locals" would otherwise read as B = false).
func DecodeDisjunction(r io.Reader) ([]predicate.VarLocal, error) {
	var f disjunctionFile
	data, err := io.ReadAll(r)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = decodeOne(dec, data, &f)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: predicate: %w", err)
	}
	return f.Locals, nil
}

// EncodeDisjunction writes the predicate file of B = l1 ∨ … ∨ ln.
func EncodeDisjunction(w io.Writer, locals []predicate.VarLocal) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(disjunctionFile{locals})
}
