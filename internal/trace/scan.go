package trace

import (
	"bytes"
	"math"

	"predctl/internal/control"
	"predctl/internal/deposet"
)

// decoded is what either decoder hands to Decode: the File's content in
// the shapes FromRaw and Extend take. Nil-ness matters and both decoders
// agree on it: Lens and Vars (and each Vars[p]) are nil for an absent or
// null value and empty for `[]`, which FromRaw tells apart; Msgs and Rel
// are nil unless they hold an element.
type decoded struct {
	version int
	raw     deposet.Raw
	rel     control.Relation
}

// scanner reads the canonical subset of the File schema straight off the
// bytes, without reflection. The subset is what Encode writes and a
// little more: the five top-level keys spelled exactly, in any order and
// each at most once; msgs and control objects with their four integer
// fields, likewise; integers as an optional '-' and digits with no
// leading zero, fraction or exponent, in int range; variable names of
// unescaped printable ASCII, at most once per state; null where
// encoding/json treats it as "leave the zero value"; any JSON
// whitespace. Within that subset it produces exactly what the
// encoding/json path does. It does not report what is wrong with an
// input outside the subset: it fails, and the caller decodes the whole
// input with encoding/json, whose result or error stands.
//
// Failure is sticky: fail moves pos to the end of the input, where every
// read returns 0 and every loop stops, so only scan checks for it.
type scanner struct {
	data   []byte
	pos    int
	failed bool
	names  map[string]string // interned variable names
}

// scan decodes data if all of it is one canonical trace document.
func scan(data []byte) (decoded, bool) {
	s := scanner{data: data}
	var f decoded
	var seen uint
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		switch string(s.key()) {
		case "version":
			s.once(&seen, 0)
			f.version = s.integer()
		case "lens":
			s.once(&seen, 1)
			f.raw.Lens = list(&s, s.integer)
		case "msgs":
			s.once(&seen, 2)
			if !s.null() {
				s.expect('[')
				if n := s.objects(); n > 0 {
					f.raw.Msgs = make([]deposet.Message, 0, n)
				}
				for n := 0; s.more(n, ']'); n++ {
					v := s.quad("from_p", "send_event", "to_p", "recv_event")
					f.raw.Msgs = append(f.raw.Msgs, deposet.Message{FromP: v[0], SendEvent: v[1], ToP: v[2], RecvEvent: v[3]})
				}
			}
		case "vars":
			s.once(&seen, 3)
			f.raw.Vars = list(&s, s.states)
		case "control":
			s.once(&seen, 4)
			if !s.null() {
				s.expect('[')
				for n := 0; s.more(n, ']'); n++ {
					v := s.quad("from_p", "from_k", "to_p", "to_k")
					f.rel = append(f.rel, control.Edge{
						From: deposet.StateID{P: v[0], K: v[1]},
						To:   deposet.StateID{P: v[2], K: v[3]},
					})
				}
			}
		default:
			s.fail()
		}
	}
	s.space()
	if s.failed || s.pos != len(data) {
		return decoded{}, false
	}
	return f, true
}

func (s *scanner) fail() {
	s.failed = true
	s.pos = len(s.data)
}

// once fails on the second use of bit i of seen: a repeated key.
func (s *scanner) once(seen *uint, i int) {
	if *seen&(1<<i) != 0 {
		s.fail()
	}
	*seen |= 1 << i
}

func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\n', '\t', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the byte there, 0 at the end.
func (s *scanner) peek() byte {
	s.space()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.pos++
}

// more steps to the next element of an array or object closed by close,
// n elements in: it consumes the closer and reports false, or consumes
// the comma an element after the first must follow.
func (s *scanner) more(n int, close byte) bool {
	switch c := s.peek(); {
	case c == close:
		s.pos++
		return false
	case n == 0:
		return !s.failed
	case c == ',':
		s.pos++
		return true
	}
	s.fail()
	return false
}

// null consumes a null if one is next.
func (s *scanner) null() bool {
	if s.peek() != 'n' || string(s.data[s.pos:min(s.pos+4, len(s.data))]) != "null" {
		return false
	}
	s.pos += 4
	return true
}

// key reads an object key and its colon. The result aliases the input.
func (s *scanner) key() []byte {
	s.expect('"')
	start := s.pos
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c == '"' {
			k := s.data[start:s.pos]
			s.pos++
			s.expect(':')
			return k
		}
		if c < ' ' || c > '~' || c == '\\' {
			break
		}
		s.pos++
	}
	s.fail()
	return nil
}

// integer reads an int; null reads as 0, as encoding/json leaves a
// field it has not set before.
func (s *scanner) integer() int {
	if s.null() {
		return 0
	}
	neg := s.peek() == '-'
	if neg {
		s.pos++
	}
	start, limit := s.pos, uint64(math.MaxInt)
	if neg {
		limit++
	}
	var v uint64
	for s.pos < len(s.data) {
		c := s.data[s.pos] - '0'
		// The nineteenth digit is the first that can pass MaxInt64;
		// a twentieth would wrap v.
		if c > 9 || s.pos-start == 19 {
			break
		}
		v = v*10 + uint64(c)
		s.pos++
	}
	switch digits := s.pos - start; {
	case digits == 0, v > limit, digits > 1 && s.data[start] == '0':
		s.fail()
		return 0
	}
	// A fraction, exponent or further digit is not a delimiter, so the
	// caller's more fails on it.
	if neg {
		return int(-v)
	}
	return int(v)
}

// list reads an array of what elem reads: nil for null, empty for [].
func list[T any](s *scanner, elem func() T) []T {
	if s.null() {
		return nil
	}
	s.expect('[')
	out := []T{}
	for n := 0; s.more(n, ']'); n++ {
		out = append(out, elem())
	}
	return out
}

// objects counts the elements of the array of flat objects that pos is
// in: the braces opened before the next ']', which no canonical element
// contains. Sizing msgs by it spares append's regrowth, which allocated
// four times the final slice.
func (s *scanner) objects() int {
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{'{'})
}

// quad reads an object of up to four known integer fields; a null
// object, like an absent field, leaves zeros.
func (s *scanner) quad(k0, k1, k2, k3 string) (v [4]int) {
	if s.null() {
		return v
	}
	var seen uint
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		i := 0
		switch string(s.key()) {
		case k0:
		case k1:
			i = 1
		case k2:
			i = 2
		case k3:
			i = 3
		default:
			s.fail()
		}
		s.once(&seen, i)
		v[i] = s.integer()
	}
	return v
}

// states reads one process's snapshots.
func (s *scanner) states() []map[string]int { return list(s, s.state) }

// state reads one snapshot: nil for null.
func (s *scanner) state() map[string]int {
	if s.null() {
		return nil
	}
	m := map[string]int{}
	s.expect('{')
	for n := 0; s.more(n, '}'); n++ {
		name := s.intern(s.key())
		// encoding/json stores 0 for a null value and lets a repeated
		// name overwrite; neither is canonical.
		if _, dup := m[name]; dup || s.peek() == 'n' {
			s.fail()
		}
		m[name] = s.integer()
	}
	return m
}

// intern returns the one string for a name: a captured trace repeats a
// handful of names once per state.
func (s *scanner) intern(b []byte) string {
	if name, ok := s.names[string(b)]; ok {
		return name
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	name := string(b)
	s.names[name] = name
	return name
}
