package deposet

import "fmt"

// Raw is the fully explicit representation of a deposet, used by the trace
// serialization layer and by tools that construct computations directly.
type Raw struct {
	Lens []int
	Msgs []Message
	// Vars[p][k] gives the variable snapshot at state (p,k); nil if the
	// computation carries no variables.
	Vars [][]map[string]int
}

// Raw returns the explicit representation of d. The variable maps are
// materialized from the interned copy-on-write snapshots (states that
// share a snapshot share a map object); treat the result as read-only.
func (d *Deposet) Raw() Raw {
	r := Raw{
		Lens: append([]int(nil), d.lens...),
		Msgs: append([]Message(nil), d.msgs...),
	}
	if d.vars != nil {
		r.Vars = d.vars.maps(d.lens)
	}
	return r
}

// MaxStates is the most states (and so, at one state or more each, the
// most processes) FromRaw accepts: sixteen times the 10⁶-state runs the
// repository is sized against. Raw's counts come from a file, and every
// table FromRaw builds is sized by them before a single event is read.
const MaxStates = 1 << 24

// FromRaw validates r and builds a deposet from it. Unlike the Builder,
// raw input can describe invalid structures (double roles per event —
// violating constraint D3 — dangling receives, or cyclic causality) and
// sizes past MaxStates, all of which are rejected.
func FromRaw(r Raw) (*Deposet, error) {
	n := len(r.Lens)
	if n == 0 {
		return nil, fmt.Errorf("deposet: no processes")
	}
	states := 0
	for p, l := range r.Lens {
		if l < 1 {
			return nil, fmt.Errorf("deposet: process %d has %d states", p, l)
		}
		if l > MaxStates-states {
			return nil, fmt.Errorf("deposet: process %d has %d states on top of %d so far: over the limit of %d",
				p, l, states, MaxStates)
		}
		states += l
	}
	d := &Deposet{
		Order:   Order{lens: append([]int(nil), r.Lens...)},
		msgs:    append([]Message(nil), r.Msgs...),
		sendMsg: make([][]int32, n),
		recvMsg: make([][]int32, n),
	}
	for p := 0; p < n; p++ {
		d.sendMsg[p] = make([]int32, r.Lens[p])
		d.recvMsg[p] = make([]int32, r.Lens[p])
		for e := range d.sendMsg[p] {
			d.sendMsg[p][e] = -1
			d.recvMsg[p][e] = -1
		}
	}
	for i, m := range r.Msgs {
		if m.FromP < 0 || m.FromP >= n {
			return nil, fmt.Errorf("deposet: message %d: sender %d out of range", i, m.FromP)
		}
		if m.SendEvent < 1 || m.SendEvent >= r.Lens[m.FromP] {
			return nil, fmt.Errorf("deposet: message %d: send event %d out of range", i, m.SendEvent)
		}
		if d.sendMsg[m.FromP][m.SendEvent] != -1 || d.recvMsg[m.FromP][m.SendEvent] != -1 {
			return nil, fmt.Errorf("deposet: message %d: event (%d,%d) already has a role (D3)",
				i, m.FromP, m.SendEvent)
		}
		d.sendMsg[m.FromP][m.SendEvent] = int32(i)
		if !m.Received() {
			continue
		}
		if m.ToP >= n {
			return nil, fmt.Errorf("deposet: message %d: receiver %d out of range", i, m.ToP)
		}
		if m.RecvEvent < 1 || m.RecvEvent >= r.Lens[m.ToP] {
			return nil, fmt.Errorf("deposet: message %d: receive event %d out of range", i, m.RecvEvent)
		}
		if d.sendMsg[m.ToP][m.RecvEvent] != -1 || d.recvMsg[m.ToP][m.RecvEvent] != -1 {
			return nil, fmt.Errorf("deposet: message %d: event (%d,%d) already has a role (D3)",
				i, m.ToP, m.RecvEvent)
		}
		d.recvMsg[m.ToP][m.RecvEvent] = int32(i)
	}
	if err := d.computeClocks(); err != nil {
		return nil, err
	}
	if r.Vars != nil {
		if len(r.Vars) != n {
			return nil, fmt.Errorf("deposet: vars for %d processes, want %d", len(r.Vars), n)
		}
		for p := 0; p < n; p++ {
			if r.Vars[p] != nil && len(r.Vars[p]) != r.Lens[p] {
				return nil, fmt.Errorf("deposet: process %d has %d var snapshots, want %d",
					p, len(r.Vars[p]), r.Lens[p])
			}
		}
		d.vars = varTableFromMaps(r.Vars, r.Lens)
	}
	return d, nil
}
