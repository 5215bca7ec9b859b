// Package deposet implements the computation model of Tarafdar & Garg,
// "Predicate Control for Active Debugging of Distributed Programs"
// (IPPS 1998): the decomposed partially-ordered set (deposet).
//
// A deposet records a distributed computation of n sequential processes.
// Process p executes a sequence of local states indexed 0..len(p)-1, where
// state 0 is the initial state ⊥p and the last state is the final state ⊤p.
// Event k (1-based) takes state k-1 to state k and is a local event, a
// message send, or a message receive (never both: constraint D3). Messages
// induce the remote-precedence relation: if the event after state s sends a
// message received by the event before state t, then s ⇝ t. Causal
// precedence → is the transitive closure of the local order and ⇝.
//
// The package computes vector clocks over states so that the → test is
// O(1), and provides consistent global states, the lattice of consistent
// cuts, global sequences, and false-interval extraction — everything the
// predicate-detection and predicate-control algorithms consume.
//
// A Builder clocks each state, and records its variables, as it is
// appended, so Build is a snapshot, cheap to repeat as a computation
// grows: the deposet shares the builder's append-only tables and is
// immutable. FromRaw, whose messages come in any order, clocks in a
// causal sweep with the same clock step.
package deposet

import (
	"errors"
	"fmt"
	"slices"
)

// StateID identifies a local state: process P, state index K (0 = ⊥).
type StateID struct {
	P int
	K int
}

func (s StateID) String() string { return fmt.Sprintf("(%d,%d)", s.P, s.K) }

// Message records one application message. SendEvent and RecvEvent are
// 1-based event indices on the sending and receiving processes. A message
// that was sent but never received (still in flight when the computation
// ended) has ToP == -1 and RecvEvent == 0; it contributes no causality.
type Message struct {
	FromP     int
	SendEvent int
	ToP       int
	RecvEvent int
}

// Received reports whether the message has a receive event.
func (m Message) Received() bool { return m.ToP >= 0 }

func (m Message) String() string {
	if !m.Received() {
		return fmt.Sprintf("P%d.e%d→(in flight)", m.FromP, m.SendEvent)
	}
	return fmt.Sprintf("P%d.e%d→P%d.e%d", m.FromP, m.SendEvent, m.ToP, m.RecvEvent)
}

// View is the read-only causal structure shared by plain computations
// (*Deposet) and controlled computations (control.Extended): enough to
// run the detection algorithms on either.
type View interface {
	NumProcs() int
	Len(p int) int
	HB(s, t StateID) bool
}

// Deposet is an immutable distributed computation. Construct one with a
// Builder or FromRaw; the zero value is not usable. A built deposet
// shares the builder's tables, which the builder only appends past.
type Deposet struct {
	Order // causal precedence →: local order plus the messages' ⇝

	msgs []Message // all messages, in send order

	// sendMsg[p][e] / recvMsg[p][e] give the id of the message of event e
	// of process p (1-based; index 0 unused), or -1: its index in msgs,
	// or renum's entry for it where renum is not nil.
	sendMsg [][]int32
	recvMsg [][]int32
	renum   []int32

	// vars holds the interned, copy-on-write variable snapshots; nil when
	// the computation carries no variables.
	vars *varTable
}

// Messages returns the message list. The caller must not modify it.
func (d *Deposet) Messages() []Message { return d.msgs }

// SendAt returns the index into Messages of the message sent by event e of
// process p, or -1.
func (d *Deposet) SendAt(p, e int) int { return d.msgIndex(d.sendMsg[p][e]) }

// RecvAt returns the index into Messages of the message received by event
// e of process p, or -1.
func (d *Deposet) RecvAt(p, e int) int { return d.msgIndex(d.recvMsg[p][e]) }

func (d *Deposet) msgIndex(id int32) int {
	if id >= 0 && d.renum != nil {
		return int(d.renum[id])
	}
	return int(id)
}

// Var returns the value of a state variable at s, if the computation
// carries variables and the variable is set there.
func (d *Deposet) Var(s StateID, name string) (int, bool) {
	if d.vars == nil {
		return 0, false
	}
	return d.vars.lookup(s.P, s.K, name)
}

// HasVars reports whether the computation carries state variables.
func (d *Deposet) HasVars() bool { return d.vars != nil }

// VarsAt returns the variables at s by slot: names is every variable in
// sorted order, the same at every state, and vals[i] is names[i]'s value
// where set[i]. vals and set are nil where no variable is set, all three
// without variables. The caller must not modify them.
func (d *Deposet) VarsAt(s StateID) (names []string, vals []int, set []bool) {
	if d.vars == nil {
		return nil, nil, nil
	}
	vals, set = d.vars.snapshot(d.vars.at(s.P, s.K))
	return d.vars.names, vals, set
}

// A Builder assembles a deposet event by event, clocking each state and
// recording its variables as it is appended (Recv takes the handle of an
// earlier Send, so call order is causal). All methods panic on
// out-of-range process indices; semantic errors (double receive, receive
// of an unsent message) are reported by Build.
type Builder struct {
	ord     Order // the states so far, clocked
	msgs    []msgRow
	sendMsg [][]int32 // as in Deposet, by message handle
	recvMsg [][]int32
	vars    *varTable // a row runs to the top state
	// own[p]: p's top snapshot is neither the state below's nor published
	// by a Build, so a Let may write it in place.
	own []bool
	err error
}

// msgRow is a Message as the builder keeps it, in half the width.
type msgRow struct{ fromP, sendEvent, toP, recvEvent int32 }

// NewBuilder starts a computation of n processes, each at its initial
// state ⊥ (one state, no events).
func NewBuilder(n int) *Builder {
	if n < 1 {
		panic("deposet: need at least one process")
	}
	b := &Builder{
		ord:     newOrder(slices.Repeat([]int{1}, n), n),
		sendMsg: make([][]int32, n),
		recvMsg: make([][]int32, n),
		vars:    &varTable{snap: make([][]int32, n)},
		own:     make([]bool, n),
	}
	for p := 0; p < n; p++ {
		b.sendMsg[p] = []int32{-1} // event index 0 unused
		b.recvMsg[p] = []int32{-1}
	}
	return b
}

func (b *Builder) checkProc(p int) {
	if p < 0 || p >= len(b.ord.lens) {
		panic(fmt.Sprintf("deposet: process %d out of range [0,%d)", p, len(b.ord.lens)))
	}
}

// Reserve sizes the builder for events[p] further events on each
// process p, sends of them sends in all: replaying a capture of known
// length then regrows nothing. A table that must grow at least
// doubles, so a computation reserved a slice at a time regrows each
// table a logarithmic number of times. It changes no behaviour.
func (b *Builder) Reserve(events []int, sends int) {
	for p, k := range events {
		b.sendMsg[p] = reserve(b.sendMsg[p], k)
		b.recvMsg[p] = reserve(b.recvMsg[p], k)
		b.ord.anchor[p] = reserve(b.ord.anchor[p], k)
		if b.vars.snap[p] != nil {
			b.vars.snap[p] = reserve(b.vars.snap[p], k)
		}
	}
	b.msgs = reserve(b.msgs, sends)
	b.ord.rows = reserve(b.ord.rows, sends*len(b.ord.lens)) // a row per receive
}

// reserve makes room in s for k more elements, at least doubling its
// capacity when it must grow.
func reserve[E any](s []E, k int) []E {
	if cap(s)-len(s) >= k {
		return s
	}
	return slices.Grow(s, max(k, cap(s)))
}

// addEvent appends an event to p, sending message send or receiving
// message recv (-1: neither), and clocks the state it enters.
func (b *Builder) addEvent(p, send, recv int) StateID {
	from := StateID{P: -1}
	if recv >= 0 {
		m := b.msgs[recv]
		from = StateID{int(m.fromP), int(m.sendEvent) - 1}
	}
	b.ord.enter(p, from)
	b.ord.lens[p]++
	b.sendMsg[p] = append(b.sendMsg[p], int32(send))
	b.recvMsg[p] = append(b.recvMsg[p], int32(recv))
	if t := b.vars; t.snap[p] != nil {
		t.snap[p] = append(t.snap[p], t.snap[p][len(t.snap[p])-1])
		b.own[p] = false
	}
	return StateID{p, b.ord.lens[p] - 1}
}

// Step appends a local event to process p and returns the new state.
func (b *Builder) Step(p int) StateID {
	b.checkProc(p)
	return b.addEvent(p, -1, -1)
}

// MsgHandle names a message created by Send, to be passed to Recv.
type MsgHandle int

// Send appends a send event to process p and returns a handle for the
// message, which must later be delivered with Recv (or left in flight).
func (b *Builder) Send(p int) (StateID, MsgHandle) {
	b.checkProc(p)
	id := len(b.msgs)
	b.msgs = append(b.msgs, msgRow{fromP: int32(p), sendEvent: int32(b.ord.lens[p]), toP: -1})
	s := b.addEvent(p, id, -1)
	return s, MsgHandle(id)
}

// Recv appends a receive event for message h to process p and returns the
// new state.
func (b *Builder) Recv(p int, h MsgHandle) StateID {
	b.checkProc(p)
	id := int(h)
	switch {
	case id < 0 || id >= len(b.msgs):
		b.fail(fmt.Errorf("deposet: receive of unknown message %d", id))
	case b.msgs[id].toP >= 0:
		b.fail(fmt.Errorf("deposet: message %d received twice", id))
	case int(b.msgs[id].fromP) == p:
		// Self-messages are legal in the model (s ⇝ t within a process)
		// but pointless; allow them.
	}
	if b.err != nil {
		return b.addEvent(p, -1, -1) // Build fails, so no clock matters
	}
	s := b.addEvent(p, -1, id)
	b.msgs[id].toP = int32(p)
	b.msgs[id].recvEvent = int32(s.K)
	return s
}

// Transfer is Send on p immediately followed by Recv on q: a convenience
// for the common "message from p's current point to q's current point"
// shape used in examples and tests.
func (b *Builder) Transfer(p, q int) (send, recv StateID) {
	s, h := b.Send(p)
	t := b.Recv(q, h)
	return s, t
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build returns the computation appended so far, or the first error
// met. It is cheap to repeat as the computation grows: the deposet
// shares the builder's clocks, event tables and snapshots, each
// capacity-capped so later appends never show through, and copies only
// the message table and a few words per process. Messages are numbered
// in the order Send was called.
func (b *Builder) Build() (*Deposet, error) { return b.build(false) }

// BuildBySender is Build with the messages numbered by sender, then
// send event, rather than in the order Send was called: builders fed
// one computation in different interleavings of its processes build
// the same deposet, numbering included.
func (b *Builder) BuildBySender() (*Deposet, error) { return b.build(true) }

func (b *Builder) build(bySender bool) (*Deposet, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.ord.lens)
	d := &Deposet{
		Order:   b.ord.snapshot(),
		msgs:    make([]Message, len(b.msgs)),
		sendMsg: make([][]int32, n),
		recvMsg: make([][]int32, n),
	}
	if bySender {
		// A sender's sends are called in event order, so counting per
		// sender places each.
		next := make([]int32, n)
		for _, m := range b.msgs {
			next[m.fromP]++
		}
		at := int32(0)
		for p, k := range next {
			next[p], at = at, at+k
		}
		d.renum = make([]int32, len(b.msgs))
		for i, m := range b.msgs {
			d.renum[i] = next[m.fromP]
			next[m.fromP]++
		}
	}
	for i, m := range b.msgs {
		d.msgs[d.msgIndex(int32(i))] = Message{FromP: int(m.fromP), SendEvent: int(m.sendEvent), ToP: int(m.toP), RecvEvent: int(m.recvEvent)}
	}
	for p := range n {
		d.sendMsg[p] = slices.Clip(b.sendMsg[p])
		d.recvMsg[p] = slices.Clip(b.recvMsg[p])
	}
	if len(b.vars.names) > 0 {
		d.vars = b.publishVars()
	}
	return d, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Deposet {
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// ErrCyclic is returned when the message pattern makes causal precedence
// cyclic (the structure is not a valid deposet).
var ErrCyclic = errors.New("deposet: causal precedence is cyclic")

// computeClocks clocks FromRaw's deposet with the Builder's clock step,
// entering the states in a causality-respecting order; it fails with
// ErrCyclic if none exists. The rows (one per ⊥ and per receive) are
// sized once, here, so FromRaw has rejected a bad message table before
// paying for them.
func (d *Deposet) computeClocks() error {
	n := len(d.lens)
	rows := n // one per ⊥, one per receive
	for _, m := range d.msgs {
		if m.Received() {
			rows++
		}
	}
	d.Order = newOrder(d.lens, rows)
	remaining := d.NumStates() - n
	done := make([]int, n) // highest state index already clocked
	for remaining > 0 {
		progress := false
		for p := 0; p < n; p++ {
			for done[p] < d.lens[p]-1 {
				e := done[p] + 1 // next event
				from := StateID{P: -1}
				if mi := d.RecvAt(p, e); mi >= 0 {
					// The message carries the clock of the state before
					// its send event.
					m := d.msgs[mi]
					if from = (StateID{m.FromP, m.SendEvent - 1}); from.K > done[from.P] {
						break // sender state not clocked yet
					}
				}
				d.enter(p, from)
				done[p] = e
				remaining--
				progress = true
			}
		}
		if !progress {
			return ErrCyclic
		}
	}
	return nil
}
