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
// Builder; the zero value is not usable.
type Deposet struct {
	Order // causal precedence →: local order plus the messages' ⇝

	msgs []Message // all messages, in send order

	// sendMsg[p][e] / recvMsg[p][e] give the message index for event e of
	// process p (1-based; index 0 unused), or -1.
	sendMsg [][]int
	recvMsg [][]int

	// vars holds the interned, copy-on-write variable snapshots; nil when
	// the computation carries no variables.
	vars *varTable
}

// Messages returns the message list. The caller must not modify it.
func (d *Deposet) Messages() []Message { return d.msgs }

// SendAt returns the index into Messages of the message sent by event e of
// process p, or -1.
func (d *Deposet) SendAt(p, e int) int { return d.sendMsg[p][e] }

// RecvAt returns the index into Messages of the message received by event
// e of process p, or -1.
func (d *Deposet) RecvAt(p, e int) int { return d.recvMsg[p][e] }

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
	if sn := d.vars.snaps[s.P][s.K]; sn != nil {
		vals, set = sn.vals, sn.set
	}
	return d.vars.names, vals, set
}

// A Builder assembles a deposet event by event. All methods panic on
// out-of-range process indices; semantic errors (double receive, receive
// of an unsent message, causal cycles) are reported by Build.
type Builder struct {
	n       int
	lens    []int
	msgs    []Message
	sendMsg [][]int
	recvMsg [][]int
	// Variable updates: an append-only log per process, in state order
	// (Let writes at the top state), over names interned at first Let.
	nameID map[string]int32
	names  []string
	lets   [][]letUpdate
	err    error
}

// letUpdate is one Let: variable name (builder-interned id) takes value
// val from state k on.
type letUpdate struct {
	k, name int32
	val     int
}

// NewBuilder starts a computation of n processes, each at its initial
// state ⊥ (one state, no events).
func NewBuilder(n int) *Builder {
	if n < 1 {
		panic("deposet: need at least one process")
	}
	b := &Builder{
		n:       n,
		lens:    make([]int, n),
		sendMsg: make([][]int, n),
		recvMsg: make([][]int, n),
		nameID:  make(map[string]int32),
		lets:    make([][]letUpdate, n),
	}
	for p := 0; p < n; p++ {
		b.lens[p] = 1
		b.sendMsg[p] = []int{-1} // event index 0 unused
		b.recvMsg[p] = []int{-1}
	}
	return b
}

func (b *Builder) checkProc(p int) {
	if p < 0 || p >= b.n {
		panic(fmt.Sprintf("deposet: process %d out of range [0,%d)", p, b.n))
	}
}

// Reserve sizes the builder for events[p] further events on each
// process p, sends of them sends in all: replaying a capture of known
// length then regrows nothing. It changes no behaviour.
func (b *Builder) Reserve(events []int, sends int) {
	for p, k := range events {
		b.sendMsg[p] = slices.Grow(b.sendMsg[p], k)
		b.recvMsg[p] = slices.Grow(b.recvMsg[p], k)
	}
	b.msgs = slices.Grow(b.msgs, sends)
}

func (b *Builder) addEvent(p, send, recv int) StateID {
	b.lens[p]++
	b.sendMsg[p] = append(b.sendMsg[p], send)
	b.recvMsg[p] = append(b.recvMsg[p], recv)
	return StateID{p, b.lens[p] - 1}
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
	b.msgs = append(b.msgs, Message{FromP: p, SendEvent: b.lens[p], ToP: -1})
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
	case b.msgs[id].Received():
		b.fail(fmt.Errorf("deposet: message %d received twice", id))
	case b.msgs[id].FromP == p:
		// Self-messages are legal in the model (s ⇝ t within a process)
		// but pointless; allow them.
	}
	s := b.addEvent(p, -1, id)
	if b.err == nil {
		b.msgs[id].ToP = p
		b.msgs[id].RecvEvent = b.lens[p] - 1
	}
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

// Let sets variable name to value at the current top state of process p
// and all later states (until overridden). Call it immediately after the
// event that establishes the value; call before any event to set the value
// at ⊥p.
func (b *Builder) Let(p int, name string, value int) {
	b.checkProc(p)
	id, ok := b.nameID[name]
	if !ok {
		id = int32(len(b.names))
		b.nameID[name] = id
		b.names = append(b.names, name)
	}
	b.lets[p] = append(b.lets[p], letUpdate{k: int32(b.lens[p] - 1), name: id, val: value})
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the computation and computes vector clocks. The builder
// remains usable; Build may be called repeatedly as the computation grows.
func (b *Builder) Build() (*Deposet, error) {
	if b.err != nil {
		return nil, b.err
	}
	d := &Deposet{
		Order:   Order{lens: append([]int(nil), b.lens...)},
		msgs:    append([]Message(nil), b.msgs...),
		sendMsg: make([][]int, b.n),
		recvMsg: make([][]int, b.n),
	}
	for p := 0; p < b.n; p++ {
		d.sendMsg[p] = append([]int(nil), b.sendMsg[p]...)
		d.recvMsg[p] = append([]int(nil), b.recvMsg[p]...)
	}
	if err := d.computeClocks(); err != nil {
		return nil, err
	}
	if len(b.names) > 0 {
		d.vars = varTableFromLog(b.names, b.lets, d.lens)
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

// computeClocks clocks every state, processing events in a
// causality-respecting order; it fails with ErrCyclic if none exists.
// Only a receive changes a state's clock beyond its own component, so
// only the n ⊥ states and the states receives enter get a row (copy the
// predecessor's, merge the sender's), and the rows are sized once, up
// front: the construction performs no per-event allocation. They are
// allocated here and not by the caller, so FromRaw has rejected a bad
// message table before paying for them.
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
				mi := d.recvMsg[p][e]
				if mi >= 0 {
					// The message carries the clock of the state before
					// its send event: s = (FromP, SendEvent-1).
					if m := d.msgs[mi]; m.SendEvent-1 > done[m.FromP] {
						break // sender state not clocked yet
					}
				}
				if row := d.Enter(StateID{p, e}, mi >= 0); row != nil {
					m := d.msgs[mi]
					row.Merge(d.Deps(StateID{m.FromP, m.SendEvent - 1}))
					// The sender's row is its anchor's, whose own
					// component may be below the sending state's.
					row[m.FromP] = max(row[m.FromP], int32(m.SendEvent-1))
				}
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
