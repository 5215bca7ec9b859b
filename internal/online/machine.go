package online

import "fmt"

// machine.go factors the Figure 3 anti-token controller out of the sim
// kernel into a sans-IO state machine: the Machine holds the protocol
// state (scapegoat role, tentative broadcast responders, deferred and
// pending requests) and expresses every effect — sending a control
// message, granting the co-located application permission to go false —
// through the Host interface. The simulator controller in this package
// is one Host implementation; the TCP node daemon in internal/node is
// the other. Both drive the *same* protocol code, so the properties the
// sim-based tests establish (single scapegoat chain, every consistent
// cut satisfies B) carry over to the networked runtime by construction.
//
// The machine works in application-index space 0..n-1: "controller i"
// is the controller co-located with application process i. Hosts that
// embed controllers in a larger process space (the simulator uses
// processes n..2n-1) translate at the boundary.

// MsgKind is a controller-to-controller protocol message kind.
type MsgKind uint8

const (
	// MsgReq asks the receiver to take the scapegoat role.
	MsgReq MsgKind = iota
	// MsgAck accepts the role (tentatively, under broadcast).
	MsgAck
	// MsgConfirm settles a broadcast handoff on one responder.
	MsgConfirm
	// MsgCancel releases a tentative broadcast responder.
	MsgCancel
)

var msgKindNames = [...]string{"req", "ack", "confirm", "cancel"}

func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Host is the effect interface a Machine drives. Calls are made from
// within the machine's input methods, on the caller's goroutine; hosts
// serialize machine inputs (one goroutine, or a lock) and the machine
// never calls back into itself.
type Host interface {
	// SendCtl transmits a protocol message to controller `to`
	// (application-index space). gen is the sender's view of the
	// anti-token generation, piggybacked so acquisitions can be totally
	// ordered without trusting cross-node clocks.
	SendCtl(to int, k MsgKind, gen uint64)
	// Grant tells the co-located application its predicate may go
	// false. The machine has already marked itself locally false.
	Grant()
	// Acquired reports that this controller took the anti-token from
	// controller `from`, as generation gen (1-based; the initial holder
	// is generation 0). Hosts journal this for the chain invariant.
	Acquired(from int, gen uint64)
	// Released reports that this controller handed the anti-token to
	// controller `to` (the releasing side of a completed handoff).
	Released(to int)
	// PickTarget chooses the handoff target for a non-broadcast req:
	// any controller index other than this one. Hosts supply the
	// randomness so sim runs stay deterministic.
	PickTarget() int
}

// Machine is the Figure 3 on-line control strategy for one controller,
// independent of any transport. Feed it inputs via OnMayFalse /
// OnNowTrue / OnCtl; it reacts through the Host.
type Machine struct {
	host      Host
	id        int
	n         int
	broadcast bool

	scapegoat  bool
	localTrue  bool
	gen        uint64 // anti-token generation while scapegoat
	waitingAck bool
	wantGrant  bool
	tentative  int       // broadcast: acks issued, awaiting confirm/cancel
	pending    []request // reqs awaiting our next true period
	deferred   []request // reqs received while we were waiting for an ack
}

// request is a parked req: the requesting controller and the anti-token
// generation its req carried. The generation travels with the request —
// answering a parked req with our own (stale) generation would mint a
// duplicate generation and fork the chain the checkers verify.
type request struct {
	from int
	gen  uint64
}

// NewMachine returns a controller machine for application process id of
// n. scapegoat marks the initial anti-token holder (generation 0);
// localTrue is the initial truth of the local predicate (the initial
// scapegoat must start true).
func NewMachine(id, n int, scapegoat, localTrue, broadcast bool, h Host) *Machine {
	if scapegoat && !localTrue {
		panic("online: initial scapegoat must start with its predicate true")
	}
	return &Machine{host: h, id: id, n: n, broadcast: broadcast, scapegoat: scapegoat, localTrue: localTrue}
}

// Scapegoat reports whether this controller currently holds the
// anti-token.
func (m *Machine) Scapegoat() bool { return m.scapegoat }

// OnMayFalse handles the co-located application asking to let its
// local predicate go false.
func (m *Machine) OnMayFalse() {
	m.wantGrant = true
	m.maybeProceed()
}

// OnNowTrue handles the co-located application reporting its local
// predicate holds again.
func (m *Machine) OnNowTrue() {
	m.localTrue = true
	pending := m.pending
	m.pending = nil
	for _, q := range pending {
		m.handleReq(q.from, q.gen)
	}
}

// OnCtl handles a protocol message from controller `from` carrying the
// sender's anti-token generation.
func (m *Machine) OnCtl(from int, k MsgKind, gen uint64) {
	switch k {
	case MsgReq:
		if m.waitingAck {
			// Answering now could hand our own anti-token away while
			// another one is already travelling to us; defer.
			m.deferred = append(m.deferred, request{from, gen})
			return
		}
		m.handleReq(from, gen)
	case MsgAck:
		if !m.waitingAck {
			// A later ack of an already-completed broadcast round:
			// release the tentative responder.
			if m.broadcast {
				m.host.SendCtl(from, MsgCancel, m.gen)
			}
			return
		}
		m.waitingAck = false
		m.scapegoat = false
		m.host.Released(from)
		if m.broadcast {
			m.host.SendCtl(from, MsgConfirm, m.gen)
		}
		m.grant()
		deferred := m.deferred
		m.deferred = m.deferred[:0]
		for _, q := range deferred {
			m.handleReq(q.from, q.gen)
		}
	case MsgConfirm:
		m.scapegoat = true
		m.gen = gen + 1
		m.host.Acquired(from, m.gen)
		m.tentative--
		m.maybeProceed()
	case MsgCancel:
		m.tentative--
		m.maybeProceed()
	default:
		panic(fmt.Sprintf("online: controller received unexpected message kind %v", k))
	}
}

// maybeProceed advances a waiting mayFalse request whenever the state
// allows: a tentative responder stays true until released; a scapegoat
// must first hand the anti-token off; anyone else is granted at once.
func (m *Machine) maybeProceed() {
	if !m.wantGrant || m.tentative > 0 || m.waitingAck {
		return
	}
	if !m.scapegoat {
		m.grant()
		return
	}
	m.waitingAck = true
	if m.broadcast {
		for t := 0; t < m.n; t++ {
			if t != m.id {
				m.host.SendCtl(t, MsgReq, m.gen)
			}
		}
		return
	}
	t := m.host.PickTarget()
	if t == m.id || t < 0 || t >= m.n {
		panic(fmt.Sprintf("online: PickTarget returned invalid controller %d (self %d of %d)", t, m.id, m.n))
	}
	m.host.SendCtl(t, MsgReq, m.gen)
}

// grant marks the local predicate false and notifies the host.
func (m *Machine) grant() {
	m.localTrue = false
	m.wantGrant = false
	m.host.Grant()
}

// handleReq answers a scapegoat request from controller j whose
// anti-token generation is gen.
func (m *Machine) handleReq(j int, gen uint64) {
	if !m.localTrue {
		m.pending = append(m.pending, request{j, gen})
		return
	}
	if m.broadcast {
		// Tentative: hold ourselves true until the requester confirms or
		// cancels; the role transfers only with the confirm.
		m.tentative++
		m.host.SendCtl(j, MsgAck, gen)
		return
	}
	m.scapegoat = true
	m.gen = gen + 1
	m.host.Acquired(j, m.gen)
	m.host.SendCtl(j, MsgAck, m.gen)
}
