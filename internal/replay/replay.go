// Package replay re-executes a traced computation under a control
// relation: the second half of the paper's observe/controlled-replay
// debugging cycle. Each process replays its original event sequence on
// the simulator; every control tuple u ⟶C v becomes a real control
// message, sent when u's process leaves state u and received — with
// blocking — before v's process enters state v. The replay is therefore
// an execution of the controlled deposet, and restricting its trace to
// the underlying (non-control) states recovers the original computation
// with the added causality, exactly as §3 of the paper prescribes.
package replay

import (
	"fmt"
	"slices"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/predicate"
	"predctl/internal/sim"
)

// Config parameterizes a replay run. Correctness must not depend on the
// delays — that is the point of causality-based control — so tests
// replay under many delay seeds.
type Config struct {
	Delay     sim.DelayFn // nil means constant 1
	Seed      int64
	MaxEvents int
}

// Result is a completed controlled replay.
type Result struct {
	// Trace is the replay's own traced computation, including the control
	// messages and the states they introduce.
	Trace *sim.Trace
	// Underlying[p][k] is the original state index that replayed state
	// (p,k) corresponds to (control receives do not advance it).
	Underlying [][]int
}

type appPayload struct{ msg int }
type ctlPayload struct{ edge int }

// Run replays d under rel. It validates the relation first (an
// interfering relation would deadlock the replay by definition).
func Run(d *deposet.Deposet, rel control.Relation, cfg Config) (*Result, error) {
	if err := control.Check(d, rel); err != nil {
		return nil, err
	}
	n := d.NumProcs()
	msgs := d.Messages()

	// Per process: the control edges to receive before an event, by that
	// event, and the edges whose control message is sent right after an
	// event, by that event. The sorts are stable, so the edges of one
	// event keep their order in rel.
	recvBefore := make([][]int, n)
	sendAfter := make([][]int, n)
	for i, e := range rel {
		recvBefore[e.To.P] = append(recvBefore[e.To.P], i)
		sendAfter[e.From.P] = append(sendAfter[e.From.P], i)
	}
	for p := 0; p < n; p++ {
		slices.SortStableFunc(recvBefore[p], func(a, b int) int { return rel[a].To.K - rel[b].To.K })
		slices.SortStableFunc(sendAfter[p], func(a, b int) int { return rel[a].From.K - rel[b].From.K })
	}

	// The replay's size is known up to early arrivals: a process traces
	// one event per original event, per control send and per control
	// receive, and one more for an application message that arrives
	// before its receive event is due.
	events := make([]int, n)
	sends := len(rel)
	for p := 0; p < n; p++ {
		events[p] = d.Len(p) - 1 + len(sendAfter[p]) + len(recvBefore[p])
	}
	for _, m := range msgs {
		if m.Received() {
			events[m.ToP]++
			sends++
		}
	}

	// Every message has one receiver and every edge one target process,
	// so the processes share the two tables without sharing an entry.
	appBuf := make([]bool, len(msgs))
	ctlArrived := make([]bool, len(rel))

	underlying := make([][]int, n)
	k := sim.New(sim.Config{
		Procs:     n,
		Delay:     cfg.Delay,
		Seed:      cfg.Seed,
		Trace:     true,
		MaxEvents: cfg.MaxEvents,
	})
	k.Reserve(events, sends)
	bodies := make([]func(*sim.Proc), n)
	for p := 0; p < n; p++ {
		p := p
		bodies[p] = func(proc *sim.Proc) {
			r := &replayer{
				proc:       proc,
				d:          d,
				appBuf:     appBuf,
				ctlArrived: ctlArrived,
				underlying: append(make([]int, 0, 1+events[p]), 0), // initial state
			}
			recv, send := recvBefore[p], sendAfter[p]
			r.applyVars(0)
			for e := 1; e < d.Len(p); e++ {
				for ; len(recv) > 0 && rel[recv[0]].To.K == e; recv = recv[1:] {
					r.waitCtl(recv[0])
				}
				r.step(e)
				r.applyVars(e)
				for ; len(send) > 0 && rel[send[0]].From.K+1 == e; send = send[1:] {
					proc.Send(rel[send[0]].To.P, ctlPayload{edge: send[0]})
					r.noteEvent() // the control send is an extra event
				}
			}
			underlying[p] = r.underlying
		}
	}
	tr, err := k.Run(bodies...)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &Result{Trace: tr, Underlying: underlying}, nil
}

// replayer drives one process through its original event sequence. The
// invariant tying the replayed trace to the original computation: every
// simulated event appends exactly one entry to `underlying`, labelling
// the new replayed state with the process's current *logical* original
// state (cur). Messages may physically arrive earlier than their
// original receive event (they are buffered); the logical state advances
// only when the original event is executed.
type replayer struct {
	proc       *sim.Proc
	d          *deposet.Deposet
	appBuf     []bool // by original message id: received but not yet consumed
	ctlArrived []bool // by control edge id: received
	underlying []int
	cur        int // current logical original state index
}

// noteEvent records one more traced state at the current logical state.
func (r *replayer) noteEvent() {
	r.underlying = append(r.underlying, r.cur)
}

// step performs original event e of the process.
func (r *replayer) step(e int) {
	p := r.proc.ID()
	switch {
	case r.d.SendAt(p, e) >= 0:
		m := r.d.Messages()[r.d.SendAt(p, e)]
		if m.Received() {
			r.proc.Send(m.ToP, appPayload{msg: r.d.SendAt(p, e)})
		} else {
			// The original receiver never took this message (it was in
			// flight at the end); a local event keeps the state count
			// aligned without polluting another process's inbox.
			r.proc.Tick()
		}
		r.cur = e
		r.noteEvent()
	case r.d.RecvAt(p, e) >= 0:
		r.waitApp(r.d.RecvAt(p, e), e)
	default:
		r.proc.Tick()
		r.cur = e
		r.noteEvent()
	}
}

// applyVars copies the original state's variables, in name order, onto
// the current replayed state.
func (r *replayer) applyVars(e int) {
	names, vals, set := r.d.VarsAt(deposet.StateID{P: r.proc.ID(), K: e})
	for slot, ok := range set {
		if ok {
			r.proc.Let(names[slot], vals[slot])
		}
	}
}

// recvOne consumes the next incoming message. It returns true when that
// message is the awaited application message wantMsg (pass -1 when only
// control arrivals are awaited); anything else is buffered or marked.
func (r *replayer) recvOne(wantMsg int) bool {
	_, raw := r.proc.Recv()
	switch m := raw.(type) {
	case appPayload:
		if m.msg == wantMsg {
			return true
		}
		r.appBuf[m.msg] = true
	case ctlPayload:
		r.ctlArrived[m.edge] = true
	default:
		panic(fmt.Sprintf("replay: unexpected payload %T", raw))
	}
	r.noteEvent()
	return false
}

// waitApp executes original receive event e, consuming message msg.
func (r *replayer) waitApp(msg, e int) {
	if r.appBuf[msg] {
		// The message physically arrived earlier and was buffered; the
		// logical receive is materialized as a local event.
		r.appBuf[msg] = false
		r.proc.Tick()
		r.cur = e
		r.noteEvent()
		return
	}
	for !r.recvOne(msg) {
	}
	r.cur = e
	r.noteEvent()
}

// waitCtl blocks until the given control edge's message has arrived.
func (r *replayer) waitCtl(edge int) {
	for !r.ctlArrived[edge] {
		r.recvOne(-1)
	}
}

// VerifyDisjunction checks that the replayed computation satisfies
// B = ∨ lᵢ at every consistent global state, evaluating the local
// predicates through the underlying-state mapping. It returns the
// violating cut if any.
func VerifyDisjunction(res *Result, d *deposet.Deposet, dj *predicate.Disjunction) (deposet.Cut, bool) {
	cut, bad := detect.PossiblyTruth(res.Trace.D, func(p, k int) bool {
		return !dj.Holds(d, p, res.Underlying[p][k])
	})
	return cut, !bad
}
