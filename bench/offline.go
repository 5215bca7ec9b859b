package main

import (
	"bytes"
	"errors"
	"math/rand"
	"time"

	"predctl/internal/control"
	"predctl/internal/deposet"
	"predctl/internal/detect"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/replay"
	"predctl/internal/trace"
)

// offlineCycle is the network-free half of the active-debugging cycle
// on one seeded random trace: decode it, detect possibly(¬B) and
// definitely(¬B), synthesize the control relation, extend the
// computation with it, replay under control and verify B on the replay.
type offlineCycle struct {
	seed    int64
	encoded []byte // the trace as a user would hand it over
	dj      *predicate.Disjunction
	p       int // most false-intervals of B any one process has

	// edges is offline.edges of each op; it must repeat exactly.
	edges []int
	// The two set-up calls that are layer metrics too, timed.
	buildSeconds, encodeSeconds float64
	states                      int
}

func newOffline(seed int64, events int) (*offlineCycle, error) {
	r := rand.New(rand.NewSource(seed))
	b := deposet.RandomBuilder(r, deposet.DefaultGen(offlineProcs, events))
	t := time.Now()
	d, err := b.Build()
	if err != nil {
		return nil, err
	}
	o := &offlineCycle{seed: seed, buildSeconds: time.Since(t).Seconds(), states: d.NumStates()}
	truth := deposet.RandomTruth(r, d, 0.8)
	o.dj = predicate.DisjunctionFromTruth(truth)
	for _, tp := range truth {
		intervals := 0
		for k, v := range tp {
			if !v && (k == 0 || tp[k-1]) {
				intervals++
			}
		}
		o.p = max(o.p, intervals)
	}
	var buf bytes.Buffer
	t = time.Now()
	if err := trace.Encode(&buf, d, nil); err != nil {
		return nil, err
	}
	o.encodeSeconds = time.Since(t).Seconds()
	o.encoded = buf.Bytes()
	return o, nil
}

func (o *offlineCycle) op(_ int, tr *tracer) (sample, error) {
	alloc0, start := allocated(), time.Now()
	var d *deposet.Deposet
	var err error
	tr.span("trace.Decode", func() { d, _, err = trace.Decode(bytes.NewReader(o.encoded)) })
	if err != nil {
		return sample{}, err
	}
	notB := func(p, k int) bool { return !o.dj.Holds(d, p, k) }
	var definitely bool
	tr.span("detect.PossiblyTruth", func() { detect.PossiblyTruth(d, notB) })
	tr.span("detect.DefinitelyTruth", func() { _, definitely = detect.DefinitelyTruth(d, notB) })
	verdict := time.Since(start)

	var res *offline.Result
	tr.span("offline.Control", func() { res, err = offline.Control(d, o.dj, offline.Options{}) })
	infeasible := errors.Is(err, offline.ErrInfeasible)
	if err != nil && !infeasible {
		return sample{}, err
	}
	var replayed *replay.Result
	var violation deposet.Cut
	verified := false
	if !infeasible {
		tr.span("control.Extend", func() { _, err = control.Extend(d, res.Relation) })
		if err != nil {
			return sample{}, err
		}
		tr.span("replay.Run", func() { replayed, err = replay.Run(d, res.Relation, replay.Config{Seed: o.seed}) })
		if err != nil {
			return sample{}, err
		}
		tr.span("replay.VerifyDisjunction", func() { violation, verified = replay.VerifyDisjunction(replayed, d, o.dj) })
	}
	wall := time.Since(start)
	// Every input exists when the op starts, so the whole op is what the
	// user waits for after the last contributing event.
	s := sample{wall: wall, states: d.NumStates(), commit: wall, verdict: []time.Duration{verdict}, alloc: allocated() - alloc0}

	// B is uncontrollable exactly when ¬B is unavoidable (the paper's §4
	// feasibility condition), so the two layers must agree.
	if infeasible != definitely {
		return s, checkf("Control infeasible=%v but definitely(¬B)=%v", infeasible, definitely)
	}
	if infeasible {
		o.edges = append(o.edges, 0)
		return s, nil
	}
	if !verified {
		return s, checkf("controlled replay violates B at %v", violation)
	}
	if n, bound := len(res.Relation), offlineProcs*(o.p+1); n > bound {
		return s, checkf("%d control edges exceed n(p+1) = %d", n, bound)
	}
	o.edges = append(o.edges, len(res.Relation))
	tr.count("offline.edges", float64(len(res.Relation)))
	tr.count("replay.events", float64(replayed.Trace.D.NumStates()))
	return s, nil
}

// layers has no stage replay to run: the op is already a sequence of
// outside calls, each under its own span. Only the two set-up calls
// that are layer metrics are recorded here.
func (o *offlineCycle) layers(tr *tracer) error {
	tr.count("deposet.build_s", o.buildSeconds)
	tr.count("trace.encode_s", o.encodeSeconds)
	tr.count("trace.bytes", float64(len(o.encoded)))
	tr.count("trace.states", float64(o.states))
	return nil
}

func (o *offlineCycle) verify([]sample) error {
	for _, e := range o.edges {
		if e != o.edges[0] {
			return checkf("offline.edges varies between ops on one input: %v", o.edges)
		}
	}
	return nil
}
