package deposet

import "math/rand"

// GenConfig parameterizes Random. The zero value is not useful; see
// DefaultGen.
type GenConfig struct {
	Procs  int     // number of processes (≥ 1)
	Events int     // total number of events to generate (≥ 0)
	PSend  float64 // probability a generated event is a send
	PRecv  float64 // probability a generated event delivers a pending message
}

// DefaultGen returns a generator configuration producing computations with
// a healthy mix of local events and messages.
func DefaultGen(procs, events int) GenConfig {
	return GenConfig{Procs: procs, Events: events, PSend: 0.3, PRecv: 0.4}
}

// Random generates a random valid deposet. Construction order is a
// linearization, so the result is always acyclic. Messages still in
// flight at the end remain unreceived (allowed by the model).
func Random(r *rand.Rand, cfg GenConfig) *Deposet {
	return RandomBuilder(r, cfg).MustBuild()
}

// RandomBuilder generates the same computation as Random but returns
// the populated Builder, so one recorded construction can be built
// repeatedly (benchmarks time Build apart from the generation).
func RandomBuilder(r *rand.Rand, cfg GenConfig) *Builder {
	b := NewBuilder(cfg.Procs)
	type flight struct {
		h  MsgHandle
		to int
	}
	var pending []flight
	for i := 0; i < cfg.Events; i++ {
		x := r.Float64()
		switch {
		case x < cfg.PRecv && len(pending) > 0:
			j := r.Intn(len(pending))
			f := pending[j]
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			b.Recv(f.to, f.h)
		case x < cfg.PRecv+cfg.PSend && cfg.Procs > 1:
			from := r.Intn(cfg.Procs)
			to := r.Intn(cfg.Procs - 1)
			if to >= from {
				to++
			}
			_, h := b.Send(from)
			pending = append(pending, flight{h, to})
		default:
			b.Step(r.Intn(cfg.Procs))
		}
	}
	return b
}

// RandomTruth generates a random local-predicate truth assignment for d:
// truth[p][k] is the truth of lp at state (p,k). density is the
// probability of true.
func RandomTruth(r *rand.Rand, d *Deposet, density float64) [][]bool {
	truth := make([][]bool, d.NumProcs())
	for p := range truth {
		truth[p] = make([]bool, d.Len(p))
		for k := range truth[p] {
			truth[p][k] = r.Float64() < density
		}
	}
	return truth
}
