package node

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Faults is the link-level fault-injection shim: every attempt to put a
// sequenced frame on the wire may be dropped, duplicated or delayed,
// with decisions drawn from a deterministic per-link random stream
// seeded by (Seed, from, to). Because the reliable link retransmits
// unacknowledged frames and the receiver deduplicates by sequence
// number, a run with faults enabled still delivers every protocol
// message exactly once, in order — the shim exercises the recovery
// machinery without changing protocol semantics, which is what makes
// robustness testable.
//
// Drop/Dup/Delay/Jitter apply only to node↔node protocol traffic.
// Link-control frames (Hello, LinkAck) and the coordinator capture
// stream are exempt: acks are idempotent and self-healing anyway, and
// perturbing individual capture writes would test the harness, not the
// protocol. Partitions are the exception: a Partition window severs
// links wholesale — every write, ack, and redial on the cut, and (with
// Coord set) the affected nodes' coordinator capture streams too — so
// the capture stream's own ARQ and session-resume machinery is
// exercised by real outages, not per-frame noise.
type Faults struct {
	// Drop is the probability a write attempt is silently skipped. The
	// frame stays unacknowledged and is retransmitted, so Drop < 1
	// delays but never loses a message.
	Drop float64
	// Dup is the probability a written frame is written twice. The
	// receiver's dedup discards the copy.
	Dup float64
	// Delay is a fixed latency added before every sequenced write — the
	// networked stand-in for the paper's message delay T.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed makes the decision streams reproducible. Two runs with the
	// same Seed, topology and send pattern make identical choices.
	Seed int64
	// Partitions is the link-partition schedule: time windows, relative
	// to the run start, during which groups of nodes cannot reach each
	// other. Unlike the probabilistic faults above, a partition severs
	// affected links completely — writes, acks, and redials — until the
	// window closes (heals).
	Partitions []Partition
}

// Partition is one scheduled link outage: from Start (relative to the
// run start) for Dur, every link between a node in A and a node in B is
// severed in both directions. An empty B means "everyone not in A" —
// the classic split of A away from the rest of the cluster. With Coord
// set, the A-side nodes also lose their coordinator capture streams for
// the window, exercising the stream's buffering, redial and
// session-resume path.
type Partition struct {
	Start time.Duration
	Dur   time.Duration
	A     []int
	B     []int // empty: the complement of A
	Coord bool  // also sever A-nodes' coordinator streams
}

// severs reports whether this partition cuts the (from, to) link.
func (p Partition) severs(from, to int) bool {
	inA, inB := contains(p.A, from), contains(p.A, to)
	if len(p.B) == 0 {
		// A vs rest: cut iff exactly one endpoint is in A.
		return inA != inB
	}
	return (inA && contains(p.B, to)) || (inB && contains(p.B, from))
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// check refuses a schedule the shim cannot run on an n-node cluster: a
// Drop of 1 never delivers, a partition naming no node of the cluster
// severs nothing, and a negative knob would silently read as unset.
func (f Faults) check(n int) error {
	switch {
	case !(f.Drop >= 0 && f.Drop < 1):
		return fmt.Errorf("node: faults: drop %v is outside [0, 1)", f.Drop)
	case !(f.Dup >= 0 && f.Dup <= 1):
		return fmt.Errorf("node: faults: dup %v is outside [0, 1]", f.Dup)
	case f.Delay < 0:
		return fmt.Errorf("node: faults: delay %v is negative", f.Delay)
	case f.Jitter < 0:
		return fmt.Errorf("node: faults: jitter %v is negative", f.Jitter)
	}
	for i, p := range f.Partitions {
		ids := slices.Concat(p.A, p.B)
		out := slices.IndexFunc(ids, func(id int) bool { return id < 0 || id >= n })
		switch {
		case p.Start < 0:
			return fmt.Errorf("node: partition %d: start %v is negative", i, p.Start)
		case p.Dur <= 0:
			return fmt.Errorf("node: partition %d: dur %v is not positive", i, p.Dur)
		case len(p.A) == 0:
			return fmt.Errorf("node: partition %d: a is empty", i)
		case out >= 0:
			return fmt.Errorf("node: partition %d: node %d is not one of %d", i, ids[out], n)
		}
	}
	return nil
}

// enabled reports whether the shim would ever perturb a write.
func (f Faults) enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Delay > 0 || f.Jitter > 0
}

// partitions is the runtime view of the Partition schedule, anchored to
// the run's start instant so every node (and the coordinator stream)
// agrees on window boundaries. A nil *partitions never severs.
type partitions struct {
	start time.Time
	list  []Partition
}

// newPartitions anchors f.Partitions at start. Returns nil when the
// schedule is empty, keeping the severed checks a single nil test on
// unpartitioned runs.
func newPartitions(f Faults, start time.Time) *partitions {
	if len(f.Partitions) == 0 {
		return nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	return &partitions{start: start, list: f.Partitions}
}

// meshSevered reports whether the (from, to) link is inside an open
// partition window at time now.
func (ps *partitions) meshSevered(from, to int, now time.Time) bool {
	if ps == nil {
		return false
	}
	since := now.Sub(ps.start)
	for _, p := range ps.list {
		if since >= p.Start && since < p.Start+p.Dur && p.severs(from, to) {
			return true
		}
	}
	return false
}

// coordSevered reports whether node id's coordinator stream is inside
// an open Coord partition window at time now.
func (ps *partitions) coordSevered(id int, now time.Time) bool {
	if ps == nil {
		return false
	}
	since := now.Sub(ps.start)
	for _, p := range ps.list {
		if p.Coord && since >= p.Start && since < p.Start+p.Dur && contains(p.A, id) {
			return true
		}
	}
	return false
}

// faultRand is one link's decision stream. Writer-goroutine-local: the
// link's single writer draws all decisions, so no locking is needed and
// the stream order is exactly the write-attempt order.
type faultRand struct {
	f   Faults
	rng *rand.Rand
}

// newFaultRand derives the (from, to) link's stream from the run seed
// with a splitmix64 finalizer, mirroring sim.procSeed: nearby seeds and
// nearby link indices must not produce correlated streams.
func newFaultRand(f Faults, from, to int) *faultRand {
	if !f.enabled() {
		return nil
	}
	z := uint64(f.Seed) + uint64(from+1)*0x9e3779b97f4a7c15 + uint64(to+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &faultRand{f: f, rng: rand.New(rand.NewSource(int64(z ^ (z >> 31))))}
}

// decision is the shim's verdict for one write attempt.
type decision struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// next draws the verdict for the next write attempt. A nil receiver
// (faults disabled) writes cleanly.
func (fr *faultRand) next() decision {
	if fr == nil {
		return decision{}
	}
	var d decision
	if fr.f.Drop > 0 && fr.rng.Float64() < fr.f.Drop {
		d.drop = true
	}
	if fr.f.Dup > 0 && fr.rng.Float64() < fr.f.Dup {
		d.dup = true
	}
	d.delay = fr.f.Delay
	if fr.f.Jitter > 0 {
		d.delay += time.Duration(fr.rng.Int63n(int64(fr.f.Jitter)))
	}
	return d
}
