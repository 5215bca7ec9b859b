package deposet

import (
	"math/rand"
	"runtime"
	"testing"
)

// The causality hot paths must stay allocation-free: HB is one arena
// load and a compare, Clock is offset arithmetic returning an alias into
// the flat clock arena. These pins fail if either ever grows a per-call
// allocation (a clock clone, a boxed return, …).

func TestHBAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := Random(r, DefaultGen(8, 400))
	s := StateID{P: 0, K: d.Len(0) / 2}
	u := StateID{P: 7, K: d.Len(7) - 1}
	var sink bool
	if n := testing.AllocsPerRun(100, func() {
		sink = d.HB(s, u)
		sink = d.HB(u, s)
	}); n != 0 {
		t.Errorf("HB allocates %.1f per run, want 0", n)
	}
	_ = sink
}

func TestClockAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := Random(r, DefaultGen(8, 400))
	s := StateID{P: 3, K: d.Len(3) / 2}
	var sink int32
	if n := testing.AllocsPerRun(100, func() {
		sink = d.Clock(s)[5]
	}); n != 0 {
		t.Errorf("Clock allocates %.1f per run, want 0", n)
	}
	_ = sink
}

func TestConsistentAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := Random(r, DefaultGen(8, 400))
	g := d.TopCut()
	var sink bool
	if n := testing.AllocsPerRun(100, func() {
		sink = d.Consistent(g)
	}); n != 0 {
		t.Errorf("Consistent allocates %.1f per run, want 0", n)
	}
	_ = sink
}

// VarsAt is what Encode and the replay walk once per state.
func TestVarsAtAllocFree(t *testing.T) {
	b := NewBuilder(2)
	b.Let(0, "cs", 1)
	b.Step(0)
	b.Let(0, "req", 2)
	d := b.MustBuild()
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		for k := 0; k < d.Len(0); k++ {
			names, vals, _ := d.VarsAt(StateID{P: 0, K: k})
			sink += len(names) + len(vals)
		}
	}); n != 0 {
		t.Errorf("VarsAt allocates %.1f per run, want 0", n)
	}
	_ = sink
}

// FromRaw rejects a bad message table before it allocates any clock row:
// at 16 processes and 2²⁰ states the event tables are 16 MiB and the
// arena alone would be 64 MiB, so the one is paid and the other is not.
func TestFromRawAllocBoundOnBadMessage(t *testing.T) {
	const procs, states = 16, 1 << 20
	raw := Raw{Lens: make([]int, procs)}
	for p := range raw.Lens {
		raw.Lens[p] = states / procs
	}
	raw.Msgs = []Message{{FromP: 0, SendEvent: 1, ToP: 1, RecvEvent: states}} // receive event out of range
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := FromRaw(raw)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("out-of-range receive event accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Errorf("FromRaw allocated %d MiB before rejecting the message table, want under the arena's 64", got>>20)
	}
}
