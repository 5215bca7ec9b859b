package deposet

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"predctl/internal/vclock"
)

// The causality hot paths must stay allocation-free: HB is an anchor
// lookup, a row load and a compare, Clock writes into the caller's
// buffer, Consistent reads the rows in place. These pins fail if any
// ever grows a per-call allocation (a clock clone, a boxed return, …).

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
	buf := make(vclock.VC, d.NumProcs())
	var sink int32
	if n := testing.AllocsPerRun(100, func() {
		sink = d.Clock(s, buf)[5]
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

// FromRaw rejects a bad message table before it allocates any clock
// storage: at 16 processes and 2²⁰ states the event tables are 16 MiB
// and the clocks' per-state anchor index alone would be 4 MiB more, so
// the one is paid and the other is not.
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= 20<<20 {
		t.Errorf("FromRaw allocated %d MiB before rejecting the message table, want under the 16 of its event tables plus the 4 of the anchor index", got>>20)
	}
}

// TestBuildAfterTailAllocBound pins Build as a snapshot: on a builder of
// ≈200k states carrying variables, a Build after 100 more events
// allocates the message table it renumbers, page-rounded, and a few
// words per process: nothing per state. Re-clocking the states or
// laying out their snapshots again would cost megabytes.
func TestBuildAfterTailAllocBound(t *testing.T) {
	const procs = 8
	r := rand.New(rand.NewSource(9))
	b := RandomBuilder(r, DefaultGen(procs, 100_000))
	for i := range 100_000 {
		p := r.Intn(procs)
		b.Step(p)
		b.Let(p, "cs", i&1)
	}
	b.MustBuild()
	for i := range 100 {
		p := i % procs
		_, h := b.Send(p)
		b.Recv((p+1)%procs, h)
		b.Let(p, "cs", i&1)
	}
	d, err := b.BuildBySender()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = b.BuildBySender()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	msgs := len(d.Messages())
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(msgs*(int(unsafe.Sizeof(Message{}))+4)+32<<10)
	t.Logf("Build of %d states and %d messages allocated %d bytes", d.NumStates(), msgs, got)
	if got > limit {
		t.Errorf("Build of %d states and %d messages allocated %d bytes, want at most %d: the message table and its renumbering, and per process a few words",
			d.NumStates(), msgs, got, limit)
	}
}
