package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/obs"
)

func TestPingPong(t *testing.T) {
	k := New(Config{Procs: 2, Delay: ConstantDelay(5), Trace: true})
	tr, err := k.Run(
		func(p *Proc) {
			p.Send(1, "ping")
			from, payload := p.Recv()
			if from != 1 || payload != "pong" {
				panic("bad reply")
			}
		},
		func(p *Proc) {
			from, payload := p.Recv()
			if from != 0 || payload != "ping" {
				panic("bad request")
			}
			p.Send(0, "pong")
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Messages != 2 {
		t.Errorf("messages = %d", tr.Stats.Messages)
	}
	if tr.Stats.End != 10 {
		t.Errorf("end time = %d, want 10 (two hops of delay 5)", tr.Stats.End)
	}
	// Trace shape: P0 has send+recv, P1 recv+send; causality through both.
	d := tr.D
	if d.Len(0) != 3 || d.Len(1) != 3 {
		t.Fatalf("trace lens = %d,%d", d.Len(0), d.Len(1))
	}
	if !d.HB(deposet.StateID{P: 0, K: 0}, deposet.StateID{P: 1, K: 1}) {
		t.Error("ping causality missing")
	}
	if !d.HB(deposet.StateID{P: 1, K: 1}, deposet.StateID{P: 0, K: 2}) {
		t.Error("pong causality missing")
	}
}

func TestWorkAdvancesTime(t *testing.T) {
	k := New(Config{Procs: 1})
	var mid, end Time
	_, err := k.Run(func(p *Proc) {
		p.Work(7)
		mid = p.Now()
		p.Work(3)
		end = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if mid != 7 || end != 10 {
		t.Errorf("times = %d, %d; want 7, 10", mid, end)
	}
}

func TestRecvOrderIsArrivalOrder(t *testing.T) {
	// P0 sends two messages with decreasing delays via per-pair delay:
	// the second overtakes the first.
	step := 0
	delay := func(from, to int, _ *rand.Rand) Time {
		step++
		if step == 1 {
			return 10
		}
		return 2
	}
	k := New(Config{Procs: 2, Delay: delay})
	var got []string
	_, err := k.Run(
		func(p *Proc) {
			p.Send(1, "slow")
			p.Send(1, "fast")
		},
		func(p *Proc) {
			for i := 0; i < 2; i++ {
				_, payload := p.Recv()
				got = append(got, payload.(string))
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "fast" || got[1] != "slow" {
		t.Errorf("order = %v", got)
	}
}

func TestFIFOChannelOrdering(t *testing.T) {
	// Adversarial decreasing delays: without FIFO the later message would
	// overtake (see TestRecvOrderIsArrivalOrder); with FIFO it may
	// not.
	step := 0
	k := New(Config{
		Procs: 2,
		FIFO:  true,
		Delay: func(from, to int, _ *rand.Rand) Time {
			step++
			if step == 1 {
				return 10
			}
			return 2
		},
	})
	var got []string
	_, err := k.Run(
		func(p *Proc) {
			p.Send(1, "first")
			p.Send(1, "second")
		},
		func(p *Proc) {
			for i := 0; i < 2; i++ {
				_, v := p.Recv()
				got = append(got, v.(string))
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "first" || got[1] != "second" {
		t.Fatalf("FIFO violated: %v", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New(Config{Procs: 2})
	_, err := k.Run(
		func(p *Proc) { p.Recv() },
		func(p *Proc) { p.Recv() },
	)
	var dl ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("blocked = %v", dl.Blocked)
	}
}

func TestPanicSurfaces(t *testing.T) {
	k := New(Config{Procs: 1})
	_, err := k.Run(func(p *Proc) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// An overrun is a tear-down like a deadlock: every body — spinning,
// blocked in Recv, or never started — has unwound, its defers run, by
// the time Run reports the spent budget.
func TestMaxEventsGuard(t *testing.T) {
	spin := func(p *Proc) {
		for {
			p.Work(1)
		}
	}
	cases := []struct {
		name      string
		maxEvents int
		bodies    []func(*Proc)
		ran       int // bodies entered, each of which must have unwound
	}{
		{"one spinning", 50, []func(*Proc){spin}, 1},
		{"one blocked in Recv", 50, []func(*Proc){spin, func(p *Proc) { p.Recv() }, spin}, 3},
		{"two never started", 1, []func(*Proc){spin, spin, spin}, 1},
	}
	for _, c := range cases {
		exited := make([]bool, len(c.bodies))
		bodies := make([]func(*Proc), len(c.bodies))
		for i, body := range c.bodies {
			bodies[i] = func(p *Proc) {
				defer func() { exited[p.ID()] = true }()
				body(p)
			}
		}
		before := runtime.NumGoroutine()
		_, err := New(Config{Procs: len(bodies), MaxEvents: c.maxEvents}).Run(bodies...)
		if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		ran := 0
		for _, ok := range exited {
			if ok {
				ran++
			}
		}
		if ran != c.ran {
			t.Errorf("%s: %d bodies had unwound when Run returned, want %d (%v)", c.name, ran, c.ran, exited)
		}
		// Goroutines exit just after their last hand-off; give them a moment.
		for try := 0; runtime.NumGoroutine() > before && try < 100; try++ {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before the run, %d after", c.name, before, after)
		}
	}
}

func TestTryRecv(t *testing.T) {
	k := New(Config{Procs: 2, Delay: ConstantDelay(4)})
	_, err := k.Run(
		func(p *Proc) {
			if _, _, ok := p.TryRecv(); ok {
				panic("message before any was sent")
			}
			p.Send(1, 42)
		},
		func(p *Proc) {
			if _, _, ok := p.TryRecv(); ok {
				panic("message before arrival")
			}
			p.Work(10)
			from, v, ok := p.TryRecv()
			if !ok || from != 0 || v.(int) != 42 {
				panic("message should have arrived during work")
			}
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestVariablesTraced(t *testing.T) {
	k := New(Config{Procs: 1, Trace: true})
	tr, err := k.Run(func(p *Proc) {
		p.Init("cs", 0)
		p.Set("cs", 1)
		p.Work(5)
		p.Set("cs", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.D
	if d.Len(0) != 3 {
		t.Fatalf("states = %d", d.Len(0))
	}
	want := []int{0, 1, 0}
	for kk, w := range want {
		v, ok := d.Var(deposet.StateID{P: 0, K: kk}, "cs")
		if !ok || v != w {
			t.Errorf("cs at state %d = %d,%v; want %d", kk, v, ok, w)
		}
	}
	// Work(5) happens between entering state 1 and state 2.
	if tr.Times[0][1] != 0 || tr.Times[0][2] != 5 {
		t.Errorf("times = %v", tr.Times[0])
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, string) {
		// Seed chosen so process 0's stream sends 3 messages to process 1
		// and 2 to process 2, matching the receive counts below.
		k := New(Config{Procs: 3, Delay: UniformDelay(1, 9), Seed: 9, Trace: true})
		tr, err := k.Run(
			func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Send(p.Rand().Intn(2)+1, i)
					p.Work(Time(p.Rand().Intn(4)))
				}
			},
			func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Recv()
				}
			},
			func(p *Proc) {
				for i := 0; i < 2; i++ {
					p.Recv()
				}
			},
		)
		if err != nil {
			t.Fatal(err)
		}
		raw := tr.D.Raw()
		key := ""
		for _, m := range raw.Msgs {
			key += m.String()
		}
		return tr.Stats, key
	}
	s1, k1 := run()
	s2, k2 := run()
	if s1 != s2 || k1 != k2 {
		t.Fatalf("nondeterministic: %+v/%q vs %+v/%q", s1, k1, s2, k2)
	}
}

func TestSendToUnknownPanics(t *testing.T) {
	k := New(Config{Procs: 1})
	_, err := k.Run(func(p *Proc) { p.Send(3, nil) })
	if err == nil || !strings.Contains(err.Error(), "unknown process") {
		t.Fatalf("err = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	k := New(Config{Procs: 2})
	_, err := k.Run(
		func(p *Proc) {
			if p.ID() != 0 || p.N() != 2 || p.Now() != 0 {
				panic("accessors wrong")
			}
		},
		func(p *Proc) {},
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBodyCountMismatch(t *testing.T) {
	k := New(Config{Procs: 2})
	if _, err := k.Run(func(p *Proc) {}); err == nil {
		t.Fatal("mismatched body count accepted")
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	k := New(Config{Procs: 1})
	if _, err := k.Run(func(p *Proc) { p.Work(-1) }); err == nil {
		t.Fatal("negative work accepted")
	}
}

func TestNewPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Procs: 0})
}

// randomWorkload is n process bodies drawing 12 steps each (send, try to
// receive, work, set a variable) from their own seeded streams.
func randomWorkload(n int) []func(*Proc) {
	bodies := make([]func(*Proc), n)
	for i := range bodies {
		bodies[i] = func(p *Proc) {
			r := p.Rand()
			for step := 0; step < 12; step++ {
				switch r.Intn(4) {
				case 0:
					to := r.Intn(p.N() - 1)
					if to >= p.ID() {
						to++
					}
					p.Send(to, step)
				case 1:
					if _, _, ok := p.TryRecv(); !ok {
						p.Work(1)
					}
				case 2:
					p.Work(Time(r.Intn(3)))
				default:
					p.Set("x", step)
				}
			}
		}
	}
	return bodies
}

// Property: random workloads produce valid deposets whose message count
// matches the statistics, and per-state times are monotone per process.
func TestRandomWorkloadTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%3)
		k := New(Config{Procs: n, Delay: UniformDelay(1, 5), Seed: seed, Trace: true})
		tr, err := k.Run(randomWorkload(n)...)
		if err != nil {
			return false
		}
		if len(tr.D.Messages()) != tr.Stats.Messages {
			return false
		}
		for p := 0; p < n; p++ {
			if len(tr.Times[p]) != tr.D.Len(p) {
				return false
			}
			for kk := 1; kk < len(tr.Times[p]); kk++ {
				if tr.Times[p][kk] < tr.Times[p][kk-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestJournalOrderGolden pins the journal of one run of the random
// workload: every send, receive, block, unblock, work step and
// assignment with its virtual time, in append order. The hash was
// recorded at the commit before the kernel's central loop became a
// hand-off (PR 19); the kernel may change how processes are switched,
// never the order in which anything happens.
func TestJournalOrderGolden(t *testing.T) {
	const want = 0xab65b5380a987a82
	j := obs.NewJournal(0)
	k := New(Config{Procs: 4, Delay: UniformDelay(1, 5), Seed: 1998, Journal: j})
	tr, err := k.Run(randomWorkload(4)...)
	if err != nil {
		t.Fatal(err)
	}
	events := j.Events()
	if len(events) < 40 || j.Dropped() != 0 {
		t.Fatalf("journal holds %d events, %d dropped", len(events), j.Dropped())
	}
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %d %d %q %d %d %d\n", e.Seq, e.At, e.Proc, e.Kind, e.Name, e.A, e.B, e.C)
	}
	fmt.Fprintf(h, "%+v", tr.Stats)
	if got := h.Sum64(); got != want {
		t.Errorf("journal of %d events hashes to %#016x, want %#016x", len(events), got, uint64(want))
	}
}
