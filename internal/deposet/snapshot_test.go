package deposet_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/trace"
)

// call is one Builder call of a random program: a step, a send, a
// receive of the program's send number msg, or a Let.
type call struct {
	kind byte // 's', 'n', 'r' or 'l'
	p    int
	msg  int
	name string
	val  int
}

// randomProgram returns a valid program of length calls on n processes
// over at most 12 variables. Each new name sorts before every earlier
// one, so it shifts the slots of the names already set.
func randomProgram(r *rand.Rand, n, length int) []call {
	var prog []call
	var names []string
	var pending []int // sends not yet received
	sends := 0
	for range length {
		p := r.Intn(n)
		switch x := r.Intn(10); {
		case x < 4:
			if len(names) == 0 || len(names) < 12 && r.Intn(4) == 0 {
				names = append(names, fmt.Sprintf("v%02d", 99-len(names)))
			}
			prog = append(prog, call{kind: 'l', p: p, name: names[r.Intn(len(names))], val: r.Intn(100)})
		case x < 6:
			prog = append(prog, call{kind: 's', p: p})
		case x < 8 || len(pending) == 0:
			prog = append(prog, call{kind: 'n', p: p})
			pending = append(pending, sends)
			sends++
		default:
			j := r.Intn(len(pending))
			prog = append(prog, call{kind: 'r', p: p, msg: pending[j]})
			pending = slices.Delete(pending, j, j+1)
		}
	}
	return prog
}

// run makes c on b; handles holds the handles of the sends made so far.
func (c call) run(b *deposet.Builder, handles *[]deposet.MsgHandle) {
	switch c.kind {
	case 's':
		b.Step(c.p)
	case 'n':
		_, h := b.Send(c.p)
		*handles = append(*handles, h)
	case 'r':
		b.Recv(c.p, (*handles)[c.msg])
	case 'l':
		b.Let(c.p, c.name, c.val)
	}
}

func build(t *testing.T, b *deposet.Builder, bySender bool) *deposet.Deposet {
	t.Helper()
	build := b.Build
	if bySender {
		build = b.BuildBySender
	}
	d, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fingerprint is everything d answers: its trace.Encode bytes, then per
// state its variables and HB against every state.
func fingerprint(t *testing.T, d *deposet.Deposet) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	var states []deposet.StateID
	for p := range d.NumProcs() {
		for k := range d.Len(p) {
			states = append(states, deposet.StateID{P: p, K: k})
		}
	}
	for _, s := range states {
		names, vals, set := d.VarsAt(s)
		fmt.Fprintf(&buf, "\n%v", s)
		for i, on := range set {
			if on {
				fmt.Fprintf(&buf, " %s=%d", names[i], vals[i])
			}
		}
		buf.WriteByte(':')
		for _, u := range states {
			buf.WriteByte('0' + byte(bits(d.HB(s, u))))
		}
	}
	return buf.String()
}

func bits(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBuildIsSnapshot builds random programs a chunk at a time, calling
// Build or BuildBySender after every chunk, and requires each deposet to
// answer exactly as a one-shot build of the same prefix does, and every
// earlier one to answer as it did once the builder has grown past it.
// The programs must include a Let at a top state a Build published, a
// message in flight at one build and received after it, and a new name
// sorting before names a Build published.
func TestBuildIsSnapshot(t *testing.T) {
	var letAtTop, inFlight, nameBefore int
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		prog := randomProgram(r, n, 10+r.Intn(90))
		b := deposet.NewBuilder(n)
		var handles []deposet.MsgHandle
		type built struct {
			d  *deposet.Deposet
			fp string
		}
		var builds []built
		lens := slices.Repeat([]int{1}, n)
		var topAtBuild []int // each process's top state at the last build
		sentAtBuild := 0
		names := map[string]bool{}
		for i := 0; i < len(prog); {
			end := i + 1 + r.Intn(len(prog)-i)
			for ; i < end; i++ {
				c := prog[i]
				switch {
				case c.kind == 'l' && topAtBuild != nil && lens[c.p]-1 == topAtBuild[c.p]:
					letAtTop++
				case c.kind == 'r' && c.msg < sentAtBuild:
					inFlight++
				}
				if c.kind == 'l' && !names[c.name] && len(names) > 0 && builds != nil {
					nameBefore++
				}
				if c.kind == 'l' {
					names[c.name] = true
				} else {
					lens[c.p]++
				}
				c.run(b, &handles)
			}
			bySender := r.Intn(2) == 0
			d := build(t, b, bySender)
			one := deposet.NewBuilder(n)
			var oneHandles []deposet.MsgHandle
			for _, c := range prog[:end] {
				c.run(one, &oneHandles)
			}
			fp := fingerprint(t, d)
			if want := fingerprint(t, build(t, one, bySender)); fp != want {
				t.Fatalf("seed %d: build after %d calls (bySender %v) answers\n%s\none-shot build:\n%s", seed, end, bySender, fp, want)
			}
			builds = append(builds, built{d, fp})
			topAtBuild = slices.Clone(lens)
			sentAtBuild = len(handles)
		}
		for i, x := range builds {
			if fp := fingerprint(t, x.d); fp != x.fp {
				t.Fatalf("seed %d: build %d of %d changed as the builder grew:\n%s\nwas:\n%s", seed, i, len(builds), fp, x.fp)
			}
		}
	}
	t.Logf("%d Lets at a published top state, %d receives of messages in flight at a build, %d names sorting before published ones",
		letAtTop, inFlight, nameBefore)
	if letAtTop == 0 || inFlight == 0 || nameBefore == 0 {
		t.Fatal("a case the test must cover never came up")
	}
}

// TestBuildWhileReading reads a built deposet on one goroutine while
// another grows its builder, with Lets at the published top states, new
// names and receives of messages in flight, and builds again: under the
// race detector, a write into anything a deposet shares shows up here.
func TestBuildWhileReading(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 3
	prog := randomProgram(r, n, 10000)
	b := deposet.NewBuilder(n)
	var handles []deposet.MsgHandle
	for _, c := range prog[:300] {
		c.run(b, &handles)
	}
	for p := range n {
		b.Let(p, "v99", 1)
	}
	d := build(t, b, false)
	want := fingerprint(t, d)
	done := make(chan error)
	go func() {
		for p := range n {
			b.Let(p, "v99", 2) // at the top state d ends at
		}
		var err error
		for i, c := range prog[300:] {
			c.run(b, &handles)
			if i%10 == 0 {
				_, err = b.BuildBySender()
			}
		}
		done <- err
	}()
	for {
		if got := fingerprint(t, d); got != want {
			t.Fatal("a built deposet changed while its builder grew")
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
