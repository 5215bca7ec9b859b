package replay

import (
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
)

// BenchmarkRun replays the repository benchmark's offline-cycle input
// (bench/offline.go: 16 processes, 250,000 events, seed 1998, B true at
// 80% of states) under its Figure-2 relation. The replay's size is
// checked so the number is never for some other execution.
func BenchmarkRun(b *testing.B) {
	const seed, wantStates, wantMessages = 1998, 297_269, 93_534
	r := rand.New(rand.NewSource(seed))
	d := deposet.Random(r, deposet.DefaultGen(16, 250_000))
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.8))
	ctl, err := offline.Control(d, dj, offline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(d, ctl.Relation, Config{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		if s, m := res.Trace.D.NumStates(), res.Trace.Stats.Messages; s != wantStates || m != wantMessages {
			b.Fatalf("replay holds %d states / %d messages, want %d / %d", s, m, wantStates, wantMessages)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/wantStates, "ns/event")
}
