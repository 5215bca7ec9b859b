package replay

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"predctl/internal/deposet"
	"predctl/internal/offline"
	"predctl/internal/predicate"
	"predctl/internal/sim"
	"predctl/internal/trace"
)

// replayGoldens pins the replay's observable output — the encoded
// replayed trace, the per-state virtual times, the run statistics and
// the underlying-state mapping — for 8 seeds under a constant and a
// uniform delay. The hashes were recorded at the commit before the
// simulator's central loop became a hand-off (PR 19) and must never
// change for a kernel or replay edit that claims to preserve event
// order: a different hash means a different execution.
var replayGoldens = []struct {
	seed    int64
	uniform bool
	hash    uint64
}{
	{1, false, 0x2e0105f37ea1eb9d},
	{1, true, 0x0a9e58d1d821058d},
	{2, false, 0xfa8115d321b29593},
	{2, true, 0x017ee77141f3dedf},
	{3, false, 0x2e66283b91d32073},
	{3, true, 0x5ecf44e81df62735},
	{4, false, 0xcfcebfb0e3847296},
	{4, true, 0x085d3b47f5ea9b9f},
	{5, false, 0x6ce3bd6550a63a06},
	{5, true, 0x4e48e520c6ff6ded},
	{6, false, 0x018fe3359d08cfcc},
	{6, true, 0x5bb5f1f11a8de913},
	{7, false, 0x723ab272c76b430f},
	{7, true, 0xc22fc6b7c23ad217},
	{8, false, 0x2b9febb9c0b6f6a0},
	{8, true, 0xf96c40904b873924},
}

// goldenInput is the seeded computation and its Figure-2 relation.
func goldenInput(t *testing.T, seed int64) (*deposet.Deposet, *offline.Result) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d, err := deposet.RandomBuilder(r, deposet.DefaultGen(4, 600)).Build()
	if err != nil {
		t.Fatal(err)
	}
	dj := predicate.DisjunctionFromTruth(deposet.RandomTruth(r, d, 0.8))
	ctl, err := offline.Control(d, dj, offline.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return d, ctl
}

func hashResult(t *testing.T, res *Result) uint64 {
	t.Helper()
	var enc bytes.Buffer
	if err := trace.Encode(&enc, res.Trace.D, nil); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(enc.Bytes())
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, ts := range res.Trace.Times {
		word(int64(len(ts)))
		for _, at := range ts {
			word(int64(at))
		}
	}
	word(int64(res.Trace.Stats.Messages))
	word(int64(res.Trace.Stats.Events))
	word(int64(res.Trace.Stats.End))
	for _, us := range res.Underlying {
		word(int64(len(us)))
		for _, u := range us {
			word(int64(u))
		}
	}
	return h.Sum64()
}

func TestReplayOrderGoldens(t *testing.T) {
	for _, g := range replayGoldens {
		d, ctl := goldenInput(t, g.seed)
		if len(ctl.Relation) == 0 {
			t.Fatalf("seed %d: empty relation pins nothing", g.seed)
		}
		cfg := Config{Seed: g.seed, Delay: sim.ConstantDelay(1)}
		if g.uniform {
			cfg.Delay = sim.UniformDelay(1, 9)
		}
		res, err := Run(d, ctl.Relation, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		if got := hashResult(t, res); got != g.hash {
			t.Errorf("{%d, %v, %#016x}: replay hashes to %#016x", g.seed, g.uniform, g.hash, got)
		}
	}
}
