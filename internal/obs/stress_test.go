package obs_test

import (
	"strconv"
	"sync"
	"testing"

	"predctl/internal/kmutex"
	"predctl/internal/obs"
)

// TestStressConcurrentInstrumentation runs many instrumented
// online-control runs concurrently — per-run journals, one shared
// registry — and asserts the journals lost nothing and kept
// per-process order. Run with -race (the Makefile check target does)
// this is the concurrency-soundness gate for the obs layer.
func TestStressConcurrentInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	const runs = 8
	var wg sync.WaitGroup
	errs := make(chan error, runs)

	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := obs.NewJournal(0)
			w := kmutex.Workload{
				N: 4, Rounds: 6, ThinkMax: 50, CS: 10, Delay: 3,
				Seed: int64(100 + i), Journal: j, Reg: reg,
				MetricLabels: []obs.Label{obs.L("run", strconv.Itoa(i))},
			}
			_, m, err := kmutex.RunScapegoat(w, i%2 == 1)
			if err != nil {
				errs <- err
				return
			}

			// Nothing lost: the ring never wrapped, and the sequence
			// numbers account for every append.
			if j.Dropped() != 0 {
				t.Errorf("run %d: dropped %d events", i, j.Dropped())
			}
			events := j.Events()
			sets := 0
			for _, e := range events {
				if e.Kind == obs.KindSet && e.Name == "cs" {
					sets++
				}
			}
			// Init plus one flip pair per CS entry, per process.
			if want := w.N + 2*m.Entries; sets != want {
				t.Errorf("run %d: %d cs events, want %d", i, sets, want)
			}

			// Nothing reordered: global Seq strictly increases in
			// retained order, and per process virtual time never goes
			// backwards.
			lastAt := map[int]int64{}
			for k, e := range events {
				if k > 0 && e.Seq <= events[k-1].Seq {
					t.Errorf("run %d: seq out of order at %d", i, k)
					break
				}
				if e.At < lastAt[e.Proc] {
					t.Errorf("run %d: P%d time went backwards at seq %d", i, e.Proc, e.Seq)
					break
				}
				lastAt[e.Proc] = e.At
			}

			var rep obs.Report
			rep.CheckScapegoatChain(j)
			if err := rep.Err(); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The shared registry saw every run: 4 procs × 6 rounds × 8 runs.
	var entries int64
	for i := 0; i < runs; i++ {
		proto := "scapegoat"
		if i%2 == 1 {
			proto = "scapegoat-broadcast"
		}
		entries += reg.Counter("predctl_cs_entries_total",
			obs.L("proto", proto), obs.L("run", strconv.Itoa(i))).Value()
	}
	if want := int64(4 * 6 * runs); entries != want {
		t.Fatalf("registry counted %d entries, want %d", entries, want)
	}
}
