package detect

import (
	"fmt"

	"predctl/internal/deposet"
	"predctl/internal/predicate"
)

// SGSDStats reports the work done by a satisfying-global-sequence search.
type SGSDStats struct {
	NodesExplored int // B-true consistent cuts dequeued
	NodesQueued   int // B-true consistent cuts discovered
}

// MaxSGSDProcs bounds the process count for SGSD: each search node has up
// to 2ⁿ−1 successors (simultaneous advance), so wider systems are
// intractable by construction — that intractability is the content of the
// paper's Lemma 1.
const MaxSGSDProcs = 24

// SGSD solves Satisfying Global Sequence Detection (paper §4): does d
// have a global sequence every state of which satisfies b? If so it
// returns one such sequence, otherwise nil; the statistics report the
// search effort either way. The only error is a simultaneous search over
// more than MaxSGSDProcs processes.
//
// With simultaneous=true this is the paper's definition — a step may
// advance any non-empty set of processes at once, which matters for
// predicates like XOR that are false at every intermediate interleaving.
// With simultaneous=false steps advance a single process; the resulting
// sequences are exactly those enforceable by a control strategy (added
// causality cannot force two processes to step at the same instant), so
// the single-step variant is what general off-line control builds on.
//
// The search is breadth-first over B-true consistent cuts and visits each
// at most once; worst-case exponential in both the lattice size and (for
// simultaneous) the process count. Lemma 1: this problem is NP-complete,
// so no materially better general algorithm is expected.
func SGSD(d *deposet.Deposet, b predicate.Expr, simultaneous bool) (deposet.Sequence, SGSDStats, error) {
	n := d.NumProcs()
	var stats SGSDStats
	if simultaneous && n > MaxSGSDProcs {
		return nil, stats, fmt.Errorf("detect: SGSD limited to %d processes (got %d)", MaxSGSDProcs, n)
	}
	bottom := d.BottomCut()
	if !b.Eval(d, bottom) {
		return nil, stats, nil // ⊥ is on every sequence
	}
	top := d.TopCut()
	type node struct {
		cut    deposet.Cut
		parent string
	}
	visited := map[string]node{bottom.Key(): {bottom, ""}}
	queue := []deposet.Cut{bottom}
	stats.NodesQueued = 1

	reconstruct := func(key string) deposet.Sequence {
		var rev deposet.Sequence
		for key != "" {
			nd := visited[key]
			rev = append(rev, nd.cut)
			key = nd.parent
		}
		seq := make(deposet.Sequence, len(rev))
		for i := range rev {
			seq[i] = rev[len(rev)-1-i]
		}
		return seq
	}

	// advanceable processes from g
	adv := make([]int, 0, n)
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		stats.NodesExplored++
		if g.Equal(top) {
			return reconstruct(g.Key()), stats, nil
		}
		gKey := g.Key()
		adv = adv[:0]
		for p := 0; p < n; p++ {
			if g[p]+1 < d.Len(p) {
				adv = append(adv, p)
			}
		}
		tryCut := func(h deposet.Cut) {
			key := h.Key()
			if _, seen := visited[key]; seen {
				return
			}
			if !d.Consistent(h) || !b.Eval(d, h) {
				return
			}
			visited[key] = node{h, gKey}
			queue = append(queue, h)
			stats.NodesQueued++
		}
		if simultaneous {
			for mask := 1; mask < 1<<len(adv); mask++ {
				h := g.Clone()
				for bit, p := range adv {
					if mask&(1<<bit) != 0 {
						h[p]++
					}
				}
				tryCut(h)
			}
		} else {
			for _, p := range adv {
				h := g.Clone()
				h[p]++
				tryCut(h)
			}
		}
	}
	return nil, stats, nil
}
