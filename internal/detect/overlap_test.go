package detect

import (
	"testing"

	"predctl/internal/deposet"
)

// TestOverlapBoundaryReading pins down why Overlaps compares the
// boundary-adjacent states (lo−1, hi+1) rather than the interval endpoint
// states themselves.
//
// The computation: P0 and P1 each send a message from their initial state
// and receive the other's message as their second event, then take one
// local step:
//
//	P0:  ⊥ —send m0→ 1 —recv m1→ 2 —·→ 3
//	P1:  ⊥ —send m1→ 1 —recv m0→ 2 —·→ 3
//
// so m0 relates (0,0) ⇝ (1,2) and m1 relates (1,0) ⇝ (0,2). Let q hold
// exactly on states [1..2] of each process. Exhaustively, every global
// sequence passes through a cut with both processes in [1..2]: the cut
// (g0=0, g1≥2) is inconsistent (m0 orphaned) and (g0≥2, g1=0) likewise
// (m1), so neither process can cross its q-interval while the other
// stays at ⊥ — definitely(q0 ∧ q1) holds.
//
// Yet the endpoint-state reading fails: I0.lo = (0,1) does not causally
// precede I1.hi = (1,2) (m0 emanates from (0,0), not (0,1)). Only the
// boundary-adjacent reading (0,0) → (1,3) captures the forced overlap.
func TestOverlapBoundaryReading(t *testing.T) {
	b := deposet.NewBuilder(2)
	_, h0 := b.Send(0)
	_, h1 := b.Send(1)
	b.Recv(0, h1)
	b.Recv(1, h0)
	b.Step(0)
	b.Step(1)
	d := b.MustBuild()

	i0 := deposet.Interval{P: 0, Lo: 1, Hi: 2}
	i1 := deposet.Interval{P: 1, Lo: 1, Hi: 2}

	// Endpoint-state reading: no causality between the endpoints.
	if d.HB(i0.LoState(), i1.HiState()) || d.HB(i1.LoState(), i0.HiState()) {
		t.Fatal("endpoint states unexpectedly ordered; computation changed?")
	}
	// Boundary-adjacent reading: overlap holds both ways.
	if !Overlaps(d, i0, i1) || !Overlaps(d, i1, i0) {
		t.Fatal("Overlaps should hold in both directions")
	}

	// Ground truth: definitely(q0 ∧ q1) via both the interval algorithm
	// and the exhaustive sequence search.
	cj := conjFromTruth([][]bool{
		{false, true, true, false},
		{false, true, true, false},
	})
	if _, ok := DefinitelyConjunctive(d, cj); !ok {
		t.Fatal("DefinitelyConjunctive should hold")
	}
	if _, avoidable := sgsd(d, notConj(cj), true); avoidable {
		t.Fatal("no sequence should avoid the all-q cut")
	}
}

// TestOverlapBottomTopClauses exercises the ⊥/⊤ escape clauses.
func TestOverlapBottomTopClauses(t *testing.T) {
	d := line(t, 4, 4)
	fromBottom := deposet.Interval{P: 0, Lo: 0, Hi: 1}
	toTop := deposet.Interval{P: 1, Lo: 2, Hi: 3}
	mid := deposet.Interval{P: 1, Lo: 1, Hi: 1}
	if !Overlaps(d, fromBottom, mid) {
		t.Error("lo=⊥ clause failed")
	}
	if !Overlaps(d, mid, toTop) {
		t.Error("hi=⊤ clause failed")
	}
	if Overlaps(d, deposet.Interval{P: 0, Lo: 1, Hi: 1}, mid) {
		t.Error("independent mid intervals should not overlap")
	}
}

// TestDefinitelySimultaneityGap documents a semantic gap in the paper:
// its global sequences permit simultaneous advances ("this does not
// enforce an interleaving"), but the interval-overlap characterization it
// imports from Garg–Waldecker (Lemma 2) is stated for interleavings. The
// two disagree on computations where a bad cut can only be dodged by two
// processes stepping at the same instant — which no control strategy
// (added causality) can enforce, so the interleaving reading is the one
// under which "no controller exists ⟺ overlap" is sound.
//
// Found by property testing (seed -8251085005216216580):
//
//	P0: q at state 1 only (of 6); P1: q at state 0 and states 2..6 (of 7);
//	messages P0.e1→P1.e1, P0.e2→P1.e2, P0.e3→P1.e4, P0.e4→P1.e5.
//
// Every interleaving hits an all-q cut, but the simultaneous step
// ⟨0,0⟩→⟨1,1⟩ (P0 enters its q-state exactly as P1 leaves its own)
// dodges it.
func TestDefinitelySimultaneityGap(t *testing.T) {
	raw := deposet.Raw{
		Lens: []int{6, 7},
		Msgs: []deposet.Message{
			{FromP: 0, SendEvent: 1, ToP: 1, RecvEvent: 1},
			{FromP: 0, SendEvent: 2, ToP: 1, RecvEvent: 2},
			{FromP: 0, SendEvent: 3, ToP: 1, RecvEvent: 4},
			{FromP: 0, SendEvent: 4, ToP: 1, RecvEvent: 5},
		},
	}
	d, err := deposet.FromRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	cj := conjFromTruth([][]bool{
		{false, true, false, false, true, false},
		{true, false, true, true, true, true, true},
	})
	if _, ok := DefinitelyConjunctive(d, cj); !ok {
		t.Fatal("interval overlap should hold")
	}
	if _, ok := sgsd(d, notConj(cj), false); ok {
		t.Fatal("no interleaving should avoid the all-q cuts")
	}
	if _, ok := sgsd(d, notConj(cj), true); !ok {
		t.Fatal("a simultaneous-advance sequence should dodge the all-q cuts")
	}
}
