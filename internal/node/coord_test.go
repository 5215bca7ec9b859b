package node

import (
	"net"
	"testing"
	"time"

	"predctl/internal/obs"
	"predctl/internal/wire"
)

// coord_test.go: coordinator ingest under concurrency. N synthetic node
// clients stream interleaved JournalBatch / TraceOpBatch / legacy Trace
// / JournalEvent frames over real TCP at once; the per-connection
// staging buffers must still reassemble a topologically valid
// 2n-process deposet and a complete merged journal. Run under -race
// (make check does), this pins the claim that the batched ingest path
// needs no coordinator-mutex serialization.

// synthNodeOps builds node i's capture: ops for its app process (i) and
// controller process (n+i), including a cross-node controller ring —
// ctl i sends a message received by ctl (i+1)%n — so assembly must
// match sends to receives *across* connections, not just within one.
func synthNodeOps(i, n int) (app, ctl []wire.TraceOp) {
	reqID := uint64(i)<<40 | 1     // app i → ctl i
	grantID := uint64(n+i)<<40 | 1 // ctl i → app i
	ringID := uint64(n+i)<<40 | 2  // ctl i → ctl (i+1)%n
	prevRing := uint64(n+(i+n-1)%n)<<40 | 2
	app = []wire.TraceOp{
		{Op: wire.TraceInit, Proc: int32(i), Name: "cs", Value: 0},
		{Op: wire.TraceSend, Proc: int32(i), MsgID: reqID},
		{Op: wire.TraceRecv, Proc: int32(i), MsgID: grantID},
		{Op: wire.TraceSet, Proc: int32(i), Name: "cs", Value: 1},
		{Op: wire.TraceSet, Proc: int32(i), Name: "cs", Value: 0},
	}
	ctl = []wire.TraceOp{
		{Op: wire.TraceRecv, Proc: int32(n + i), MsgID: reqID},
		{Op: wire.TraceSend, Proc: int32(n + i), MsgID: grantID},
		{Op: wire.TraceSend, Proc: int32(n + i), MsgID: ringID},
		{Op: wire.TraceRecv, Proc: int32(n + i), MsgID: prevRing},
	}
	return app, ctl
}

// runSynthNode plays one synthetic node against the coordinator:
// handshake, interleaved batch frames in chunks small enough to force
// many frames per process, Done, then the Shutdown dance.
func runSynthNode(t *testing.T, addr string, i, n int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("node %d: dial: %v", i, err)
		return
	}
	defer conn.Close()
	var seq uint64
	send := func(m wire.Msg) {
		seq++
		if err := wire.WriteFrame(conn, seq, m); err != nil {
			t.Errorf("node %d: write: %v", i, err)
		}
	}
	send(wire.Hello{From: int32(i), N: int32(n), Inc: uint64(i) + 1})

	appOps, ctlOps := synthNodeOps(i, n)
	// Interleave the two logical processes' streams and chop them into
	// 2-op batches: per-process order is preserved, frame boundaries
	// land mid-process, and app/ctl ops share frames — the shapes the
	// flusher actually produces.
	mixed := make([]wire.TraceOp, 0, len(appOps)+len(ctlOps))
	for k := 0; k < len(appOps) || k < len(ctlOps); k++ {
		if k < len(appOps) {
			mixed = append(mixed, appOps[k])
		}
		if k < len(ctlOps) {
			mixed = append(mixed, ctlOps[k])
		}
	}
	for len(mixed) > 0 {
		k := min(2, len(mixed))
		if k == 2 && len(mixed)%4 == 0 {
			// Some chunks ride the legacy unbatched frame: the
			// coordinator must ingest both kinds into one staging stream.
			send(wire.Trace{Ops: mixed[:k]})
		} else {
			send(wire.TraceOpBatch{Ops: mixed[:k]})
		}
		mixed = mixed[k:]
		send(wire.JournalBatch{Events: []wire.JournalEvent{
			{At: int64(i), Proc: int32(n + i), Kind: uint8(obs.KindControl), Name: "synth.batch"},
		}})
	}
	send(wire.JournalEvent{At: int64(i), Proc: int32(i), Kind: uint8(obs.KindSet), Name: "synth.single", A: 1})
	send(wire.CandidateBatch{Cands: []wire.Candidate{
		{Proc: int32(i), LoIdx: 3, HiIdx: 4, Lo: []int32{1}, Hi: []int32{2}},
		{Proc: int32(i), LoIdx: 4, HiIdx: 5, Lo: []int32{2}, Hi: []int32{3}},
	}})
	send(wire.Done{Proc: int32(i), Requests: 1})

	// Read the answer to the Hello, wait for the coordinator's Shutdown
	// broadcast, then bye.
	br := bufReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, want := range []wire.Msg{wire.Restart{Inc: uint64(i) + 1}, wire.Shutdown{}} {
		if _, m, err := wire.ReadFrame(br); err != nil {
			t.Errorf("node %d: reading %T: %v", i, want, err)
			return
		} else if m != want {
			t.Errorf("node %d: got %#v, want %#v", i, m, want)
			return
		}
	}
	send(wire.Shutdown{})

	// Stay parked until the coordinator seals the run: reading the
	// Commit keeps the connection open through the bye collection, the
	// real node lifecycle.
	for {
		_, m, err := wire.ReadFrame(br)
		if err != nil {
			t.Errorf("node %d: waiting for Commit: %v", i, err)
			return
		}
		if _, ok := m.(wire.Commit); ok {
			return
		}
	}
}

func TestCoordinatorConcurrentBatchIngest(t *testing.T) {
	const n = 8
	j := obs.NewJournal(1 << 12)
	c, err := NewCoordinator(CoordConfig{
		N: n, Addr: "127.0.0.1:0", Journal: j, Timeouts: testTimeouts(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		go runSynthNode(t, c.Addr(), i, n)
	}
	res, err := c.Wait(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Deposet
	if d.NumProcs() != 2*n {
		t.Fatalf("assembled %d processes, want %d", d.NumProcs(), 2*n)
	}
	for i := 0; i < n; i++ {
		// App processes traced 4 state-advancing ops each (send, recv,
		// 2 sets) on top of ⊥; controllers 4 (recv, 2 sends, recv).
		if d.Len(i) != 5 {
			t.Errorf("app %d: %d states, want 5", i, d.Len(i))
		}
		if d.Len(n+i) != 5 {
			t.Errorf("ctl %d: %d states, want 5", i, d.Len(n+i))
		}
		if res.Stats[i].Requests != 1 {
			t.Errorf("node %d: stats not ingested: %+v", i, res.Stats[i])
		}
	}
	// Each node's CandidateBatch carried 2 reports.
	if res.Candidates != 2*n {
		t.Errorf("ingested %d candidates, want %d", res.Candidates, 2*n)
	}
	// Journal completeness: each node sent 5 batch events (one per op
	// chunk) + 1 single event. Candidate reports no longer synthesize
	// journal events coordinator-side — real nodes journal their own
	// monitor.candidate twin with an actual emission timestamp.
	want := n * 6
	if j.Len() != want {
		t.Errorf("merged journal has %d events, want %d", j.Len(), want)
	}
}

// TestIngestBench pins the exported bench hook: pre-encoded batch
// bodies replay through the same ingest path and stage every op.
func TestIngestBench(t *testing.T) {
	appOps, ctlOps := synthNodeOps(0, 2)
	bodies := [][]byte{
		wire.Marshal(1, wire.TraceOpBatch{Ops: appOps})[4:],
		wire.Marshal(2, wire.JournalBatch{Events: []wire.JournalEvent{{Proc: 2, Kind: uint8(obs.KindControl), Name: "x"}}})[4:],
		wire.Marshal(3, wire.Trace{Ops: ctlOps})[4:],
	}
	j := obs.NewJournal(64)
	staged, err := IngestBench(2, j, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(appOps) + len(ctlOps); staged != want {
		t.Fatalf("staged %d ops, want %d", staged, want)
	}
	if j.Len() != 1 {
		t.Fatalf("journal has %d events, want 1", j.Len())
	}
}
