package node

// relay_test.go pins the hierarchical-ingest tier: real cluster runs
// through a 2-level aggregation tree (fault-free, relay kill, chaos
// soak, disk-backed store), and scripted byte-equivalence runs proving
// that neither the relay hop, a relay crash mid-stream, nor spilling
// capture to the trace store changes a single byte of the assembled
// trace.

import (
	"bytes"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"predctl/internal/obs"
	"predctl/internal/store"
	"predctl/internal/trace"
	"predctl/internal/wire"
)

func TestClusterTree(t *testing.T) {
	const n, rounds = 4, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: testTimeouts(), Relays: 2,
	})
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChainNet(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The whole point of the tree: the root terminated relay uplinks,
	// not n node streams. Every handshake the root accepted must have
	// been a RelayHello (2 relays, no crashes, no resumes).
	if res.RootConns != 2 {
		t.Errorf("root accepted %d stream handshakes, want 2 (one per relay)", res.RootConns)
	}
	if res.RootFrames == 0 {
		t.Error("root ingested zero frames through the tree")
	}
}

// TestClusterTreeRelayCrash kills a relay mid-run: the children heal by
// session-resuming against the relaunched relay, the root dedups the
// replayed overlap by inner sequence, and — unlike a node crash — no
// epoch restart happens, because no capture was lost.
func TestClusterTreeRelayCrash(t *testing.T) {
	const n, rounds = 4, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 7, Timeouts: chaosTimeouts(), Relays: 2,
		RelayCrashes: []Crash{{At: 8 * time.Millisecond, Node: 0, Down: 5 * time.Millisecond}},
	})
	if res.Restarts != 0 {
		t.Fatalf("a relay kill (no node crash) triggered %d epoch restarts", res.Restarts)
	}
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChainNet(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTreeChaosSoak is the -race soak on the tree path: node
// crashes (epoch restarts), a relay kill, probabilistic faults and a
// coordinator-stream partition, all composed — the run must complete
// with zero capture loss and the invariants green.
func TestClusterTreeChaosSoak(t *testing.T) {
	const n, rounds = 4, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 42, Timeouts: chaosTimeouts(), Relays: 2,
		Faults: Faults{Drop: 0.1, Delay: 500 * time.Microsecond, Seed: 42},
		Crashes: []Crash{
			{At: 5 * time.Millisecond, Node: 1, Down: 3 * time.Millisecond},
			{At: 20 * time.Millisecond, Node: 2, Down: 4 * time.Millisecond},
		},
		RelayCrashes: []Crash{{At: 12 * time.Millisecond, Node: 1, Down: 4 * time.Millisecond}},
	})
	if res.Restarts < 1 {
		t.Fatalf("soak schedule produced %d restarts, want ≥ 1", res.Restarts)
	}
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChainNet(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTreeStoreBundle runs the tree with capture spilling to the
// on-disk trace store: the run completes with full capture, and the
// store directory is a sealed, verifiable bundle whose records
// reassemble the run.
func TestClusterTreeStoreBundle(t *testing.T) {
	const n, rounds = 4, 3
	dir := t.TempDir()
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 2 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: testTimeouts(), Relays: 2, StoreDir: dir,
	})
	checkFullCapture(t, res, n, rounds)
	checkControlled(t, res.Deposet, n)
	var rep obs.Report
	rep.CheckScapegoatChainNet(j)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	man, err := store.Verify(dir)
	if err != nil {
		t.Fatalf("sealed bundle fails verification: %v", err)
	}
	if man.N != n {
		t.Fatalf("manifest n=%d, want %d", man.N, n)
	}
	records := 0
	if _, err := store.ReplayBundle(dir, func(wire.SegmentRecord, uint64, wire.Msg) error {
		records++
		return nil
	}); err != nil {
		t.Fatalf("bundle replay: %v", err)
	}
	if records == 0 {
		t.Fatal("sealed bundle holds no records")
	}
	if _, err := store.Verify(filepath.Dir(dir)); err == nil {
		t.Fatal("Verify accepted a directory with no manifest")
	}
}

// scriptedFrames is one scripted node's deterministic capture: a small
// valid trace (init, a cross-node message, steps) plus journal events
// with fixed timestamps, split into two halves so a test can break the
// transport between them.
func scriptedFrames(n, id int) (first, second []wire.Msg) {
	app, ctl := int32(id), int32(n+id)
	msgID := uint64(id)<<40 | 1
	first = []wire.Msg{
		wire.TraceOpBatch{Ops: []wire.TraceOp{
			{Op: wire.TraceInit, Proc: app, Name: "cs", Value: 0},
			{Op: wire.TraceInit, Proc: ctl, Name: "tokens", Value: int64(id)},
			{Op: wire.TraceStep, Proc: app},
			{Op: wire.TraceSend, Proc: ctl, MsgID: msgID},
		}},
		wire.JournalEvent{At: int64(100 + id), Proc: app, Kind: 1, Name: "scripted.first", A: int64(id)},
	}
	// Every node receives its left neighbor's message: the cross-node
	// edges force assemble's topological sweep across streams.
	prev := uint64((id+n-1)%n)<<40 | 1
	second = []wire.Msg{
		wire.TraceOpBatch{Ops: []wire.TraceOp{
			{Op: wire.TraceRecv, Proc: ctl, MsgID: prev},
			{Op: wire.TraceSet, Proc: app, Name: "cs", Value: 1},
			{Op: wire.TraceSet, Proc: app, Name: "cs", Value: 0},
		}},
		wire.JournalEvent{At: int64(200 + id), Proc: ctl, Kind: 1, Name: "scripted.second", B: int64(id)},
		wire.Done{Proc: app, Requests: 1},
	}
	return first, second
}

// runScripted drives n scripted capture streams through an optional
// relay tier into a coordinator and returns the assembled result. When
// killRelay is set, the relay is killed and relaunched between the two
// halves of the script, forcing every client through a session resume
// and the root through a full-replay dedup.
func runScripted(t *testing.T, n int, relays, killRelay bool, storeDir string, opts ...func(*CoordConfig)) (*Result, *obs.Journal) {
	t.Helper()
	j := obs.NewJournal(0)
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(store.Config{Dir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
	}
	cfg := CoordConfig{
		N: n, Addr: "127.0.0.1:0", Journal: j, Reg: obs.NewRegistry(),
		Timeouts: chaosTimeouts(), Logf: t.Logf, Store: st,
	}
	for _, o := range opts {
		o(&cfg)
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	opt := chaosTimeouts().withDefaults()
	addr := coord.Addr()
	var rl *Relay
	var relayAddr string
	if relays {
		rl, err = StartRelay(RelayConfig{
			Index: 0, Relays: 1, N: n, Upstream: coord.Addr(),
			Addr: "127.0.0.1:0", Timeouts: chaosTimeouts(), Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		relayAddr = rl.Addr()
		addr = relayAddr
		defer func() { rl.Close() }()
	}

	ccs := make([]*coordClient, n)
	for i := 0; i < n; i++ {
		cc, err := dialCoord(addr, i, n, Batching{}, newWireMeters(nil, "coord", nil), opt, nil, t.Logf)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		ccs[i] = cc
		defer cc.close()
	}
	for i, cc := range ccs {
		first, _ := scriptedFrames(n, i)
		for _, m := range first {
			cc.send(m)
		}
	}
	if killRelay {
		// Let the first halves drain upstream, then kill the relay
		// abruptly and relaunch it on the same address: the clients'
		// session machinery resumes, the relaunched relay acks Cum=0,
		// and the full replays dedup at the root.
		time.Sleep(50 * time.Millisecond)
		rl.Close()
		ln, err := net.Listen("tcp", relayAddr)
		if err != nil {
			t.Fatalf("relaunch relay listen: %v", err)
		}
		rl, err = StartRelay(RelayConfig{
			Index: 0, Relays: 1, N: n, Upstream: coord.Addr(),
			Listener: ln, Timeouts: chaosTimeouts(), Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("relaunch relay: %v", err)
		}
	}
	for i, cc := range ccs {
		_, second := scriptedFrames(n, i)
		for _, m := range second {
			cc.send(m)
		}
	}
	// Completion protocol: wait for the Shutdown broadcast, echo it as
	// the bye, wait for Commit.
	for i, cc := range ccs {
		select {
		case e := <-cc.shutdownEv:
			cc.send(wire.Shutdown{Epoch: e})
		case <-time.After(10 * time.Second):
			t.Fatalf("client %d: no Shutdown broadcast", i)
		}
	}
	for i, cc := range ccs {
		select {
		case <-cc.commitCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("client %d: no Commit broadcast", i)
		}
	}
	res, err := coord.Wait(30 * time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return res, j
}

func encodeTrace(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, res.Deposet, nil); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRelayCrashResumeEquivalence is the byte-identity gate for the
// relay tier: the same scripted capture assembled (a) flat, (b)
// through a relay, and (c) through a relay that crashed and was
// relaunched mid-script must produce byte-identical traces and
// identical merged journals.
func TestRelayCrashResumeEquivalence(t *testing.T) {
	const n = 3
	flat, jFlat := runScripted(t, n, false, false, "")
	tree, jTree := runScripted(t, n, true, false, "")
	crash, jCrash := runScripted(t, n, true, true, "")

	want := encodeTrace(t, flat)
	if got := encodeTrace(t, tree); !bytes.Equal(got, want) {
		t.Error("relayed trace differs from flat trace")
	}
	if got := encodeTrace(t, crash); !bytes.Equal(got, want) {
		t.Error("relay-crash trace differs from flat trace")
	}
	if !reflect.DeepEqual(jTree.Events(), jFlat.Events()) {
		t.Error("relayed journal differs from flat journal")
	}
	if !reflect.DeepEqual(jCrash.Events(), jFlat.Events()) {
		t.Error("relay-crash journal differs from flat journal")
	}
	for _, res := range []*Result{flat, tree, crash} {
		if res.Candidates != 0 || res.Epoch != 0 || res.Restarts != 0 {
			t.Errorf("scripted run completed dirty: %+v", res)
		}
	}
}

// TestStoreEquivalence is the byte-identity gate for the disk spill:
// the same scripted capture assembled from RAM staging and from the
// segmented trace store must be byte-identical, and the sealed bundle
// must verify.
func TestStoreEquivalence(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ram, jRAM := runScripted(t, n, false, false, "")
	disk, jDisk := runScripted(t, n, false, false, dir)

	if got, want := encodeTrace(t, disk), encodeTrace(t, ram); !bytes.Equal(got, want) {
		t.Error("disk-backed trace differs from in-RAM trace")
	}
	if !reflect.DeepEqual(jDisk.Events(), jRAM.Events()) {
		t.Error("disk-backed journal differs from in-RAM journal")
	}
	man, err := store.Verify(dir)
	if err != nil {
		t.Fatalf("sealed bundle fails verification: %v", err)
	}
	if man.N != n || man.Epoch != 0 {
		t.Fatalf("manifest %+v, want n=%d epoch=0", man, n)
	}
}

// TestRelayFlushKeepsOriginOrder pins the relay's forwarding order
// under concurrent flushes. Several child handlers stage capture frames
// at once while Hellos — each of which flushes synchronously from the
// staging goroutine — land between them and the flusher goroutine ticks
// on its own: whatever the interleaving, the root must see every
// origin's inner sequences strictly increasing with none missing, or
// its replay-overlap dedup would drop the overtaken frames (the
// cold-start "process N wedged" / lost-Done failures).
func TestRelayFlushKeepsOriginOrder(t *testing.T) {
	const origins, frames, helloEvery = 6, 1500, 25
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A stand-in root: answer the RelayHello, then record the inner
	// sequence of every relayed frame in arrival order.
	type arrival struct {
		origin int32
		iseq   uint64
	}
	arrivals := make(chan arrival, origins*frames)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufReader(conn)
		if _, m, err := wire.ReadFrame(br); err != nil {
			t.Errorf("root: handshake: %v", err)
			return
		} else if _, ok := m.(wire.RelayHello); !ok {
			t.Errorf("root: first frame %T, want RelayHello", m)
			return
		}
		if err := wire.WriteFrame(conn, 0, wire.ResumeAck{}); err != nil {
			t.Errorf("root: ack: %v", err)
			return
		}
		for {
			_, m, err := wire.ReadFrame(br)
			if err != nil {
				return // the relay closed its uplink
			}
			batch, ok := m.(wire.RelayBatch)
			if !ok {
				t.Errorf("root: got %T, want RelayBatch", m)
				return
			}
			for _, f := range batch.Frames {
				_, iseq, err := wire.PeekBody(f.Body)
				if err != nil {
					t.Errorf("root: %v", err)
					return
				}
				arrivals <- arrival{f.Origin, iseq}
			}
		}
	}()

	rl, err := StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: origins, Upstream: ln.Addr().String(),
		Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	var wg sync.WaitGroup
	for o := 0; o < origins; o++ {
		wg.Add(1)
		go func(o int32) {
			defer wg.Done()
			for seq := uint64(1); seq <= frames; seq++ {
				if seq%helloEvery == 1 {
					body := wire.Marshal(seq, wire.Hello{From: o, N: origins})[4:]
					rl.stage(o, wire.KindHello, body)
					continue
				}
				body := wire.Marshal(seq, wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: o}}})[4:]
				rl.stage(o, wire.KindTraceOpBatch, body)
			}
		}(int32(o))
	}
	wg.Wait()
	rl.flush()

	last := make([]uint64, origins)
	deadline := time.After(20 * time.Second)
	for got := 0; got < origins*frames; got++ {
		select {
		case a := <-arrivals:
			if a.iseq != last[a.origin]+1 {
				t.Fatalf("origin %d: inner sequence %d arrived after %d", a.origin, a.iseq, last[a.origin])
			}
			last[a.origin] = a.iseq
		case <-deadline:
			t.Fatalf("root received %d of %d frames", got, origins*frames)
		}
	}
}
