package node

// relay_test.go pins the hierarchical-ingest tier: real cluster runs
// through a 2-level aggregation tree (fault-free, relay kill, chaos
// soak, disk-backed store), and scripted byte-equivalence runs proving
// that neither the relay hop, a relay crash mid-stream, nor spilling
// capture to the trace store changes a single byte of the assembled
// trace.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	rep.CheckScapegoatChain(j)
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
	rep.CheckScapegoatChain(j)
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
	rep.CheckScapegoatChain(j)
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
	rep.CheckScapegoatChain(j)
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

// scripted is one scripted run: n capture streams through an optional
// relay tier into a coordinator, driven step by step so a test can
// break something between the steps.
type scripted struct {
	t       *testing.T
	n       int
	journal *obs.Journal
	coord   *Coordinator
	relay   *Relay // nil without a relay tier
	clients []*coordClient
}

// startScripted brings up the coordinator (spilling to storeDir when
// set) and, with relays, one relay in front of it. No client has dialed
// yet.
func startScripted(t *testing.T, n int, relays bool, storeDir string, opts ...func(*CoordConfig)) *scripted {
	t.Helper()
	s := &scripted{t: t, n: n, journal: obs.NewJournal(0)}
	cfg := CoordConfig{
		N: n, Addr: "127.0.0.1:0", Journal: s.journal, Reg: obs.NewRegistry(),
		Timeouts: chaosTimeouts(), Logf: t.Logf,
	}
	if storeDir != "" {
		st, err := store.Open(store.Config{Dir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	for _, o := range opts {
		o(&cfg)
	}
	var err error
	if s.coord, err = NewCoordinator(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.coord.Close)
	if relays {
		s.relay, err = StartRelay(RelayConfig{
			Index: 0, Relays: 1, N: n, Upstream: s.coord.Addr(),
			Addr: "127.0.0.1:0", Timeouts: chaosTimeouts(), Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.relay.Close() })
	}
	return s
}

// dial connects the n scripted clients (to the relay when there is one).
func (s *scripted) dial() {
	s.t.Helper()
	addr := s.coord.Addr()
	if s.relay != nil {
		addr = s.relay.Addr()
	}
	opt := chaosTimeouts().withDefaults()
	for i := 0; i < s.n; i++ {
		cc, err := dialCoord(addr, i, s.n, newWireMeters(nil, "coord"), opt, nil, s.t.Logf)
		if err != nil {
			s.t.Fatalf("client %d: %v", i, err)
		}
		s.clients = append(s.clients, cc)
		s.t.Cleanup(cc.close)
	}
}

// send plays the first or second half of every listed client's script
// (all clients when none is listed).
func (s *scripted) send(second bool, ids ...int) {
	if len(ids) == 0 {
		for i := range s.clients {
			ids = append(ids, i)
		}
	}
	for _, i := range ids {
		frames, tail := scriptedFrames(s.n, i)
		if second {
			frames = tail
		}
		for _, m := range frames {
			s.clients[i].send(m)
		}
	}
}

// killRelay kills the relay abruptly and relaunches it on the same
// address: the clients' session machinery resumes, the relaunched relay
// acks Cum=0, and the full replays dedup at the root.
func (s *scripted) killRelay() {
	s.t.Helper()
	addr := s.relay.Addr()
	s.relay.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.t.Fatalf("relaunch relay listen: %v", err)
	}
	s.relay, err = StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: s.n, Upstream: s.relay.cfg.Upstream,
		Listener: ln, Timeouts: chaosTimeouts(), Logf: s.t.Logf,
	})
	if err != nil {
		s.t.Fatalf("relaunch relay: %v", err)
	}
}

// finish runs the completion protocol — wait for the Shutdown broadcast,
// echo it as the bye, wait for Commit — and returns what Wait assembles.
func (s *scripted) finish() *Result {
	s.t.Helper()
	for i, cc := range s.clients {
		d, ok := awaitDecisions(cc, func(d decisions) bool { return d.shutdown })
		if !ok {
			s.t.Fatalf("client %d: no Shutdown broadcast", i)
		}
		cc.send(wire.Shutdown{Epoch: d.epoch})
	}
	for i, cc := range s.clients {
		if _, ok := awaitDecisions(cc, func(d decisions) bool { return d.committed }); !ok {
			s.t.Fatalf("client %d: no Commit broadcast", i)
		}
	}
	res, err := s.coord.Wait(30 * time.Second)
	if err != nil {
		s.t.Fatalf("wait: %v", err)
	}
	return res
}

// awaitDecisions waits up to 10 s for cc's folded decisions to satisfy
// ok, waking on each fold; nothing else reads a scripted client's wakes.
func awaitDecisions(cc *coordClient, ok func(decisions) bool) (decisions, bool) {
	timeout := time.After(10 * time.Second)
	for {
		if d := cc.decisions(); ok(d) {
			return d, true
		}
		select {
		case <-cc.decCh:
		case <-timeout:
			return decisions{}, false
		}
	}
}

// runScripted drives n scripted capture streams through an optional
// relay tier into a coordinator and returns the assembled result. When
// killRelay is set, the relay is killed and relaunched between the two
// halves of the script, forcing every client through a session resume
// and the root through a full-replay dedup.
func runScripted(t *testing.T, n int, relays, killRelay bool, storeDir string, opts ...func(*CoordConfig)) (*Result, *obs.Journal) {
	t.Helper()
	s := startScripted(t, n, relays, storeDir, opts...)
	s.dial()
	s.send(false)
	if killRelay {
		// Let the first halves drain upstream first.
		time.Sleep(50 * time.Millisecond)
		s.killRelay()
	}
	s.send(true)
	return s.finish(), s.journal
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

// arrival is one relayed inner frame as a stand-in root saw it.
type arrival struct {
	origin int32
	iseq   uint64
}

// recordingRoot is a stand-in root for one relay: it answers the
// RelayHello, then records the inner sequence of every relayed frame in
// arrival order (capacity cap: the test's total).
func recordingRoot(t *testing.T, cap int) (addr string, arrivals <-chan arrival) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan arrival, cap)
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
				iseq, err := wire.PeekBody(f.Body)
				if err != nil {
					t.Errorf("root: %v", err)
					return
				}
				out <- arrival{f.Origin, iseq}
			}
		}
	}()
	return ln.Addr().String(), out
}

// TestRelayForwardKeepsOriginOrder pins the relay's forwarding order
// under concurrent write-through. Six child handlers each sequence
// frames onto the uplink log and write it out at once, Hellos among
// them: whatever the interleaving, the root must see every origin's
// inner sequences strictly increasing with none missing, or its
// replay-overlap dedup would drop the overtaken frames (the cold-start
// "process N wedged" / lost-Done failures).
func TestRelayForwardKeepsOriginOrder(t *testing.T) {
	const origins, frames, helloEvery = 6, 1500, 25
	upstream, arrivals := recordingRoot(t, origins*frames)

	rl, err := StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: origins, Upstream: upstream,
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
				var body []byte
				if seq%helloEvery == 1 {
					body = wire.Marshal(seq, wire.Hello{From: o, N: origins, Inc: seq})[4:]
				} else {
					body = wire.Marshal(seq, wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: o}}})[4:]
				}
				rl.stage(o, body)
				rl.cc.writeLogged()
			}
		}(int32(o))
	}
	wg.Wait()

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

// holeProxy forwards every accepted TCP connection to a target.
// blackhole makes the connections open at that moment swallow what they
// read, both ways, without closing; connections accepted later forward.
type holeProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	holes []*atomic.Bool
}

func startHoleProxy(t *testing.T, target string) *holeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &holeProxy{ln: ln}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			hole := new(atomic.Bool)
			p.mu.Lock()
			p.holes = append(p.holes, hole)
			p.mu.Unlock()
			go pipeUnlessHole(out, in, hole)
			go pipeUnlessHole(in, out, hole)
		}
	}()
	return p
}

func pipeUnlessHole(dst, src net.Conn, hole *atomic.Bool) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if err != nil {
			return
		}
		if hole.Load() {
			continue
		}
		if _, err := dst.Write(buf[:n]); err != nil {
			return
		}
	}
}

func (p *holeProxy) blackhole() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.holes {
		h.Store(true)
	}
}

// TestRejoinHelloSurvivesRelayDeath is the lost-rejoin regression: a
// relaunched node's Hello reaches its relay, the relay's uplink carries
// it into a black hole, and the relay dies before the root sees it. The
// Hello is frame 1 of the node's session log, so the resume against the
// relaunched relay replays it: the root must order the restart at once
// — no dial campaign's deadline involved — and the new incarnation's
// frames must stage rather than dedup against the dead incarnation's
// sequence numbers.
func TestRejoinHelloSurvivesRelayDeath(t *testing.T) {
	const n = 3
	s := startScripted(t, n, false, "")
	px := startHoleProxy(t, s.coord.Addr())
	var err error
	s.relay, err = StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: n, Upstream: px.ln.Addr().String(),
		Addr: "127.0.0.1:0", Timeouts: chaosTimeouts(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.relay.Close() })
	await := func(what string, within time.Duration, ok func(CoordStatus) bool) {
		t.Helper()
		for deadline := time.Now().Add(within); !ok(s.coord.Status()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within %v: %s", what, within, s.coord.stallReport())
			}
		}
	}
	s.dial()
	s.send(false)
	logged := s.clients[1].sentFrames()
	await("the first half of node 1's script", 10*time.Second, func(st CoordStatus) bool {
		return len(st.Nodes) == n && st.Nodes[1].LastSeq == logged
	})

	// Node 1 crashes and relaunches; its Hello goes up into the hole.
	px.blackhole()
	s.clients[1].close()
	up := s.relay.cc
	before := up.sentFrames()
	opt := chaosTimeouts()
	opt.CoordDeadline = 30 * time.Second
	cc, err := dialCoord(s.relay.Addr(), 1, n, newWireMeters(nil, "coord"), opt.withDefaults(), nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.close)
	s.clients[1] = cc
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		up.out.mu.Lock()
		forwarded := len(up.out.frames) > int(before) && up.out.wrote == len(up.out.frames)
		up.out.mu.Unlock()
		if forwarded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the relay never wrote the rejoin Hello to its uplink")
		}
	}

	// The relay dies with the Hello; its relaunch dials the proxy anew,
	// and that connection forwards.
	s.killRelay()
	await("the rejoin restart", 5*time.Second, func(st CoordStatus) bool { return st.Restarts == 1 })
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(cc.decisions().answered, cc.inc); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the new incarnation never got its answer: it folded %+v", cc.decisions())
		}
	}
	cc.markEpoch(1)
	await("the new incarnation's EpochMark staged", 5*time.Second, func(st CoordStatus) bool {
		return st.Nodes[1].Epoch == 1 && st.Nodes[1].LastSeq == cc.sentFrames()
	})
}

// TestRelayFanInCountsOnlyRunOrigins: a relay's fan-in counts the
// origins the root took frames for. A frame naming an origin outside
// the run is dropped, and counts for nothing: otherwise bytes off the
// network would inflate /statusz and grow the origin set without bound.
func TestRelayFanInCountsOnlyRunOrigins(t *testing.T) {
	c := newCoordinator(2, nil, t.Logf)
	body := wire.AppendBody(nil, 1, wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: 0}}})
	batch := wire.RelayBatch{Frames: []wire.RelayFrame{{Origin: 7, Body: body}, {Origin: -3, Body: body}, {Origin: 1, Body: body}}}
	rs := c.relays[0]
	rs.attached = true // as the uplink's RelayHello would: /statusz lists attached relays
	c.unpackRelayed(rs, nil, batch)
	if got := c.Status().Relays[0].FanIn; got != 1 {
		t.Fatalf("fan-in %d, want 1: only origin 1 is in the run", got)
	}
}

// TestRelayTableBounded: a RelayHello's relay count comes off the
// network, and every relay index is a session the root keeps for the
// run. A hello claiming more relays than nodes is refused, so n+2 of
// them at distinct indices leave at most n relay rows; StartRelay
// refuses that shape before it dials.
func TestRelayTableBounded(t *testing.T) {
	const n = 3
	c, err := NewCoordinator(CoordConfig{N: n, Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n+2; i++ {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteFrame(conn, 0, wire.RelayHello{Relay: int32(i), Relays: 1 << 20, N: n}); err != nil {
			t.Fatal(err)
		}
		// The answer — a ResumeAck, or the connection closed — comes once
		// the root has handled the hello.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		wire.ReadFrame(bufReader(conn))
	}
	if rows := len(c.Status().Relays); rows > n {
		t.Fatalf("%d relay rows after %d hellos claiming 2^20 relays, want at most %d", rows, n+2, n)
	}
	if _, err := StartRelay(RelayConfig{Index: 0, Relays: n + 1, N: n, Upstream: c.Addr(), Addr: "127.0.0.1:0", Timeouts: testTimeouts()}); err == nil || !strings.Contains(err.Error(), "bad shape") {
		t.Fatalf("StartRelay with %d relays for %d nodes: %v, want the bad shape refused", n+1, n, err)
	}
}

// TestRelaySupersedeKeepsInnerOrder supersedes a child connection
// mid-stream, over and over: one scripted child with a session log of
// numbered frames dials, streams, and is cut off by its own successor —
// a Resume that reads the cumulative ack and retransmits from there
// while the old connection's frames are still buffered at the relay.
// The old connection's handler and the new one then race onto the
// uplink's log; accept-and-stage being one step is what keeps them
// apart. The root must see the inner sequences strictly increasing with
// none missing (its dedup would silently drop an overtaken frame).
func TestRelaySupersedeKeepsInnerOrder(t *testing.T) {
	const frames, supersedes = 4000, 24
	upstream, arrivals := recordingRoot(t, frames+1) // + the forwarded Hello
	rl, err := StartRelay(RelayConfig{
		Index: 0, Relays: 1, N: 2, Upstream: upstream,
		Addr: "127.0.0.1:0", Timeouts: testTimeouts(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	// stream opens one connection for origin 0 and writes the session
	// log past the relay's ack until the log ends or the connection is
	// superseded (the relay closes it).
	var writers sync.WaitGroup
	stream := func(handshake wire.Msg) {
		conn, err := net.Dial("tcp", rl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, 0, handshake); err != nil {
			t.Fatal(err)
		}
		var cum uint64
		if _, resume := handshake.(wire.Resume); resume {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, m, err := wire.ReadFrame(conn)
			ack, ok := m.(wire.ResumeAck)
			if err != nil || !ok {
				t.Fatalf("resume handshake: %T, %v", m, err)
			}
			cum = ack.Cum
		}
		writers.Add(1)
		go func() {
			defer writers.Done()
			defer conn.Close()
			for seq := cum + 1; seq <= frames; seq++ {
				m := wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceStep, Proc: 0}}}
				if wire.WriteFrame(conn, seq, m) != nil {
					return // superseded
				}
			}
		}()
	}
	stream(wire.Hello{From: 0, N: 2})
	for i := 0; i < supersedes; i++ {
		time.Sleep(time.Millisecond) // let the current connection get mid-stream
		stream(wire.Resume{From: 0, N: 2})
	}
	writers.Wait()

	last := uint64(0)
	deadline := time.After(20 * time.Second)
	for last < frames {
		select {
		case a := <-arrivals:
			if a.iseq == 0 {
				continue // the forwarded Hello
			}
			if a.iseq != last+1 {
				t.Fatalf("inner sequence %d reached the uplink after %d", a.iseq, last)
			}
			last = a.iseq
		case <-deadline:
			t.Fatalf("root received inner sequences up to %d of %d", last, frames)
		}
	}
}

// flakyStore is a trace store whose appends fail: per origin, the
// failAt-th append errors once (a transient fault — the next would
// succeed). It counts the failures it injected.
type flakyStore struct {
	spillStore
	failAt int

	mu      sync.Mutex
	appends map[int32]int
	failed  int
}

func (f *flakyStore) Append(origin int32, epoch uint32, body []byte) error {
	f.mu.Lock()
	f.appends[origin]++
	fail := f.appends[origin] == f.failAt
	if fail {
		f.failed++
	}
	f.mu.Unlock()
	if fail {
		return errors.New("flaky store: injected append failure")
	}
	return f.spillStore.Append(origin, epoch, body)
}

// TestSpillFailureKeepsOrder breaks the trace store mid-run: a
// session's third append (the second half's trace ops) fails. Staging
// in RAM does not depend on the store, so Wait still returns the trace
// byte-identical to RAM staging, and the store must not be sealed: a
// manifest would bless a bundle missing the frame the failed append
// lost. (That the failure stops the store for every session is
// TestFailedAppendStopsTheStore's.)
func TestSpillFailureKeepsOrder(t *testing.T) {
	const n = 3
	ram, jRAM := runScripted(t, n, false, false, "")

	dir := t.TempDir()
	s := startScripted(t, n, false, dir)
	flaky := &flakyStore{spillStore: s.coord.store, failAt: 3, appends: map[int32]int{}}
	s.coord.store = flaky // before any client dials: no handler reads it yet
	s.dial()
	s.send(false)
	s.send(true)
	res := s.finish()

	if !bytes.Equal(encodeTrace(t, res), encodeTrace(t, ram)) {
		t.Error("trace after a failed spill differs from RAM staging")
	}
	if !reflect.DeepEqual(s.journal.Events(), jRAM.Events()) {
		t.Error("journal after a failed spill differs from RAM staging")
	}
	if flaky.failed == 0 {
		t.Error("no append failed: the run never reached the injected fault")
	}
	if _, err := os.Stat(filepath.Join(dir, store.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("a run with RAM-held capture was sealed (stat MANIFEST: %v)", err)
	}
}

// TestSpillBlockedRotation breaks a real store: a directory holds the
// second segment's name, so once the first segment has a record every
// append fails at rotation. The store stops at its first failed append,
// and Wait still returns the trace byte-identical to RAM staging, with
// no frame staged twice.
func TestSpillBlockedRotation(t *testing.T) {
	const n = 3
	ram, jRAM := runScripted(t, n, false, false, "")

	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "seg-000001.pcseg"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	disk, jDisk := runScripted(t, n, false, false, "", func(c *CoordConfig) { c.Store = st })

	if !bytes.Equal(encodeTrace(t, disk), encodeTrace(t, ram)) {
		t.Error("trace after a blocked rotation differs from RAM staging")
	}
	if !reflect.DeepEqual(jDisk.Events(), jRAM.Events()) {
		t.Error("journal after a blocked rotation differs from RAM staging")
	}
}

// TestWaitTimeoutNamesTheStall: a run that cannot finish says who it is
// waiting for. Node 1 streams the first half of its script and never
// reports Done; the timeout must name it, with its last sequence.
func TestWaitTimeoutNamesTheStall(t *testing.T) {
	const n = 3
	s := startScripted(t, n, false, "")
	s.dial()
	s.send(false)
	s.send(true, 0, 2)
	first, _ := scriptedFrames(n, 1)
	last := len(first) + 1 // behind the Hello, frame 1
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := s.coord.Status(); st.Done == n-1 && len(st.Nodes) == n && st.Nodes[1].LastSeq == uint64(last) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the coordinator never ingested the script: %+v", s.coord.Status())
		}
	}
	_, err := s.coord.Wait(50 * time.Millisecond)
	if err == nil {
		t.Fatal("Wait returned a result for a run missing a Done")
	}
	want := fmt.Sprintf("node 1 [attached=true connected=true stream epoch 0, last seq %d, done=false bye=false]", last)
	if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "2/3 done") {
		t.Fatalf("timeout error %q\nwant it to say 2/3 done and name %q", msg, want)
	}
}
