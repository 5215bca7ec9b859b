package node

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"predctl/internal/obs"
	"predctl/internal/store"
)

// Crash schedules one in-process node kill: at At (relative to the
// shared run start) node Node's Run aborts with ErrCrashed — no flush,
// no bye, connections dropped — and the harness relaunches it after
// Down (0 = immediately). The relaunch rebinds the node's listener,
// redials the coordinator with a fresh Hello, and the coordinator
// answers with a controlled re-execution restart of the whole cluster.
type Crash struct {
	At   time.Duration
	Node int
	Down time.Duration // how long the node stays dead before relaunch
}

// ClusterConfig parameterizes an in-process cluster run: n node daemons
// plus a coordinator, all over localhost TCP. In-process is the test
// and demo harness; the daemons themselves are oblivious to it — pctl
// node runs the identical Config against remote addresses.
type ClusterConfig struct {
	N         int
	Rounds    int
	Think     time.Duration
	CS        time.Duration
	Broadcast bool
	Scapegoat int
	Seed      int64
	Faults    Faults
	Timeouts  Timeouts
	// Batching is every node's capture-stream flush policy.
	Batching Batching
	// Journal receives the coordinator's merged cluster journal (nodes'
	// control events, their monitor.candidate twins among them). May be
	// nil.
	Journal *obs.Journal
	Reg     *obs.Registry
	Logf    func(string, ...any)
	// WaitTimeout bounds the whole run; 0 means a generous default.
	WaitTimeout time.Duration
	// Crashes is the node kill/relaunch schedule (chaos runs). Each
	// entry crashes a node mid-run; recovery is the coordinator-ordered
	// controlled re-execution, so the run still completes with a
	// fault-free-equivalent trace.
	Crashes []Crash
	// HTTPAddr (or HTTPListener) opts into the coordinator's live
	// introspection server — /metrics, /statusz, /healthz, pprof —
	// served for the whole run. Harnesses that must know the port
	// before the run starts bind HTTPListener themselves.
	HTTPAddr     string
	HTTPListener net.Listener
	// NodeHTTP gives every node its own ephemeral introspection server
	// on 127.0.0.1 (ports are logged via Logf).
	NodeHTTP bool
	// Live opts the coordinator into online possibly(¬B) detection
	// while the run streams (see LiveConfig).
	Live LiveConfig
	// Rogues lists node ids that run with Config.Rogue set: they enter
	// critical sections without permission until a Detection/ReExec
	// broadcast puts them back under control — the planted violation
	// live detection demos catch.
	Rogues []int
	// Relays > 0 (at most N) shards coordinator ingest into a 2-level
	// aggregation tree: that many relay processes each terminate the
	// capture streams of the nodes assigned to them (node i → relay i
	// mod Relays) and write each accepted frame through upstream, so the
	// root handles O(Relays) connections instead of O(N) — its frames
	// stay those of a flat cluster. Nodes are oblivious — their
	// coordinator address is simply their relay's.
	Relays int
	// RelayCrashes kills relays mid-run (Crash.Node is the relay
	// index): the relay's listener and uplink drop abruptly, children
	// session-resume against the relaunched relay, and the root's
	// per-origin dedup absorbs the replayed overlap — a relay kill
	// heals like a coordinator-stream sever, with no epoch restart.
	RelayCrashes []Crash
	// StoreDir, when non-empty, writes the coordinator's staged capture
	// through to a segmented on-disk trace store in that directory
	// (created if missing) and seals it into a capture bundle at commit.
	// Staging stays in RAM either way.
	StoreDir string
}

// clusterHandshakeTimeout is the dial/handshake-write deadline for an
// n-node cluster: the 2s base plus 10ms of slack per node, capped at
// 10s — enough that a dial-storm scheduling stall never looks like a
// dead peer, small enough that a genuinely dead one still fails fast.
func clusterHandshakeTimeout(n int) time.Duration {
	d := 2*time.Second + time.Duration(n)*10*time.Millisecond
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// clusterLaunchGap is the per-node launch pacing for big clusters: at
// n ≥ 128 the nodes start launchGap apart (capped at a total spread of
// clusterLaunchSpread) so the cold-start burst doesn't starve the
// accept loops for seconds. The workload needs every node joined
// before any round can complete, so the spread shifts the run start
// without stretching the measured steady state.
func clusterLaunchGap(n int) time.Duration {
	if n < 128 {
		return 0
	}
	const spread = 1500 * time.Millisecond
	const gap = 3 * time.Millisecond
	if time.Duration(n)*gap > spread {
		return spread / time.Duration(n)
	}
	return gap
}

// RunCluster executes the anti-token (n−1)-mutex workload on a cluster
// of TCP node daemons and returns the coordinator's view: the captured
// deposet trace, per-node tallies, and candidate-twin count.
func RunCluster(cfg ClusterConfig) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("node: cluster needs n ≥ 2, got %d", cfg.N)
	}
	if err := checkTargets(&cfg); err != nil {
		return nil, err
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = 2 * time.Minute
	}
	// Handshake patience scales with fan-in. A cold start dials every
	// node's coordinator stream at once; on a host with few cores the
	// accept loops and the freshly-dialed goroutines can each be
	// descheduled for whole seconds under that burst, and the flat 2s
	// handshake deadlines then abandon perfectly good connections —
	// hundreds of zero-byte redial cycles that skew the join tail and
	// stretch the run. Callers that set their own Timeouts keep them.
	if cfg.Timeouts.DialTimeout == 0 {
		cfg.Timeouts.DialTimeout = clusterHandshakeTimeout(cfg.N)
	}
	if cfg.Timeouts.WriteTimeout == 0 {
		cfg.Timeouts.WriteTimeout = clusterHandshakeTimeout(cfg.N)
	}

	// Bind every listener up front so the address list is complete
	// before any node dials a peer.
	listeners := make([]net.Listener, cfg.N)
	addrs := make([]string, cfg.N)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("node: cluster listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	start := time.Now()
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(store.Config{
			Dir: cfg.StoreDir, Reg: cfg.Reg,
		})
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, err
		}
		defer st.Close() // no-op after the commit-time Seal
	}
	coord, err := NewCoordinator(CoordConfig{
		N: cfg.N, Addr: "127.0.0.1:0",
		Journal: cfg.Journal, Reg: cfg.Reg,
		Timeouts: cfg.Timeouts, Logf: cfg.Logf,
		HTTPAddr: cfg.HTTPAddr, HTTPListener: cfg.HTTPListener,
		Start: start, Live: cfg.Live, Store: st,
	})
	if err != nil {
		for _, l := range listeners {
			l.Close()
		}
		return nil, err
	}
	defer coord.Close()

	// The aggregation tree: bind every relay's downstream address, point
	// node i at relay i mod Relays, and start the relays (each blocks
	// until its uplink handshake lands, so by the time nodes dial, every
	// relay already knows the cluster epoch).
	coordAddr := func(int) string { return coord.Addr() }
	stopRelays := make(chan struct{})
	var relayWG sync.WaitGroup
	if cfg.Relays > 0 {
		relayAddrs := make([]string, cfg.Relays)
		relayLns := make([]net.Listener, cfg.Relays)
		for i := range relayLns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("node: relay listen: %w", err)
			}
			relayLns[i] = ln
			relayAddrs[i] = ln.Addr().String()
		}
		coordAddr = func(i int) string { return relayAddrs[i%cfg.Relays] }
		relayCfg := func(idx int, ln net.Listener) RelayConfig {
			return RelayConfig{
				Index: idx, Relays: cfg.Relays, N: cfg.N,
				Upstream: coord.Addr(), Listener: ln, Timeouts: cfg.Timeouts,
				Reg:  cfg.Reg.Child(obs.L("relay", strconv.Itoa(idx))),
				Logf: cfg.Logf,
			}
		}
		relays := make([]*Relay, cfg.Relays)
		for i := range relays {
			rl, err := StartRelay(relayCfg(i, relayLns[i]))
			if err != nil {
				for _, r := range relays[:i] {
					r.Close()
				}
				return nil, err
			}
			relays[i] = rl
		}
		relayCrashCh := scheduleCrashes(coord, cfg.RelayCrashes, cfg.Relays,
			func(idx int) int64 { return int64(-(idx + 1)) }, stopRelays, &relayWG)
		for i := range relays {
			relayWG.Add(1)
			go func(idx int) {
				defer relayWG.Done()
				rl := relays[idx]
				stayDown := downtimes(cfg.RelayCrashes, idx)
				for {
					select {
					case <-stopRelays:
						rl.Close()
						return
					case <-relayCrashCh[idx]:
						// Abrupt kill: listener, children, uplink all drop.
						// The children's session machinery redials the same
						// address; the relaunched relay acks Cum=0 and the
						// root dedups the full replays.
						rl.Close()
						stayDown()
						ln, lerr := relisten(relayAddrs[idx], stopRelays)
						if lerr != nil {
							return
						}
						nrl, err := StartRelay(relayCfg(idx, ln))
						if err != nil {
							select {
							case <-stopRelays:
							default:
								if cfg.Logf != nil {
									cfg.Logf("relay %d: relaunch: %v", idx, err)
								}
							}
							ln.Close()
							return
						}
						rl = nrl
					}
				}
			}(i)
		}
	}

	// Scheduled partitions are known a priori; annotate their windows on
	// the merged timeline up front so the cluster trace shows them even
	// if the run ends inside one.
	for _, p := range cfg.Faults.Partitions {
		a, b := int64(-1), int64(-1)
		if len(p.A) > 0 {
			a = int64(p.A[0])
		}
		if len(p.B) > 0 {
			b = int64(p.B[0])
		}
		coord.AnnotateAt(p.Start.Nanoseconds(), obs.EvPartitionOpen, a, b)
		coord.AnnotateAt((p.Start + p.Dur).Nanoseconds(), obs.EvPartitionHeal, a, b)
	}

	// stop quiets the crash scheduler and the relaunch loops once the
	// coordinator has its result.
	stop := make(chan struct{})
	var schedWG sync.WaitGroup
	crashCh := scheduleCrashes(coord, cfg.Crashes, cfg.N,
		func(id int) int64 { return int64(id) }, stop, &schedWG)

	var wg sync.WaitGroup
	errs := make([]error, cfg.N)
	launchGap := clusterLaunchGap(cfg.N)
	for i := 0; i < cfg.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if launchGap > 0 && i > 0 {
				select {
				case <-time.After(time.Duration(i) * launchGap):
				case <-stop:
					return
				}
			}
			nodeCfg := Config{
				ID: i, N: cfg.N, Addrs: addrs, Coord: coordAddr(i),
				Scapegoat: cfg.Scapegoat, Broadcast: cfg.Broadcast,
				Rounds: cfg.Rounds, Think: cfg.Think, CS: cfg.CS,
				Seed: cfg.Seed, Faults: cfg.Faults, Timeouts: cfg.Timeouts,
				Batching: cfg.Batching, Listener: listeners[i],
				// Each node writes through a node-labelled child registry:
				// its snapshots carry per-node series while updates tee to
				// the shared aggregates callers already read.
				Reg:  cfg.Reg.Child(obs.L("node", strconv.Itoa(i))),
				Logf: cfg.Logf, Start: start, Crash: crashCh[i],
			}
			for _, r := range cfg.Rogues {
				if r == i {
					nodeCfg.Rogue = true
				}
			}
			if cfg.NodeHTTP {
				nodeCfg.HTTPAddr = "127.0.0.1:0"
			}
			stayDown := downtimes(cfg.Crashes, i)
			for {
				_, err := Run(nodeCfg)
				if !errors.Is(err, ErrCrashed) {
					select {
					case <-stop:
						// The coordinator already has its result; a node
						// that lost it during teardown is not a run error.
						err = nil
					default:
					}
					errs[i] = err
					return
				}
				// Relaunch: the dead incarnation's listener went down with
				// its transport, so rebind the same address (retrying
				// briefly around lingering sockets) and run again. The
				// fresh Hello makes the coordinator order the restart.
				stayDown()
				select {
				case <-stop:
					return
				default:
				}
				ln, lerr := relisten(addrs[i], stop)
				if lerr != nil {
					select {
					case <-stop:
					default:
						errs[i] = fmt.Errorf("relaunch listen %s: %w", addrs[i], lerr)
					}
					return
				}
				nodeCfg.Listener = ln
			}
		}(i)
	}
	res, werr := coord.Wait(cfg.WaitTimeout)
	close(stop)
	relaysDown := false
	if werr != nil {
		// A failed wait means no Commit is coming, and coord.Wait's
		// teardown only severs the root's own connections. Direct nodes
		// notice (their streams break, resume campaigns fail, sessDone
		// frees the park), but relayed nodes sit behind still-healthy
		// relay streams and would park forever — tear the middle tier
		// down too before waiting on them.
		close(stopRelays)
		relayWG.Wait()
		relaysDown = true
	}
	wg.Wait()
	// On success the relays outlive the nodes: a parked node whose
	// Commit died with a broken stream fetches it from its relay's
	// cached replay, which needs the relay (like the coordinator's
	// listener) still up.
	if !relaysDown {
		close(stopRelays)
		relayWG.Wait()
	}
	schedWG.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("node %d: %w", i, e)
		}
	}
	return res, werr
}

// checkTargets rejects a scapegoat, relay count, crash schedule or
// rogue list that names a node or relay the cluster does not have, a
// negative think or critical-section time, and a fault schedule the
// shim cannot run (Faults.check), before anything is bound or started.
func checkTargets(cfg *ClusterConfig) error {
	if cfg.Scapegoat < 0 || cfg.Scapegoat >= cfg.N {
		return fmt.Errorf("node: scapegoat %d is not a node of %d", cfg.Scapegoat, cfg.N)
	}
	if cfg.Relays < 0 {
		return fmt.Errorf("node: relays %d is negative", cfg.Relays)
	} else if cfg.Relays > cfg.N {
		return fmt.Errorf("node: relays %d exceed the %d nodes", cfg.Relays, cfg.N)
	}
	for _, cr := range cfg.Crashes {
		if cr.Node < 0 || cr.Node >= cfg.N {
			return fmt.Errorf("node: crash schedule targets node %d of %d", cr.Node, cfg.N)
		}
	}
	for _, cr := range cfg.RelayCrashes {
		if cr.Node < 0 || cr.Node >= cfg.Relays {
			return fmt.Errorf("node: relay crash schedule targets relay %d of %d", cr.Node, cfg.Relays)
		}
	}
	for _, r := range cfg.Rogues {
		if r < 0 || r >= cfg.N {
			return fmt.Errorf("node: rogue list targets node %d of %d", r, cfg.N)
		}
	}
	if err := checkPace(cfg.Think, cfg.CS); err != nil {
		return err
	}
	return cfg.Faults.check(cfg.N)
}

// scheduleCrashes runs a range-checked kill schedule against `targets`
// nodes or relays: one goroutine per entry sleeps to the run's start+At,
// annotates the kill as annotID(target) and signals the target's
// channel — buffered to the schedule's length, so a kill never blocks
// the scheduler — or gives up at stop.
func scheduleCrashes(coord *Coordinator, crashes []Crash, targets int, annotID func(target int) int64, stop <-chan struct{}, wg *sync.WaitGroup) []chan struct{} {
	chs := make([]chan struct{}, targets)
	for i := range chs {
		chs[i] = make(chan struct{}, len(crashes))
	}
	for _, cr := range crashes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-time.After(time.Until(coord.start.Add(cr.At))):
				coord.AnnotateAt(coord.sinceStart(), obs.EvChaosCrash, annotID(cr.Node), 0)
				chs[cr.Node] <- struct{}{}
			case <-stop:
			}
		}()
	}
	return chs
}

// downtimes returns a function that sleeps out target's next scheduled
// downtime, in schedule order; kills beyond the schedule relaunch at
// once.
func downtimes(crashes []Crash, target int) func() {
	var down []time.Duration
	for _, cr := range crashes {
		if cr.Node == target {
			down = append(down, cr.Down)
		}
	}
	return func() {
		if len(down) > 0 {
			time.Sleep(down[0])
			down = down[1:]
		}
	}
}

// relisten rebinds a relaunched node's listen address, retrying while
// the dead incarnation's socket drains out of the kernel.
func relisten(addr string, stop <-chan struct{}) (net.Listener, error) {
	var lastErr error
	for attempt := 0; attempt < 100; attempt++ {
		select {
		case <-stop:
			return nil, net.ErrClosed
		default:
		}
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, lastErr
}
