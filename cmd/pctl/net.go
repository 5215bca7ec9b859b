package main

// net.go: the networked-runtime subcommands. `pctl cluster` runs an
// n-node anti-token cluster over localhost TCP in one process — the
// quickest way to see online predicate control on a real network —
// while `pctl node` runs a single daemon (or, with -id -1, the
// coordinator), for spreading the same cluster across processes or
// machines.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/predicate"
	"predctl/internal/store"
	"predctl/internal/trace"
)

// crashFlag is a repeatable -crash flag: each occurrence schedules one
// node kill, e.g. -crash at=30ms,node=1,down=5ms. The relaunch triggers
// the coordinator's controlled re-execution restart.
type crashFlag struct{ crashes []node.Crash }

func (f *crashFlag) String() string { return fmt.Sprintf("%d crash(es)", len(f.crashes)) }

func (f *crashFlag) Set(s string) error {
	var cr node.Crash
	seen := false
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("crash: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "at":
			cr.At, err = time.ParseDuration(v)
			seen = true
		case "node":
			cr.Node, err = strconv.Atoi(v)
		case "down":
			cr.Down, err = time.ParseDuration(v)
		default:
			return fmt.Errorf("crash: unknown key %q (want at, node, down)", k)
		}
		if err != nil {
			return fmt.Errorf("crash: %s: %w", k, err)
		}
	}
	if !seen {
		return errors.New("crash: at=<duration> is required")
	}
	f.crashes = append(f.crashes, cr)
	return nil
}

// partitionFlag is a repeatable -partition flag: each occurrence opens
// one partition window, e.g. -partition start=20ms,dur=40ms,a=0:1 or
// -partition start=20ms,dur=40ms,a=2,coord (sever node 2 from the rest
// and from its coordinator stream).
type partitionFlag struct{ parts []node.Partition }

func (f *partitionFlag) String() string { return fmt.Sprintf("%d partition(s)", len(f.parts)) }

func (f *partitionFlag) Set(s string) error {
	var p node.Partition
	seen := false
	for _, kv := range strings.Split(s, ",") {
		if kv == "coord" {
			p.Coord = true
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("partition: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "start":
			p.Start, err = time.ParseDuration(v)
			seen = true
		case "dur":
			p.Dur, err = time.ParseDuration(v)
		case "a":
			p.A, err = parseNodeList(v)
		case "b":
			p.B, err = parseNodeList(v)
		default:
			return fmt.Errorf("partition: unknown key %q (want start, dur, a, b, coord)", k)
		}
		if err != nil {
			return fmt.Errorf("partition: %s: %w", k, err)
		}
	}
	if !seen {
		return errors.New("partition: start=<duration> is required")
	}
	if len(p.A) == 0 {
		return errors.New("partition: a=<node:node:...> is required")
	}
	f.parts = append(f.parts, p)
	return nil
}

// parseNodeList parses a colon-separated node-id list ("0:2:3").
func parseNodeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ":") {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("node id %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// batchFlags registers the capture-stream batching flags.
func batchFlags(fs *flag.FlagSet) *node.Batching {
	b := &node.Batching{}
	fs.IntVar(&b.MaxItems, "batch-items", 0, "capture items per batch frame before an early flush (0 = default 128)")
	fs.DurationVar(&b.Interval, "batch-interval", 0, "flush period for capture volume; candidates and completion frames do not wait for it (0 = default 2ms)")
	return b
}

// checkBatching refuses a negative batching flag, which would otherwise
// run silently with the default.
func checkBatching(cmd string, b *node.Batching) error {
	if b.MaxItems < 0 {
		return fmt.Errorf("%s: -batch-items must not be negative, got %d", cmd, b.MaxItems)
	}
	if b.Interval < 0 {
		return fmt.Errorf("%s: -batch-interval must not be negative, got %v", cmd, b.Interval)
	}
	return nil
}

// faultFlags registers the fault-injection shim's flags.
func faultFlags(fs *flag.FlagSet) *node.Faults {
	f := &node.Faults{}
	fs.Float64Var(&f.Drop, "drop", 0, "probability a protocol frame write is dropped")
	fs.Float64Var(&f.Dup, "dup", 0, "probability a protocol frame is written twice")
	fs.DurationVar(&f.Delay, "delay", 0, "fixed latency before every protocol frame write")
	fs.DurationVar(&f.Jitter, "jitter", 0, "extra uniform random latency in [0, jitter)")
	fs.Int64Var(&f.Seed, "fault-seed", 1, "seed of the per-link fault decision streams")
	return f
}

// liveConfig builds the coordinator's online-detection config from the
// -live-predicate / -on-detect / -max-reexecs flags. Only the workload's
// own mutex predicate is nameable today; "" leaves detection dark.
func liveConfig(name, onDetect string, maxReExecs, n int) (node.LiveConfig, error) {
	switch name {
	case "":
		if onDetect != "" {
			return node.LiveConfig{}, errors.New("-on-detect needs -live-predicate")
		}
		return node.LiveConfig{}, nil
	case "cs":
		return node.LiveConfig{
			Predicate:  node.CSMutexPredicate(n),
			OnDetect:   onDetect,
			MaxReExecs: maxReExecs,
		}, nil
	default:
		return node.LiveConfig{}, fmt.Errorf("unknown live predicate %q (want cs)", name)
	}
}

// liveFlags registers the online-detection flags shared by the cluster
// and coordinator subcommands.
func liveFlags(fs *flag.FlagSet) (pred, onDetect *string, maxReExecs *int) {
	pred = fs.String("live-predicate", "", "detect possibly(¬B) online while the run streams; `cs` names the workload's (n-1)-mutex predicate")
	onDetect = fs.String("on-detect", "", "confirmed-detection response: `reexec` (auto-drive a controlled re-execution, the default) or `note` (record only)")
	maxReExecs = fs.Int("max-reexecs", 0, "cap on detection-triggered re-executions (0 = default 1)")
	return
}

// printDetections summarizes a run's confirmed live detections.
func printDetections(res *node.Result) {
	if len(res.Detections) == 0 {
		return
	}
	fmt.Printf("live: %d confirmed detection(s), %d re-execution(s), final-epoch verdict fired=%v\n",
		len(res.Detections), res.ReExecs, res.LiveFired)
	for _, det := range res.Detections {
		when := "mid-run"
		if det.Final {
			when = "closing verdict"
		}
		act := "noted"
		if det.ReExec {
			act = fmt.Sprintf("re-exec ordered (%d strategy edges)", det.StrategyEdges)
		}
		fmt.Printf("  epoch %d: possibly(¬B) confirmed %s at %.1fms (witness node %d), %s\n",
			det.Epoch, when, float64(det.AtNs)/1e6, det.Node, act)
	}
}

// clusterInvariants runs the paper-bound checks on a networked run's
// merged journal and metrics.
func clusterInvariants(j *obs.Journal, reg *obs.Registry, delay time.Duration) error {
	var rep obs.Report
	rep.CheckNetRun(j, reg, delay)
	if err := rep.Err(); err != nil {
		return err
	}
	fmt.Printf("invariants ok: %d checked, 0 violated\n", len(rep.Checked))
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	n := fs.Int("n", 3, "nodes (one application process each)")
	rounds := fs.Int("rounds", 3, "critical sections per process")
	think := fs.Duration("think", 3*time.Millisecond, "mean think time between critical sections")
	cs := fs.Duration("cs", time.Millisecond, "critical-section duration")
	broadcast := fs.Bool("broadcast", false, "use the broadcast handoff variant")
	seed := fs.Int64("seed", 1998, "workload seed")
	scapegoat := fs.Int("scapegoat", 0, "initial anti-token holder")
	out := fs.String("o", "", "write the captured deposet trace here (pctl replay/detect/control consume it)")
	predOut := fs.String("pred-o", "", "write the workload's control predicate spec here")
	metrics := fs.Bool("metrics", false, "dump protocol metrics in Prometheus text format")
	timeline := fs.Int("timeline", 0, "print the last N merged journal events")
	httpAddr := fs.String("http", "", "serve live coordinator introspection (/metrics /statusz /healthz, pprof) on this address; `pctl top` reads it")
	nodeHTTP := fs.Bool("node-http", false, "also serve per-node introspection on ephemeral localhost ports (logged at startup)")
	traceOut := fs.String("trace-o", "", "write the causally-merged cluster Chrome trace here (chrome://tracing / Perfetto)")
	faults := faultFlags(fs)
	batching := batchFlags(fs)
	livePred, onDetect, maxReExecs := liveFlags(fs)
	rogueList := fs.String("rogues", "", "colon-separated ids of planted rogue nodes that enter the CS without permission (`1:2`; pair with -live-predicate to catch them)")
	relays := fs.Int("relays", 0, "shard coordinator ingest into a 2-level aggregation tree of this many relays (0 = flat, every node dials the root)")
	storeDir := fs.String("store-dir", "", "write staged capture through to an on-disk segment store here (the run still stages in RAM); the commit seals it into a verifiable bundle (pctl bundle)")
	var crashes crashFlag
	fs.Var(&crashes, "crash", "kill and relaunch a node, `at=30ms,node=1[,down=5ms]` (repeatable; recovery is a controlled re-execution)")
	var relayCrashes crashFlag
	fs.Var(&relayCrashes, "relay-crash", "kill and relaunch a relay, `at=30ms,node=1[,down=5ms]` (repeatable; node is the relay index; heals like a stream sever)")
	var partitions partitionFlag
	fs.Var(&partitions, "partition", "open a partition window, `start=20ms,dur=40ms,a=0:1[,b=2:3][,coord]` (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(relayCrashes.crashes) > 0 && *relays == 0 {
		return errors.New("-relay-crash needs -relays")
	}
	if fs.NArg() != 0 {
		return errors.New("cluster takes no trace-file argument: it generates its own run")
	}
	if *rounds < 1 {
		return fmt.Errorf("cluster: -rounds must be at least 1, got %d", *rounds)
	}
	if err := checkBatching("cluster", batching); err != nil {
		return err
	}
	live, err := liveConfig(*livePred, *onDetect, *maxReExecs, *n)
	if err != nil {
		return err
	}
	var rogues []int
	if *rogueList != "" {
		if rogues, err = parseNodeList(*rogueList); err != nil {
			return err
		}
	}

	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	faults.Partitions = partitions.parts
	if *httpAddr != "" {
		fmt.Printf("introspection at http://%s (watch live: pctl top -coord %s)\n", *httpAddr, *httpAddr)
	}
	res, err := node.RunCluster(node.ClusterConfig{
		N: *n, Rounds: *rounds, Think: *think, CS: *cs,
		Broadcast: *broadcast, Scapegoat: *scapegoat, Seed: *seed,
		Faults: *faults, Batching: *batching, Journal: j, Reg: reg,
		Crashes:      crashes.crashes,
		Relays:       *relays,
		RelayCrashes: relayCrashes.crashes,
		StoreDir:     *storeDir,
		HTTPAddr:     *httpAddr, NodeHTTP: *nodeHTTP,
		Live: live, Rogues: rogues,
	})
	if err != nil {
		return err
	}
	requests, handoffs, ctl := 0, 0, 0
	for _, s := range res.Stats {
		requests += s.Requests
		handoffs += s.Handoffs
		ctl += s.CtlMessages
	}
	fmt.Printf("cluster: n=%d rounds=%d seed=%d broadcast=%v faults{drop=%.2f dup=%.2f delay=%v}\n",
		*n, *rounds, *seed, *broadcast, faults.Drop, faults.Dup, faults.Delay)
	fmt.Printf("run: %d CS entries, %d handoffs, %d ctl messages, %d candidates\n",
		requests, handoffs, ctl, res.Candidates)
	if *relays > 0 {
		fmt.Printf("tree: %d relays, root served %d stream conns, %d frames, %d bytes\n",
			*relays, res.RootConns, res.RootFrames, res.RootBytes)
	}
	if len(crashes.crashes) > 0 || len(partitions.parts) > 0 {
		fmt.Printf("chaos: %d crash(es) scheduled, %d restart(s) ordered, %d partition window(s)\n",
			len(crashes.crashes), res.Restarts, len(partitions.parts))
	}
	printDetections(res)
	d := res.Deposet
	fmt.Printf("captured: %d processes (%d apps + %d controllers), %d states, %d messages\n",
		d.NumProcs(), *n, *n, d.NumStates(), len(d.Messages()))
	if *storeDir != "" {
		// The coordinator leaves the store unsealed when it cannot vouch
		// for it (a failed append); the run itself is whole.
		if _, err := os.Stat(filepath.Join(*storeDir, store.ManifestName)); err != nil {
			return fmt.Errorf("cluster: bundle at %s was not sealed: the trace store failed during the run", *storeDir)
		}
		fmt.Printf("bundle: sealed at %s (pctl bundle verify %s)\n", *storeDir, *storeDir)
	}

	if *timeline > 0 {
		fmt.Print(obs.Timeline(j, *timeline))
	}
	if *metrics {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if err := clusterInvariants(j, reg, faults.Delay); err != nil {
		return err
	}
	if *out != "" {
		if err := writeTrace(*out, d, nil); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *traceOut != "" {
		doc, err := obs.ClusterTrace(j, obs.ClusterTraceOptions{N: *n})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, doc, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (merged cluster trace, %d journal events)\n", *traceOut, j.Len())
	}
	if *predOut != "" {
		// B is a disjunction of variable locals on the apps, 0..n-1.
		dj, _ := predicate.AsDisjunction(node.CSMutexPredicate(*n), *n)
		locals, _ := dj.VarLocals()
		f, err := os.Create(*predOut)
		if err != nil {
			return err
		}
		if err := trace.EncodeDisjunction(f, locals); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *predOut)
	}
	return nil
}

func cmdNode(args []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	id := fs.Int("id", 0, "node id (0..n-1), or -1 to run the coordinator")
	n := fs.Int("n", 3, "cluster size")
	addrList := fs.String("addrs", "", "comma-separated node listen addresses, one per id (required for nodes)")
	coord := fs.String("coord", "", "coordinator address (nodes) / listen address (coordinator)")
	rounds := fs.Int("rounds", 3, "critical sections")
	think := fs.Duration("think", 3*time.Millisecond, "mean think time")
	cs := fs.Duration("cs", time.Millisecond, "critical-section duration")
	broadcast := fs.Bool("broadcast", false, "use the broadcast handoff variant")
	seed := fs.Int64("seed", 1998, "workload seed")
	scapegoat := fs.Int("scapegoat", 0, "initial anti-token holder")
	out := fs.String("o", "", "coordinator: write the captured trace here")
	wait := fs.Duration("wait", 2*time.Minute, "coordinator: how long to wait for the cluster")
	rogue := fs.Bool("rogue", false, "node: enter critical sections without permission until a Detection/ReExec broadcast (plants a live-detectable violation)")
	httpAddr := fs.String("http", "", "serve live introspection (/metrics /statusz /healthz, pprof) on this address")
	faults := faultFlags(fs)
	batching := batchFlags(fs)
	livePred, onDetect, maxReExecs := liveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coord == "" {
		return errors.New("node: -coord is required")
	}
	if *rounds < 1 {
		return fmt.Errorf("node: -rounds must be at least 1, got %d", *rounds)
	}
	if err := checkBatching("node", batching); err != nil {
		return err
	}

	if *id < 0 {
		live, err := liveConfig(*livePred, *onDetect, *maxReExecs, *n)
		if err != nil {
			return err
		}
		j := obs.NewJournal(0)
		reg := obs.NewRegistry()
		c, err := node.NewCoordinator(node.CoordConfig{
			N: *n, Addr: *coord, Journal: j, Reg: reg,
			HTTPAddr: *httpAddr, Live: live,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		fmt.Printf("coordinator listening on %s for %d nodes\n", c.Addr(), *n)
		if u := c.HTTPURL(); u != "" {
			fmt.Printf("introspection at %s (pctl top -coord %s)\n", u, u)
		}
		res, err := c.Wait(*wait)
		if err != nil {
			return err
		}
		requests, handoffs := 0, 0
		for _, s := range res.Stats {
			requests += s.Requests
			handoffs += s.Handoffs
		}
		fmt.Printf("run: %d CS entries, %d handoffs, %d candidates\n", requests, handoffs, res.Candidates)
		printDetections(res)
		if err := clusterInvariants(j, reg, faults.Delay); err != nil {
			return err
		}
		if *out != "" {
			if err := writeTrace(*out, res.Deposet, nil); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return nil
	}

	addrs := strings.Split(*addrList, ",")
	if len(addrs) != *n {
		return fmt.Errorf("node: -addrs has %d entries for n=%d", len(addrs), *n)
	}
	stats, err := node.Run(node.Config{
		ID: *id, N: *n, Addrs: addrs, Coord: *coord,
		Scapegoat: *scapegoat, Broadcast: *broadcast,
		Rounds: *rounds, Think: *think, CS: *cs,
		Seed: *seed, Faults: *faults, Batching: *batching,
		Rogue: *rogue, HTTPAddr: *httpAddr,
	})
	if err != nil {
		return err
	}
	fmt.Printf("node %d done: %d requests, %d handoffs, %d ctl messages\n",
		*id, stats.Requests, stats.Handoffs, stats.CtlMessages)
	return nil
}
