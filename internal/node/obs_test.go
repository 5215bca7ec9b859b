package node

// obs_test.go pins the live-observability layer: the coordinator's
// introspection endpoints stay up and truthful through a chaos run —
// including across a crash-restart epoch bump — node metrics
// snapshots populate the merged live registry with node-labelled
// series, and the nodes' own introspection servers answer mid-run.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"predctl/internal/obs"
)

// TestClusterLiveIntrospection runs a chaos cluster with a pre-bound
// coordinator HTTP listener and polls /healthz, /metrics and /statusz
// for the whole run, requiring: every poll answers, the statusz epoch
// is observed ≥ 1 after the crash-restart, per-node rows carry
// streamed metrics, and /metrics exposes node-labelled series plus the
// ingest-lag gauges.
func TestClusterLiveIntrospection(t *testing.T) {
	const n = 4
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	base := "http://" + hln.Addr().String()

	// Collect the node introspection URLs Run logs, so the poller can
	// hit a node endpoint too (the ports are ephemeral).
	var logMu sync.Mutex
	var nodeURLs []string
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if i := strings.Index(line, "introspection at http://"); i >= 0 {
			logMu.Lock()
			nodeURLs = append(nodeURLs, line[i+len("introspection at "):])
			logMu.Unlock()
		}
	}

	cfg := ClusterConfig{
		N: n, Rounds: 3, Think: 5 * time.Millisecond, CS: time.Millisecond,
		Seed: 7, Timeouts: chaosTimeouts(),
		Batching: Batching{Interval: time.Millisecond, SnapshotEvery: 2},
		Crashes:  []Crash{{At: 10 * time.Millisecond, Node: 1, Down: 5 * time.Millisecond}},
		Journal:  obs.NewJournal(0), Reg: obs.NewRegistry(),
		HTTPListener: hln, NodeHTTP: true,
		Logf: logf,
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunCluster(cfg)
		done <- outcome{res, err}
	}()

	client := &http.Client{Timeout: 2 * time.Second}
	get := func(url string) (int, string, error) {
		resp, err := client.Get(url)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}

	var (
		maxEpoch      uint32
		sawRows       bool
		sawNodeSeries bool
		sawLagSeries  bool
		sawStreamed   bool
		sawNodeStatus bool
		polls         int
	)
	var out outcome
poll:
	for {
		select {
		case out = <-done:
			break poll
		default:
		}
		code, _, err := get(base + "/healthz")
		if err != nil {
			// Teardown race: the run finishing closes the server between
			// our done check and the GET. Anything else is a real outage.
			select {
			case out = <-done:
				break poll
			case <-time.After(time.Second):
				t.Fatalf("healthz unreachable while the run is live: %v", err)
			}
		}
		if code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		if code, body, err := get(base + "/metrics"); err == nil {
			if code != http.StatusOK {
				t.Fatalf("metrics status %d", code)
			}
			if strings.Contains(body, `node="`) {
				sawNodeSeries = true
			}
			if strings.Contains(body, "predctl_coord_ingest_lag_seconds") {
				sawLagSeries = true
			}
		}
		if code, body, err := get(base + "/statusz"); err == nil {
			if code != http.StatusOK {
				t.Fatalf("statusz status %d", code)
			}
			var st CoordStatus
			if derr := json.Unmarshal([]byte(body), &st); derr != nil {
				t.Fatalf("statusz not parseable: %v\n%s", derr, body)
			}
			if st.Epoch > maxEpoch {
				maxEpoch = st.Epoch
			}
			if len(st.Nodes) == n {
				sawRows = true
			}
			for _, row := range st.Nodes {
				if row.LagMs >= 0 && row.Metrics["predctl_wire_frames_total"] > 0 {
					sawStreamed = true
				}
			}
		}
		if !sawNodeStatus {
			logMu.Lock()
			urls := append([]string(nil), nodeURLs...)
			logMu.Unlock()
			for _, u := range urls {
				// Best effort — a crashed node's server is gone; any one
				// answering proves the node-side endpoints.
				if code, body, err := get(u + "/statusz"); err == nil && code == http.StatusOK {
					var ns NodeStatus
					if json.Unmarshal([]byte(body), &ns) == nil && ns.N == n {
						sawNodeStatus = true
						break
					}
				}
			}
		}
		polls++
		time.Sleep(2 * time.Millisecond)
	}

	if out.err != nil {
		t.Fatalf("cluster: %v", out.err)
	}
	if out.res.Restarts < 1 {
		t.Fatalf("crash schedule produced %d restarts, want ≥ 1", out.res.Restarts)
	}
	if polls < 3 {
		t.Fatalf("only %d polls completed; run too fast to observe", polls)
	}
	if maxEpoch < 1 {
		t.Fatalf("statusz never showed the crash-restart epoch bump (max epoch %d)", maxEpoch)
	}
	if !sawRows {
		t.Fatalf("statusz never listed all %d node rows", n)
	}
	if !sawStreamed {
		t.Fatal("no node row ever carried streamed snapshot metrics with a fresh lag")
	}
	if !sawNodeSeries {
		t.Fatal("/metrics never exposed a node-labelled series")
	}
	if !sawLagSeries {
		t.Fatal("/metrics never exposed predctl_coord_ingest_lag_seconds")
	}
	if !sawNodeStatus {
		t.Fatal("no node introspection endpoint ever answered /statusz")
	}
}

// TestClusterTraceFromChaosRun exports the merged journal of a real
// crash-restart run as a cluster Chrome trace and requires the pieces
// a debugger needs: parseable JSON, at least one causally-matched
// cross-node flow pair, and the chaos annotations on the cluster row.
func TestClusterTraceFromChaosRun(t *testing.T) {
	const n, rounds = 3, 3
	res, j, _ := runTestCluster(t, ClusterConfig{
		N: n, Rounds: rounds, Think: 3 * time.Millisecond, CS: time.Millisecond,
		Seed: 1998, Timeouts: chaosTimeouts(),
		Crashes: []Crash{{At: 5 * time.Millisecond, Node: 1, Down: 5 * time.Millisecond}},
	})
	if res.Restarts < 1 {
		t.Fatalf("crash schedule produced %d restarts, want ≥ 1", res.Restarts)
	}
	doc, err := obs.ClusterTrace(j, obs.ClusterTraceOptions{N: n})
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			ID   int64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatalf("cluster trace is not valid JSON: %v", err)
	}
	starts, finishes := map[int64]int{}, map[int64]int{}
	sawCrash, sawRestartMark := false, false
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "s":
			starts[e.ID]++
		case "f":
			finishes[e.ID]++
		case "i":
			if e.Name == obs.EvChaosCrash && e.Pid == n {
				sawCrash = true
			}
			if e.Name == obs.EvEpochRestart {
				sawRestartMark = true
			}
		}
	}
	if len(finishes) == 0 {
		t.Fatal("no cross-node flow arrows in the cluster trace")
	}
	for id, c := range finishes {
		if starts[id] != c {
			t.Errorf("flow %d: %d finishes for %d starts", id, c, starts[id])
		}
	}
	if !sawCrash {
		t.Error("chaos.crash annotation missing from the cluster row")
	}
	if !sawRestartMark {
		t.Error("epoch.restart marker missing from the trace")
	}
}

// TestClosingSnapshotPopulatesLiveRegistry pins the snapshot path end
// to end on a quiet run: even with a periodic cadence far beyond the
// run length, the closing snapshot each node sends in its bye phase
// reaches the coordinator's live registry. It is deterministic because
// the snapshot precedes the bye on the same ordered stream: by the
// time every bye is counted (Wait returns), every snapshot is applied.
func TestClosingSnapshotPopulatesLiveRegistry(t *testing.T) {
	const n = 2
	coord, err := NewCoordinator(CoordConfig{
		N: n, Addr: "127.0.0.1:0", Reg: obs.NewRegistry(),
		Timeouts: chaosTimeouts(),
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			t.Fatalf("listen: %v", lerr)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	reg := obs.NewRegistry()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, rerr := Run(Config{
				ID: i, N: n, Addrs: addrs, Coord: coord.Addr(),
				Rounds: 1, Think: time.Millisecond, CS: time.Millisecond,
				Seed: 3, Timeouts: chaosTimeouts(), Listener: lns[i],
				Reg:   reg.Child(obs.L("node", fmt.Sprint(i))),
				Start: start,
				// Only the capture's closing snapshot (stop) can deliver metrics
				// at this cadence.
				Batching: Batching{Interval: 50 * time.Millisecond, SnapshotEvery: 1 << 20},
			})
			if rerr != nil {
				t.Errorf("node %d: %v", i, rerr)
			}
		}(i)
	}
	if _, err := coord.Wait(time.Minute); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Let the nodes exit on the Commit before tearing the listener down,
	// or their final drain turns into a futile resume campaign.
	wg.Wait()
	st := coord.Status()
	if len(st.Nodes) != n {
		t.Fatalf("status has %d node rows, want %d", len(st.Nodes), n)
	}
	for _, row := range st.Nodes {
		if row.LagMs < 0 {
			t.Errorf("node %d: no snapshot ever arrived", row.Node)
		}
		if row.Metrics["predctl_requests_total"] == 0 {
			t.Errorf("node %d: closing snapshot missing request tally: %v", row.Node, row.Metrics)
		}
	}
}
