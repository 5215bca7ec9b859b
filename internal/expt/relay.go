package expt

import (
	"fmt"
	"time"

	"predctl/internal/detect"
	"predctl/internal/node"
	"predctl/internal/obs"
	"predctl/internal/predicate"
)

// relay.go is the hierarchical-ingest smoke: a 2-level aggregation tree
// at n = 64 with a relay killed mid-run, gated on full capture, the
// paper invariants, the root's connection cut, and live-verdict
// agreement with offline detection — plus a small planted-rogue tree
// run so the firing path through the relay hop is exercised too.
// `make relay-smoke` and the CI job of that name run it via
// `pcbench relay-smoke`.

// relaySmokeN is the clean run's cluster size; large enough that the
// tree actually aggregates (relaySmokeRelays children per relay).
const (
	relaySmokeN      = 64
	relaySmokeRelays = 4
	relaySmokeRounds = 2
)

// relaySmokeClean runs the violation-free tree cluster with one relay
// killed mid-run and verifies the kill healed like a stream sever:
// no controlled re-execution, zero lost capture, invariants green, the
// root serving O(relays) connections, and the live checker silent in
// agreement with the offline detector.
func relaySmokeClean(seed int64) error {
	const n, relays = relaySmokeN, relaySmokeRelays
	j := obs.NewJournal(0)
	reg := obs.NewRegistry()
	res, err := node.RunCluster(node.ClusterConfig{
		N: n, Rounds: relaySmokeRounds, Think: 500 * time.Microsecond, CS: 200 * time.Microsecond,
		Seed: seed, Timeouts: chaosTimeouts(),
		Faults: node.Faults{Delay: chaosDelay, Seed: seed},
		Relays: relays,
		RelayCrashes: []node.Crash{
			{At: 8 * time.Millisecond, Node: 1, Down: 5 * time.Millisecond},
		},
		Live:    node.LiveConfig{Predicate: node.CSMutexPredicate(n), OnDetect: node.OnDetectNote},
		Journal: j, Reg: reg,
		WaitTimeout: 2 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("clean tree run: %w", err)
	}
	if res.Restarts != 0 {
		return fmt.Errorf("clean tree run: relay kill triggered %d restarts, want 0 (must heal like a stream sever)", res.Restarts)
	}
	// One handshake per relay plus one redial for the killed relay's
	// relaunch — and never the flat topology's O(n).
	if res.RootConns < relays || res.RootConns > relays+1 {
		return fmt.Errorf("clean tree run: root accepted %d stream connections, want %d–%d (one per relay + the relaunch)",
			res.RootConns, relays, relays+1)
	}
	wantApp := 1 + 5*relaySmokeRounds
	for p := 0; p < n; p++ {
		if got := res.Deposet.Len(p); got != wantApp {
			return fmt.Errorf("clean tree run: app %d captured %d/%d events", p, got, wantApp)
		}
	}
	_, offline := detect.PossiblyGeneral(res.Deposet, predicate.Not(node.CSMutexPredicate(n)))
	if res.LiveFired != offline {
		return fmt.Errorf("clean tree run: live verdict %v, offline %v", res.LiveFired, offline)
	}
	if res.LiveFired {
		return fmt.Errorf("clean tree run: checker fired on a violation-free workload")
	}
	var rep obs.Report
	rep.CheckNetRun(j, reg, chaosDelay)
	if err := rep.Err(); err != nil {
		return fmt.Errorf("clean tree run: %w", err)
	}
	return nil
}

// relaySmokeRogue plants rogues in a small tree cluster: the candidates
// that complete the checker's witness arrive forwarded through relays,
// and the mid-run verdict must still match offline detection (and fire).
// ¬B is "all n in the CS at once", so n−1 rogues plus the legitimate
// holder make the violation reachable.
func relaySmokeRogue(seed int64) error {
	const n = 3
	res, err := node.RunCluster(node.ClusterConfig{
		N: n, Rounds: 4, Think: time.Millisecond, CS: time.Millisecond,
		Seed: seed, Rogues: []int{1, 2}, Timeouts: chaosTimeouts(),
		Relays:      2,
		Live:        node.LiveConfig{Predicate: node.CSMutexPredicate(n), OnDetect: node.OnDetectNote},
		WaitTimeout: 2 * time.Minute,
	})
	if err != nil {
		return fmt.Errorf("rogue tree run: %w", err)
	}
	_, offline := detect.PossiblyGeneral(res.Deposet, predicate.Not(node.CSMutexPredicate(n)))
	if res.LiveFired != offline {
		return fmt.Errorf("rogue tree run: live verdict %v, offline %v", res.LiveFired, offline)
	}
	if !offline {
		return fmt.Errorf("rogue tree run: planted violation not detected offline")
	}
	return nil
}

// RelaySmoke is the CI gate for hierarchical ingest. It returns a
// one-line verdict on success.
func RelaySmoke(seed int64) (string, error) {
	if err := relaySmokeClean(seed); err != nil {
		return "", err
	}
	if err := relaySmokeRogue(seed); err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"ok: n=%d through %d relays with a mid-run relay kill — full capture, no restart, root conns O(relays), live verdict matches offline (clean and rogue)",
		relaySmokeN, relaySmokeRelays), nil
}
