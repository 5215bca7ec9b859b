package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"predctl/internal/deposet"
	"predctl/internal/store"
	"predctl/internal/wire"
)

// run the CLI with stdout captured.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	cmdErr := run(args)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	return string(out), cmdErr
}

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	pred := filepath.Join(dir, "p.json")
	ctl := filepath.Join(dir, "c.json")
	if err := os.WriteFile(pred, []byte(`{"locals":[
		{"p":0,"var":"ok","op":"eq","value":1},
		{"p":1,"var":"ok","op":"eq","value":1},
		{"p":2,"var":"ok","op":"eq","value":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runCLI(t, "gen", "-n", "3", "-events", "20", "-seed", "5", "-o", trace)
	if err != nil || !strings.Contains(out, "3 processes") {
		t.Fatalf("gen: %v\n%s", err, out)
	}

	out, err = runCLI(t, "info", "-lattice", trace)
	if err != nil || !strings.Contains(out, "lattice:") {
		t.Fatalf("info: %v\n%s", err, out)
	}

	out, err = runCLI(t, "detect", "-pred", pred, trace)
	if err != nil || !strings.Contains(out, "possibly(¬B)") {
		t.Fatalf("detect: %v\n%s", err, out)
	}

	out, err = runCLI(t, "control", "-pred", pred, "-o", ctl, trace)
	if err != nil {
		t.Fatalf("control: %v\n%s", err, out)
	}
	if !strings.Contains(out, "controller found") && !strings.Contains(out, "no controller") {
		t.Fatalf("control output unexpected:\n%s", out)
	}
	if _, statErr := os.Stat(ctl); statErr != nil {
		// Infeasible instance writes nothing; regenerate with a denser
		// predicate to ensure feasibility for the replay leg.
		t.Skipf("instance infeasible for this seed; control output: %s", out)
	}

	out, err = runCLI(t, "replay", "-pred", pred, "-seed", "3", ctl)
	if err != nil || !strings.Contains(out, "replayed:") {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verified") {
		t.Fatalf("replay did not verify:\n%s", out)
	}

	out, err = runCLI(t, "sgsd", "-pred", pred, trace)
	if err != nil || !strings.Contains(out, "explored") {
		t.Fatalf("sgsd: %v\n%s", err, out)
	}
}

// TestCLIDispatch proves every advertised subcommand name reaches its
// flag set: `-h` must come back as flag.ErrHelp (the subcommand parsed
// it), never as "unknown command". Keep the list in sync with run()
// and the usage block.
func TestCLIDispatch(t *testing.T) {
	subcommands := []string{
		"gen", "info", "detect", "control", "replay", "sgsd",
		"trace", "cluster", "node",
		"bundle verify", "bundle export", "bundle trace",
	}
	for _, name := range subcommands {
		args := append(strings.Fields(name), "-h")
		if _, err := runCLI(t, args...); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: got %v, want flag.ErrHelp (subcommand not dispatched?)", name, err)
		}
	}
}

// TestCLICluster runs the networked anti-token workload end to end over
// localhost TCP with seeded fault injection, then feeds the captured
// trace back through `pctl replay` — the loop the trace capture exists
// for.
func TestCLICluster(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "cluster.json")
	predFile := filepath.Join(dir, "pred.json")

	out, err := runCLI(t, "cluster", "-n", "3", "-rounds", "2",
		"-think", "2ms", "-cs", "1ms",
		"-drop", "0.2", "-dup", "0.1", "-delay", "2ms", "-jitter", "1ms", "-fault-seed", "7",
		"-o", traceFile, "-pred-o", predFile)
	if err != nil {
		t.Fatalf("cluster: %v\n%s", err, out)
	}
	if !strings.Contains(out, "invariants ok") {
		t.Fatalf("cluster did not report invariants:\n%s", out)
	}

	out, err = runCLI(t, "replay", "-pred", predFile, "-seed", "3", traceFile)
	if err != nil || !strings.Contains(out, "verified") {
		t.Fatalf("replay of captured cluster trace: %v\n%s", err, out)
	}
}

// TestCLIPredOut pins the bytes `cluster -pred-o` writes for n = 3,
// B = ∨ᵢ (csᵢ = 0): the file earlier builds wrote, byte for byte.
func TestCLIPredOut(t *testing.T) {
	predFile := filepath.Join(t.TempDir(), "pred.json")
	if out, err := runCLI(t, "cluster", "-n", "3", "-rounds", "1", "-pred-o", predFile); err != nil {
		t.Fatalf("cluster: %v\n%s", err, out)
	}
	got, err := os.ReadFile(predFile)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
 "locals": [
  {
   "p": 0,
   "var": "cs",
   "op": "eq"
  },
  {
   "p": 1,
   "var": "cs",
   "op": "eq"
  },
  {
   "p": 2,
   "var": "cs",
   "op": "eq"
  }
 ]
}
`
	if string(got) != want {
		t.Errorf("-pred-o wrote\n%s\nwant\n%s", got, want)
	}
}

// TestCLIPredOpTakesNoValue: op true reads "the variable is non-zero"
// and has no value to compare with, so a local that gives it one is
// refused, naming the local, rather than read as something it does not
// say.
func TestCLIPredOpTakesNoValue(t *testing.T) {
	dir := t.TempDir()
	tr, pred := filepath.Join(dir, "t.json"), filepath.Join(dir, "p.json")
	if err := run([]string{"gen", "-n", "2", "-events", "6", "-o", tr}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pred, []byte(`{"locals":[{"p":0,"var":"ok","op":"true","value":3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := `local "ok true 3" of process 0: op true takes no value`
	for _, cmd := range []string{"detect", "control", "replay", "sgsd"} {
		if err := run([]string{cmd, "-pred", pred, tr}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", cmd, err, want)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"info", "/does/not/exist.json"}); err == nil {
		t.Error("missing trace accepted")
	}
	if err := run([]string{"info"}); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"detect", "-pred", "/nope.json", "/also/nope.json"}); err == nil {
		t.Error("missing files accepted")
	}
	// A trace file written twice over is two documents, not one.
	twice := filepath.Join(t.TempDir(), "twice.json")
	if err := run([]string{"gen", "-n", "2", "-events", "6", "-o", twice}); err != nil {
		t.Fatal(err)
	}
	once, err := os.ReadFile(twice)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(twice, append(once, once...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", twice}); err == nil {
		t.Error("doubly-written trace accepted")
	}
	// A predicate file with two locals for one process is refused as such
	// on every command that reads one, and a missing -pred says so rather
	// than failing to open "".
	single := filepath.Join(t.TempDir(), "once.json")
	if err := os.WriteFile(single, once, 0o644); err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(t.TempDir(), "dup.json")
	if err := os.WriteFile(dup, []byte(`{"locals":[{"p":0,"var":"ok","op":"true"},{"p":0,"var":"ok","op":"false"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A misspelt key is an error naming it, not the empty predicate
	// B = false, and so is a predicate file written twice.
	local := `{"p":0,"var":"ok","op":"eq","value":1}`
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"local":[`+local+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	doubled := filepath.Join(t.TempDir(), "doubled.json")
	if err := os.WriteFile(doubled, []byte(`{"locals":[`+local+`]}`+"\n"+`{"locals":[`+local+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"detect", "control", "replay", "sgsd"} {
		if err := run([]string{cmd, "-pred", dup, single}); err == nil || !strings.Contains(err.Error(), "process 0 already has a local predicate") {
			t.Errorf("%s with two locals on process 0: error %v, want the duplicate refused", cmd, err)
		}
		if err := run([]string{cmd, "-pred", typo, single}); err == nil || !strings.Contains(err.Error(), `"local"`) {
			t.Errorf("%s with a misspelt key: error %v, want one naming it", cmd, err)
		}
		if err := run([]string{cmd, "-pred", doubled, single}); err == nil || !strings.Contains(err.Error(), "after the document") {
			t.Errorf("%s with a predicate file written twice: error %v", cmd, err)
		}
		if cmd == "replay" {
			continue // -pred is optional there
		}
		if err := run([]string{cmd, single}); err == nil || !strings.Contains(err.Error(), "-pred is required") {
			t.Errorf("%s without -pred: error %v", cmd, err)
		}
	}
	// Sizes no run produced are an error naming the count and the limit,
	// not a panic or an allocation of that size.
	for _, lens := range []string{"9223372036854775807", "4000000000,4000000000"} {
		huge := filepath.Join(t.TempDir(), "huge.json")
		if err := os.WriteFile(huge, []byte(`{"version":1,"lens":[`+lens+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"info", huge})
		limit := strconv.Itoa(deposet.MaxStates)
		if err == nil || !strings.Contains(err.Error(), strings.Split(lens, ",")[0]) || !strings.Contains(err.Error(), limit) {
			t.Errorf("lens [%s]: error %v, want one naming the count and the limit %s", lens, err, limit)
		}
	}
}

// TestCLIBundle drives the tree-and-store path end to end: a cluster
// run through relays with capture written through to disk, then the
// sealed bundle verified, exported back to trace JSON, rendered as a
// Chrome trace, and fed through `pctl detect` — the offline loop
// working from disk instead of the live capture.
func TestCLIBundle(t *testing.T) {
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "bundle")
	traceFile := filepath.Join(dir, "exported.json")
	predFile := filepath.Join(dir, "pred.json")

	out, err := runCLI(t, "cluster", "-n", "4", "-rounds", "2",
		"-think", "1ms", "-cs", "500us",
		"-relays", "2", "-store-dir", bundleDir, "-pred-o", predFile)
	if err != nil {
		t.Fatalf("cluster -relays -store-dir: %v\n%s", err, out)
	}
	if !strings.Contains(out, "tree: 2 relays") || !strings.Contains(out, "bundle: sealed") {
		t.Fatalf("cluster did not report the tree/bundle:\n%s", out)
	}

	out, err = runCLI(t, "bundle", "verify", bundleDir)
	if err != nil || !strings.Contains(out, "checksums verified") {
		t.Fatalf("bundle verify: %v\n%s", err, out)
	}
	out, err = runCLI(t, "bundle", "export", "-o", traceFile, bundleDir)
	if err != nil || !strings.Contains(out, "wrote") {
		t.Fatalf("bundle export: %v\n%s", err, out)
	}
	out, err = runCLI(t, "bundle", "trace", bundleDir)
	if err != nil || !strings.Contains(out, "traceEvents") {
		t.Fatalf("bundle trace: %v\n%s", err, out)
	}
	out, err = runCLI(t, "detect", "-pred", predFile, traceFile)
	if err != nil {
		t.Fatalf("detect on exported bundle trace: %v\n%s", err, out)
	}

	// A flipped byte in a segment must fail verification loudly.
	segs, err := filepath.Glob(filepath.Join(bundleDir, "seg-*.pcseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in bundle: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "bundle", "verify", bundleDir); err == nil {
		t.Fatal("bundle verify accepted a corrupted segment")
	}
}

// TestCLIClusterUnsealedBundle: a run whose trace store failed (a
// directory holds the second segment's name, so rotation fails) leaves
// the store unsealed, and the CLI must say so rather than report a
// bundle that `pctl bundle verify` cannot open.
func TestCLIClusterUnsealedBundle(t *testing.T) {
	cluster := func(dir string) (string, error) {
		return runCLI(t, "cluster", "-n", "8", "-rounds", "4000", "-think", "0", "-cs", "0", "-store-dir", dir)
	}
	for _, reused := range []bool{false, true} {
		dir := t.TempDir()
		block := filepath.Join(dir, "seg-000001.pcseg")
		if reused {
			// A sealed first run into the same directory: its manifest
			// must not speak for the second run's segments.
			if out, err := cluster(dir); err != nil {
				t.Fatalf("first run: %v\n%s", err, out)
			}
			if err := os.RemoveAll(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(block, 0o755); err != nil {
			t.Fatal(err)
		}
		out, err := cluster(dir)
		if _, statErr := os.Stat(filepath.Join(dir, store.ManifestName)); statErr == nil {
			t.Fatalf("reused=%v: the directory holds a manifest: the blocked rotation never failed, or an earlier run's survived", reused)
		}
		if strings.Contains(out, "bundle: sealed") {
			t.Errorf("reused=%v: reported an unsealed bundle as sealed:\n%s", reused, out)
		}
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "not sealed") {
			t.Errorf("reused=%v: error %v, want one naming %s and saying it was not sealed", reused, err, dir)
		}
	}
}

// TestCLIBundleForgedN: a manifest whose n claims more nodes than the
// bundle holds records is refused by every bundle command with an
// error naming n — not an out-of-memory crash in export, which sized
// its per-process table by it.
func TestCLIBundleForgedN(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 2; id++ {
		init := wire.TraceOpBatch{Ops: []wire.TraceOp{{Op: wire.TraceInit, Proc: id, Name: "cs"}, {Op: wire.TraceInit, Proc: 2 + id, Name: "cs"}}}
		if err := st.Append(id, 0, wire.AppendBody(nil, 1, init)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(2, 0); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "bundle", "export", "-o", filepath.Join(t.TempDir(), "t.json"), dir); err != nil {
		t.Fatalf("bundle export of the honest bundle: %v\n%s", err, out)
	}
	path := filepath.Join(dir, store.ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(raw), `"n": 2,`, `"n": 1099511627776,`, 1)
	if forged == string(raw) {
		t.Fatalf("manifest has no n to forge:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"verify", "export", "trace"} {
		if _, err := runCLI(t, "bundle", cmd, dir); err == nil || !strings.Contains(err.Error(), "n=1099511627776") {
			t.Errorf("bundle %s on a forged n: %v, want an error naming n", cmd, err)
		}
	}
}

// TestCLIClusterRejectsBadTargets: a scapegoat outside the cluster or a
// negative relay count is a one-line error naming the flag, returned
// before anything runs — not a two-minute hang, not a silently flat run.
func TestCLIClusterRejectsBadTargets(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-scapegoat", "5", "scapegoat 5"},
		{"-scapegoat", "-1", "scapegoat -1"},
		{"-relays", "-2", "relays -2"},
	} {
		begin := time.Now()
		err := run([]string{"cluster", "-n", "3", c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("cluster %s %s: error %v, want one line naming %q", c.flag, c.value, err, c.want)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("cluster %s %s: refused after %v", c.flag, c.value, took)
		}
	}
}

// TestCLIReplayFailures: a delay bound no replay can draw from is a
// one-line error naming the flag, not a panic, and a replay that
// violates B is an error, so the exit status says what the output does.
func TestCLIReplayFailures(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	pred := filepath.Join(dir, "p.json")
	if err := os.WriteFile(pred, []byte(`{"locals":[
		{"p":0,"var":"ok","op":"eq","value":1},
		{"p":1,"var":"ok","op":"eq","value":1},
		{"p":2,"var":"ok","op":"eq","value":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, "gen", "-n", "3", "-events", "24", "-density", "0.3", "-o", trace); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	for _, c := range []struct{ flag, value, want string }{
		{"-maxdelay", "0", "-maxdelay "},
		{"-maxdelay", "-5", "-maxdelay "},
		{"-pred", pred, "VERIFY FAILED"},
	} {
		out, err := runCLI(t, "replay", c.flag, c.value, trace)
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("replay %s %s: error %v, want one line naming %q\n%s", c.flag, c.value, err, c.want, out)
		}
	}
}

// TestCLIGenRejectsBadFlags: a size or density no trace can have is a
// one-line error naming the flag, with nothing written, not a panic.
func TestCLIGenRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, c := range []struct{ flag, value string }{
		{"-n", "0"}, {"-n", "-2"}, {"-events", "-4"},
		{"-density", "-0.1"}, {"-density", "1.5"}, {"-density", "NaN"},
	} {
		err := run([]string{"gen", c.flag, c.value, "-o", out})
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("gen %s %s: error %v, want one naming %s", c.flag, c.value, err, c.flag)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Fatalf("gen %s %s wrote %s", c.flag, c.value, out)
		}
	}
	if err := run([]string{"gen", "-n", "1", "-events", "0", "-density", "1", "-o", out}); err != nil {
		t.Errorf("gen -n 1 -events 0 -density 1: %v", err)
	}
}

// TestCLIRejectsBadRounds: -rounds means critical sections per process
// in every command that takes it, so none can run fewer than one. Each
// refuses before it binds anything, with a one-line error naming the
// flag, and prints nothing.
func TestCLIRejectsBadRounds(t *testing.T) {
	for _, args := range [][]string{
		{"cluster", "-rounds", "0"},
		{"cluster", "-rounds", "-3"},
		{"node", "-coord", "127.0.0.1:0", "-rounds", "0"},
		{"node", "-id", "-1", "-coord", "127.0.0.1:0", "-wait", "1ms", "-rounds", "0"},
		{"trace", "-rounds", "0"},
		{"trace", "-rounds", "-1"},
	} {
		begin := time.Now()
		out, err := runCLI(t, args...)
		if err == nil || !strings.Contains(err.Error(), "-rounds ") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line naming -rounds", strings.Join(args, " "), err)
		}
		if out != "" {
			t.Errorf("%s printed %q before refusing", strings.Join(args, " "), out)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("%s: refused after %v", strings.Join(args, " "), took)
		}
	}
}

// TestCLIRejectsBadBatching: a negative batch size or flush interval
// is refused before anything binds, with a one-line error naming the
// flag — not run silently with the default, as 0 asks for.
func TestCLIRejectsBadBatching(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"cluster", "-batch-items", "-3"}, "-batch-items "},
		{[]string{"cluster", "-batch-interval", "-1ms"}, "-batch-interval "},
		{[]string{"node", "-coord", "127.0.0.1:0", "-batch-items", "-3"}, "-batch-items "},
		{[]string{"node", "-id", "-1", "-coord", "127.0.0.1:0", "-wait", "1ms", "-batch-interval", "-1ms"}, "-batch-interval "},
	} {
		begin := time.Now()
		out, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line naming %s", strings.Join(tc.args, " "), err, tc.flag)
		}
		if out != "" {
			t.Errorf("%s printed %q before refusing", strings.Join(tc.args, " "), out)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("%s: refused after %v", strings.Join(tc.args, " "), took)
		}
	}
}

// TestCLIRejectsBadFaults: a fault schedule that can never deliver (or
// sever anything), and a negative think or critical-section time, are
// refused with a one-line error naming the flag, before anything binds
// — at the cluster and at a lone node alike. A -drop 1 cluster used to
// print nothing and stall for 150 s; a negative -think or -cs ran as
// zero.
func TestCLIRejectsBadFaults(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"cluster", "-n", "3", "-rounds", "1", "-drop", "1"}, "drop 1"},
		{[]string{"cluster", "-n", "3", "-delay", "-1ms"}, "delay -1ms"},
		{[]string{"cluster", "-n", "3", "-partition", "start=1ms,dur=5ms,a=7"}, "partition 0: node 7"},
		{[]string{"node", "-n", "2", "-addrs", "127.0.0.1:0,127.0.0.1:0", "-coord", "127.0.0.1:0", "-drop", "1"}, "drop 1"},
		{[]string{"cluster", "-n", "2", "-rounds", "1", "-think", "-5ms"}, "think -5ms"},
		{[]string{"cluster", "-n", "2", "-rounds", "1", "-cs", "-5ms"}, "cs -5ms"},
		{[]string{"node", "-n", "2", "-addrs", "127.0.0.1:0,127.0.0.1:0", "-coord", "127.0.0.1:0", "-think", "-5ms"}, "think -5ms"},
		{[]string{"node", "-n", "2", "-addrs", "127.0.0.1:0,127.0.0.1:0", "-coord", "127.0.0.1:0", "-cs", "-5ms"}, "cs -5ms"},
	} {
		begin := time.Now()
		out, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %v, want one line naming %q", strings.Join(tc.args, " "), err, tc.flag)
		}
		if out != "" {
			t.Errorf("%s printed %q before refusing", strings.Join(tc.args, " "), out)
		}
		if took := time.Since(begin); took > time.Second {
			t.Errorf("%s: refused after %v", strings.Join(tc.args, " "), took)
		}
	}
}
