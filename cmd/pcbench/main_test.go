package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// The registry is pcbench's contract: these names, nothing else.
const wantNames = "chaos chaos-smoke e1 e10 e2 e3 e4 e5 e6 e7 e8 e9 metrics relay-smoke slice slice-smoke"

func TestRegistryNames(t *testing.T) {
	if got := names(registry); got != wantNames {
		t.Fatalf("registered names:\n got %s\nwant %s", got, wantNames)
	}
	for _, name := range strings.Fields(wantNames) {
		out := ""
		if records[name] {
			out = "record.json"
		}
		todo, err := resolve([]string{name}, out)
		if err != nil || len(todo) != 1 || todo[0] == nil {
			t.Errorf("resolve(%q, %q) = %d harnesses, %v", name, out, len(todo), err)
		}
	}
	for name := range records {
		if registry[name] == nil {
			t.Errorf("records names %q, which is not registered", name)
		}
	}
	if todo, err := resolve(nil, ""); err != nil || len(todo) != len(tables) {
		t.Errorf("no name must mean every table: %d harnesses, %v", len(todo), err)
	}
}

// One table end to end, so a table id the harness lacks cannot hide.
func TestRunsATable(t *testing.T) {
	todo, err := resolve([]string{"e7"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := execute(todo); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownNameListsTheRegistry(t *testing.T) {
	_, err := resolve([]string{"e4", "nope"}, "")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), wantNames) {
		t.Errorf("error does not name the culprit and the registry: %v", err)
	}
}

func TestExactlyFourFlags(t *testing.T) {
	var got []string
	flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := "cpuprofile memprofile out seed"; strings.Join(got, " ") != want {
		t.Errorf("flags %v, want %s", got, want)
	}
}

func TestOutIsNeverSilentlyIgnored(t *testing.T) {
	for _, tc := range []struct {
		args []string
		out  string
		ok   bool
	}{
		{[]string{"slice"}, "f.json", true},
		{[]string{"chaos"}, "f.json", true},
		{[]string{"chaos-smoke"}, "", true},
		{[]string{"slice"}, "", false},                // a record with nowhere to go
		{[]string{"e1"}, "f.json", false},             // writes no record
		{[]string{"chaos-smoke"}, "f.json", false},    // the CI slice keeps none either
		{nil, "f.json", false},                        // every table: none writes one
		{[]string{"slice", "e1"}, "f.json", false},    // one of the two would ignore it
		{[]string{"slice", "chaos"}, "f.json", false}, // the second would overwrite the first
	} {
		if _, err := resolve(tc.args, tc.out); (err == nil) != tc.ok {
			t.Errorf("resolve(%v, %q): err = %v, want ok = %v", tc.args, tc.out, err, tc.ok)
		}
	}
}

// invocations returns the words after "./cmd/pcbench" on every line of
// file that runs it, backslash continuations joined.
func invocations(t *testing.T, file string) [][]string {
	t.Helper()
	doc, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var found [][]string
	for _, line := range strings.Split(strings.ReplaceAll(string(doc), "\\\n", " "), "\n") {
		if _, after, ok := strings.Cut(line, "./cmd/pcbench"); ok {
			found = append(found, strings.Fields(after))
		}
	}
	return found
}

// A make target or CI step cannot outlive the harness it calls: every
// pcbench command line in the two files must parse with the four flags
// and resolve against the registry.
func TestMakefileAndCIUseTheRegistry(t *testing.T) {
	flags.Init("pcbench", flag.ContinueOnError)
	flags.SetOutput(io.Discard)
	defer flags.Init("pcbench", flag.ExitOnError)
	defer flags.SetOutput(nil)
	defer func() { *out = "" }()

	mk := invocations(t, "../../Makefile")
	if len(mk) < 5 {
		t.Fatalf("found %d pcbench lines in the Makefile, want the five smoke/record targets", len(mk))
	}
	for _, args := range append(mk, invocations(t, "../../.github/workflows/ci.yml")...) {
		*out = ""
		if err := flags.Parse(args); err != nil {
			t.Errorf("pcbench %s: %v", strings.Join(args, " "), err)
			continue
		}
		if _, err := resolve(flags.Args(), *out); err != nil {
			t.Errorf("pcbench %s: %v", strings.Join(args, " "), err)
		}
	}
}
