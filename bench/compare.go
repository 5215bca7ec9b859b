package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contractFile is BENCHMARK.json. -compare needs which way each
// end-to-end metric is better and how far it may worsen; the tests hold
// the rest against what the benchmark prints.
type contractFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles gates the report at newPath against the one at oldPath
// with the bounds recorded in the contract, naming every metric ×
// workload that moved too far. It reports whether the gate passed.
func compareFiles(w io.Writer, contractPath, oldPath, newPath string) (bool, error) {
	var c contractFile
	var older, newer report
	if err := readJSON(contractPath, &c); err != nil {
		return false, err
	}
	if err := readJSON(oldPath, &older); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &newer); err != nil {
		return false, err
	}
	return compareReports(w, c, &older, &newer), nil
}

func compareReports(w io.Writer, c contractFile, older, newer *report) bool {
	if older.Host != newer.Host {
		fmt.Fprintf(w, "note: hosts differ: %+v vs %+v\n", older.Host, newer.Host)
	}
	ok := true
	for _, nw := range newer.Workloads {
		var ow *workloadReport
		for i := range older.Workloads {
			if older.Workloads[i].Name == nw.Name {
				ow = &older.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%s: not in the older report\n", nw.Name)
			continue
		}
		if nw.FailRatio > ow.FailRatio {
			fmt.Fprintf(w, "REGRESSION %s fail_ratio: %g -> %g (no increase allowed)\n", nw.Name, ow.FailRatio, nw.FailRatio)
			ok = false
		}
		for _, def := range c.EndToEnd {
			before, after := find(ow.EndToEnd, def.Name), find(nw.EndToEnd, def.Name)
			if before == nil || after == nil || before.Value == 0 {
				continue
			}
			// worse is the share of the older value the metric lost.
			worse := (after.Value - before.Value) / before.Value
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > def.Bound {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-10s %-20s %-24s %14.6g -> %14.6g %s  %+6.1f%% worse (bound %.0f%%)\n",
				verdict, nw.Name, def.Name, before.Value, after.Value, after.Unit, 100*worse, 100*def.Bound)
		}
	}
	return ok
}

func find(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}
