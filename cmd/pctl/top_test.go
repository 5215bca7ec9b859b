package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"predctl/internal/node"
)

func topSample(frames, cands int64) node.CoordStatus {
	return node.CoordStatus{
		N: 2, Epoch: 1, Restarts: 1, Done: 1, Byes: 0, UptimeMs: 1500,
		Nodes: []node.CoordNodeStatus{
			{Node: 0, Epoch: 1, LagMs: 2.5, Candidates: int(cands),
				Metrics: map[string]int64{
					"predctl_wire_frames_total":      frames,
					"predctl_requests_total":         3,
					"predctl_handoffs_total":         2,
					"predctl_wire_retransmits_total": 1,
				}},
			{Node: 1, Epoch: 1, LagMs: -1, Done: true, Bye: true,
				Metrics: map[string]int64{}},
		},
	}
}

func TestRenderTop(t *testing.T) {
	first := renderTop(topSample(100, 4), nil, 0)
	if !strings.Contains(first, "cluster n=2") || !strings.Contains(first, "restarts=1") {
		t.Fatalf("header missing from first frame:\n%s", first)
	}
	for _, col := range []string{"NODE", "EPOCH", "LAG(ms)", "FR/S", "CA/S", "RETX", "STATE"} {
		if !strings.Contains(first, col) {
			t.Fatalf("column %q missing:\n%s", col, first)
		}
	}
	// No previous frame → rate columns degrade to "-"; so does the
	// lag of the node that never snapshotted.
	if !strings.Contains(first, "-") {
		t.Fatalf("expected '-' placeholders on the first frame:\n%s", first)
	}
	if !strings.Contains(first, "parked") || !strings.Contains(first, "running") {
		t.Fatalf("per-node states missing:\n%s", first)
	}

	prev := topSample(100, 4)
	cur := topSample(300, 6)
	second := renderTop(cur, &prev, 2*time.Second)
	// 200 frames over 2s → 100/s; 2 candidates over 2s → 1.0/s.
	if !strings.Contains(second, "100") || !strings.Contains(second, "1.0") {
		t.Fatalf("rates not computed from deltas:\n%s", second)
	}

	// A counter going backwards (node relaunch) must clamp, not render
	// a negative rate.
	reset := topSample(50, 2)
	third := renderTop(reset, &cur, time.Second)
	if strings.Contains(third, "-1") || strings.Contains(third, "FR/S  -2") {
		t.Fatalf("negative rate leaked through a counter reset:\n%s", third)
	}

	// A dark run (no live checker) must not grow detection columns.
	if strings.Contains(first, "DET") || strings.Contains(first, "live{") {
		t.Fatalf("dark run rendered live-detection columns:\n%s", first)
	}
}

// TestRenderTopLive pins the live-detection view: the header summarizes
// confirmed detections and re-executions, each node row carries its
// witness tally with a rate, and a fired current-epoch verdict is
// called out.
func TestRenderTopLive(t *testing.T) {
	liveSample := func(dets int) node.CoordStatus {
		st := topSample(100, 4)
		st.Live = true
		st.Detections = dets
		st.ReExecs = 1
		st.Nodes[0].Detections = dets
		return st
	}
	first := renderTop(liveSample(1), nil, 0)
	if !strings.Contains(first, "live{det=1 reexec=1}") {
		t.Fatalf("live summary missing from header:\n%s", first)
	}
	for _, col := range []string{"DET", "DT/S"} {
		if !strings.Contains(first, col) {
			t.Fatalf("column %q missing from live frame:\n%s", col, first)
		}
	}

	// Two more confirmed detections over 2s → rate 1.0/s on the witness
	// node's row.
	prev := liveSample(1)
	cur := liveSample(3)
	second := renderTop(cur, &prev, 2*time.Second)
	if !strings.Contains(second, "1.0") {
		t.Fatalf("detection rate not computed from deltas:\n%s", second)
	}

	fired := liveSample(3)
	fired.LiveFired = true
	if out := renderTop(fired, nil, 0); !strings.Contains(out, "FIRED") {
		t.Fatalf("fired verdict not called out:\n%s", out)
	}
}

// TestTopOnce drives the subcommand end to end against a stub
// coordinator statusz endpoint.
func TestTopOnce(t *testing.T) {
	st := topSample(42, 3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/statusz" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer srv.Close()

	out, err := runCLI(t, "top", "-once", "-coord", srv.URL)
	if err != nil {
		t.Fatalf("top -once: %v\n%s", err, out)
	}
	if !strings.Contains(out, "cluster n=2") || !strings.Contains(out, "42") {
		t.Fatalf("dashboard frame missing data:\n%s", out)
	}

	if _, err := runCLI(t, "top", "-once", "-coord", "127.0.0.1:1"); err == nil {
		t.Fatal("top against a dead coordinator should fail")
	}
}

// TestTopRejectsBadFlags: time.Sleep(0) returns at once, so -interval 0
// (or below) would poll /statusz in a tight loop, and a negative -count
// names no number of frames. Each is refused with a one-line error
// naming the flag, before any poll: the dead coordinator is never asked.
func TestTopRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-interval", "0"}, {"-interval", "-1s"}, {"-count", "-1"},
	} {
		out, err := runCLI(t, "top", "-coord", "127.0.0.1:1", tc.flag, tc.value)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") || strings.Contains(err.Error(), "\n") {
			t.Errorf("top %s %s: error %v, want one line naming %s", tc.flag, tc.value, err, tc.flag)
		}
		if out != "" {
			t.Errorf("top %s %s printed %q before refusing", tc.flag, tc.value, out)
		}
	}
}
