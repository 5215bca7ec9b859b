package main

// top.go: `pctl top` is the live cluster dashboard. It polls a
// coordinator's /statusz introspection endpoint and renders a
// top-style per-node table — epoch, snapshot lag, capture-stream
// frames and rates, candidates, request/handoff tallies, retransmits,
// and each node's completion state — refreshing until the run (and its
// coordinator) goes away.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"text/tabwriter"
	"time"

	"predctl/internal/node"
)

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	coord := fs.String("coord", "http://127.0.0.1:7070", "coordinator introspection base URL (pctl cluster -http / pctl node -id -1 -http)")
	interval := fs.Duration("interval", time.Second, "refresh period")
	once := fs.Bool("once", false, "render one frame and exit")
	count := fs.Int("count", 0, "exit after N frames (0 = until the coordinator exits)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return errors.New("top takes no arguments; point -coord at a coordinator URL")
	}
	if *interval <= 0 {
		return fmt.Errorf("top: -interval must be positive, got %v", *interval)
	}
	if *count < 0 {
		return fmt.Errorf("top: -count must not be negative, got %d", *count)
	}
	base := strings.TrimSuffix(*coord, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *node.CoordStatus
	var prevAt time.Time
	frames := 0
	for {
		st, err := fetchCoordStatus(client, base)
		now := time.Now()
		if err != nil {
			if frames == 0 {
				return fmt.Errorf("top: %s: %w", base, err)
			}
			// The run completed and took its coordinator down — a clean
			// exit, not an error.
			fmt.Println("coordinator gone; exiting")
			return nil
		}
		var dt time.Duration
		if prev != nil {
			dt = now.Sub(prevAt)
		}
		if frames > 0 && !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear, top-style refresh
		}
		fmt.Print(renderTop(*st, prev, dt))
		frames++
		if *once || (*count > 0 && frames >= *count) || st.Committed {
			return nil
		}
		prev, prevAt = st, now
		time.Sleep(*interval)
	}
}

func fetchCoordStatus(client *http.Client, base string) (*node.CoordStatus, error) {
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz: HTTP %d", resp.StatusCode)
	}
	var st node.CoordStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &st, nil
}

// renderTop formats one dashboard frame. prev (the previous frame) and
// dt turn cumulative tallies into rates; with no previous frame the
// rate columns render "-".
func renderTop(st node.CoordStatus, prev *node.CoordStatus, dt time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster n=%d  epoch=%d  restarts=%d  done=%d/%d  byes=%d/%d",
		st.N, st.Epoch, st.Restarts, st.Done, st.N, st.Byes, st.N)
	if st.Live {
		fmt.Fprintf(&b, "  live{det=%d reexec=%d}", st.Detections, st.ReExecs)
		if st.LiveFired {
			b.WriteString("  [possibly(¬B) FIRED]")
		}
	}
	switch {
	case st.Committed:
		b.WriteString("  [committed]")
	case st.Shutdown:
		b.WriteString("  [shutdown]")
	}
	if st.StoreSegments > 0 {
		fmt.Fprintf(&b, "  store{segs=%d bytes=%d}", st.StoreSegments, st.StoreBytes)
	}
	fmt.Fprintf(&b, "  up %s\n", (time.Duration(st.UptimeMs) * time.Millisecond).Round(time.Millisecond))

	if len(st.Relays) > 0 {
		rw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(rw, "RELAY\tFANIN\tFRAMES\tITEMS\tSEQ\tLAG(ms)")
		for _, r := range st.Relays {
			lag := "-"
			if r.LagMs >= 0 {
				lag = fmt.Sprintf("%.1f", r.LagMs)
			}
			fmt.Fprintf(rw, "%d\t%d\t%d\t%d\t%d\t%s\n",
				r.Relay, r.FanIn, r.Frames, r.Items, r.LastSeq, lag)
		}
		rw.Flush()
	}

	prevRows := map[int]node.CoordNodeStatus{}
	if prev != nil {
		for _, row := range prev.Nodes {
			prevRows[row.Node] = row
		}
	}
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	head := "NODE\tEPOCH\tLAG(ms)\tFRAMES\tFR/S\tCANDS\tCA/S"
	if st.Live {
		head += "\tDET\tDT/S"
	}
	fmt.Fprintln(w, head+"\tREQS\tHANDOFF\tRETX\tSTATE")
	for _, row := range st.Nodes {
		lag := "-"
		if row.LagMs >= 0 {
			lag = fmt.Sprintf("%.1f", row.LagMs)
		}
		frames := row.Metrics["predctl_wire_frames_total"]
		frRate, caRate, dtRate := "-", "-", "-"
		if p, ok := prevRows[row.Node]; ok && dt > 0 {
			frRate = fmt.Sprintf("%.0f", rate(frames-p.Metrics["predctl_wire_frames_total"], dt))
			caRate = fmt.Sprintf("%.1f", rate(int64(row.Candidates-p.Candidates), dt))
			dtRate = fmt.Sprintf("%.1f", rate(int64(row.Detections-p.Detections), dt))
		}
		state := "running"
		switch {
		case row.Bye:
			state = "parked"
		case row.Done:
			state = "done"
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%s\t%d\t%s",
			row.Node, row.Epoch, lag,
			frames, frRate,
			row.Candidates, caRate)
		if st.Live {
			fmt.Fprintf(w, "\t%d\t%s", row.Detections, dtRate)
		}
		fmt.Fprintf(w, "\t%d\t%d\t%d\t%s\n",
			row.Metrics["predctl_requests_total"],
			row.Metrics["predctl_handoffs_total"],
			row.Metrics["predctl_wire_retransmits_total"],
			state)
	}
	w.Flush()
	return b.String()
}

func rate(delta int64, dt time.Duration) float64 {
	if delta < 0 { // a relaunch reset the node's cumulative counters
		delta = 0
	}
	return float64(delta) / dt.Seconds()
}
