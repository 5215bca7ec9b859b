package obs

import (
	"fmt"
	"strings"
)

// MetricKind discriminates snapshot points. Histograms flatten to three
// points (count/sum/max) — the wire snapshot is a live dashboard feed,
// not a transfer of raw observations (those travel as capture batches).
type MetricKind uint8

const (
	MetricCounter MetricKind = iota + 1
	MetricGauge
	MetricHistCount
	MetricHistSum
	MetricHistMax
)

// MetricPoint is one cumulative series value: Key is the canonical
// rendered series identity (name{labels}), Value the current count /
// gauge / flattened histogram component.
type MetricPoint struct {
	Kind  MetricKind
	Key   string
	Value int64
}

// Snapshot dumps every counter, gauge and histogram as cumulative
// points, deterministically ordered. Float gauges are excluded
// (scrape-local). Safe to call concurrently with updates.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for k, c := range r.counts {
		counts[k] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	pts := make([]MetricPoint, 0, len(counts)+len(gauges)+3*len(hists))
	for _, k := range sortedKeys(counts) {
		pts = append(pts, MetricPoint{MetricCounter, k, counts[k].Value()})
	}
	for _, k := range sortedKeys(gauges) {
		pts = append(pts, MetricPoint{MetricGauge, k, gauges[k].Value()})
	}
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		pts = append(pts,
			MetricPoint{MetricHistCount, k, h.Count()},
			MetricPoint{MetricHistSum, k, h.Sum()},
			MetricPoint{MetricHistMax, k, h.Max()})
	}
	return pts
}

// ApplySnapshot merges cumulative points into r with set semantics
// (snapshots are full dumps, so replayed or re-delivered frames are
// idempotent). The extra labels are injected into each series identity
// unless the key already carries them — the coordinator applies node
// snapshots with obs.L("node", id) to build the merged live registry.
// Flattened histogram points land as name_count/name_sum counters and a
// name_max gauge. Malformed keys are skipped.
func (r *Registry) ApplySnapshot(points []MetricPoint, extra ...Label) {
	if r == nil {
		return
	}
	for _, p := range points {
		name, labels, err := ParseKey(p.Key)
		if err != nil {
			continue
		}
		labels = addMissingLabels(labels, extra)
		switch p.Kind {
		case MetricCounter:
			r.Counter(name, labels...).set(p.Value)
		case MetricGauge:
			r.Gauge(name, labels...).Set(p.Value)
		case MetricHistCount:
			r.Counter(name+"_count", labels...).set(p.Value)
		case MetricHistSum:
			r.Counter(name+"_sum", labels...).set(p.Value)
		case MetricHistMax:
			r.Gauge(name+"_max", labels...).Set(p.Value)
		}
	}
}

// addMissingLabels appends each extra label whose key is absent.
func addMissingLabels(labels, extra []Label) []Label {
	for _, e := range extra {
		found := false
		for _, l := range labels {
			if l.Key == e.Key {
				found = true
				break
			}
		}
		if !found {
			labels = append(labels, e)
		}
	}
	return labels
}

// ParseKey is the inverse of the canonical series rendering: it splits
// name{k="v",...} back into the metric name and unescaped labels.
func ParseKey(k string) (string, []Label, error) {
	i := strings.IndexByte(k, '{')
	if i < 0 {
		return k, nil, nil
	}
	name := k[:i]
	if !strings.HasSuffix(k, "}") {
		return "", nil, fmt.Errorf("obs: malformed series key %q", k)
	}
	body := k[i+1 : len(k)-1]
	var labels []Label
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return "", nil, fmt.Errorf("obs: malformed label block in %q", k)
		}
		lk := body[:eq]
		rest := body[eq+2:]
		var v strings.Builder
		j := 0
		for {
			if j >= len(rest) {
				return "", nil, fmt.Errorf("obs: unterminated label value in %q", k)
			}
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				switch rest[j+1] {
				case '\\':
					v.WriteByte('\\')
				case '"':
					v.WriteByte('"')
				case 'n':
					v.WriteByte('\n')
				default:
					v.WriteByte(rest[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			v.WriteByte(c)
			j++
		}
		labels = append(labels, Label{lk, v.String()})
		body = rest[j+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		}
	}
	return name, labels, nil
}

// SumByName folds counter and gauge points into per-metric-name totals
// (labels stripped, label sets summed) — the shape `/statusz` reports
// per node so pollers need not parse series keys.
func SumByName(points []MetricPoint) map[string]int64 {
	if len(points) == 0 {
		return nil
	}
	out := make(map[string]int64)
	for _, p := range points {
		if p.Kind != MetricCounter && p.Kind != MetricGauge {
			continue
		}
		name, _ := splitKey(p.Key)
		out[name] += p.Value
	}
	return out
}
