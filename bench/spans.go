package main

import (
	"encoding/json"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no stage timestamps yet). Spans
// of one op share Op; Parent indexes the enclosing span, -1 at the root.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the tracer started
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer is tracing off: span just calls f, count does nothing, so the
// untraced run pays a nil check per boundary and nothing else. Outside
// calls are made one at a time, so a stack of open spans is the whole
// parent bookkeeping; the lock is for the one op that outlived its
// deadline and may still be recording while the report is built.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	open   []int
	op     int
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// nextOp starts a new op id; the spans and counts that follow belong to it.
func (t *tracer) nextOp() {
	if t != nil {
		t.mu.Lock()
		t.op++
		t.mu.Unlock()
	}
}

func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.mu.Lock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, i)
	t.mu.Unlock()
	f()
	t.mu.Lock()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0)
	t.mu.Unlock()
}

// count records one observation of a counter read at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.mu.Lock()
		t.counts[name] = append(t.counts[name], v)
		t.mu.Unlock()
	}
}

// self returns each span's self time: its duration minus the part its
// child spans cover. The caller holds t.mu.
func (t *tracer) self() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.dur()
		}
	}
	return out
}

// seconds is the median, over the ops that have the named span, of the
// time the op spent in it.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += s.dur().Seconds()
		}
	}
	perOp := make([]float64, 0, len(sums))
	for _, v := range sums {
		perOp = append(perOp, v)
	}
	return median(perOp)
}

// counted is the median of the named counter's observations.
func (t *tracer) counted(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.counts[name])
}

// chromeEvent is one complete ("X") record of the Chrome trace_event
// format that chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.self()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"op": s.Op, "parent": s.Parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return writeFile(path, buf)
}
