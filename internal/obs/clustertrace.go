package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// clustertrace.go renders a Journal — simulated or cluster — as Chrome
// trace_event JSON for chrome://tracing and Perfetto: one trace process
// (pid) per node with an "app" and a "ctl" row, and a "cluster" process
// for run-level annotations (chaos, partitions, epochs). Work, blocks
// and critical sections are slices, control events instants, messages
// flow arrows. A simulated message pairs by its kernel sequence number;
// nodes share no sequence space, so a cross-node control message pairs
// causally: its send's vector clock is matched to the first event on
// the target node whose clock dominates it, which is exactly the first
// journaled instant after the receive.

// traceEvent is one trace_event record. Field order (and the struct
// encoding of encoding/json) makes the output byte-deterministic for a
// deterministic journal, which the golden tests pin.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ClusterTraceOptions tunes the export.
type ClusterTraceOptions struct {
	// N is the node count: apps are processes 0..N-1, controllers
	// N..2N-1.
	N int
	// PerMicro is how many journal time units make one trace
	// microsecond. 0 means 1000, the cluster's nanoseconds; the
	// simulator's virtual time passes 1.
	PerMicro int64
}

// vcStamp is one vector-clocked journal event on a node's controller
// row, in that node's local order.
type vcStamp struct {
	at int64
	vc []int32
}

// openSlice keys an interval that is open on one process: a block
// awaiting its unblock, or a state variable awaiting its flip to zero.
type openSlice struct {
	proc int
	kind Kind
}

// ClusterTrace renders the journal as trace_event JSON. The output is
// deterministic for a deterministic journal: events are ordered by
// timestamp (stably, preserving the merge order of ties) and flow ids
// are assigned in that order.
func ClusterTrace(j *Journal, opts ClusterTraceOptions) ([]byte, error) {
	events := append([]Event(nil), j.Events()...)
	sort.SliceStable(events, func(i, k int) bool { return events[i].At < events[k].At })

	n := opts.N
	if n < 1 {
		return nil, fmt.Errorf("obs: cluster trace needs n ≥ 1, got %d", n)
	}
	per := opts.PerMicro
	if per == 0 {
		per = 1000
	}
	const tidApp, tidCtl = 0, 1
	clusterPid := n // run-level annotation row

	// row maps a logical process to its (pid, tid) cell; annotations
	// (Proc < 0) and out-of-range processes land on the cluster row.
	row := func(proc int) (int, int) {
		switch {
		case proc >= 0 && proc < n:
			return proc, tidApp
		case proc >= n && proc < 2*n:
			return proc - n, tidCtl
		default:
			return clusterPid, tidApp
		}
	}

	// Per-node controller stamps for causal flow matching. Along one
	// node's own event order every clock component is monotone
	// non-decreasing (ticks and observes only grow it), so the first
	// dominating event is found by binary search.
	stamps := make([][]vcStamp, n)
	for _, e := range events {
		if e.Kind == KindControl && len(e.VC) > 0 && e.Proc >= n && e.Proc < 2*n {
			node := e.Proc - n
			stamps[node] = append(stamps[node], vcStamp{at: e.At, vc: e.VC})
		}
	}
	// matchRecv finds the timestamp of the first event on node target
	// whose clock component for the sending app reached k — the causal
	// receive anchor. ok is false while the message is still in flight
	// at journal end.
	matchRecv := func(target, senderApp int, k int32) (int64, bool) {
		if target < 0 || target >= n {
			return 0, false
		}
		s := stamps[target]
		i := sort.Search(len(s), func(i int) bool {
			return senderApp < len(s[i].vc) && s[i].vc[senderApp] >= k
		})
		if i == len(s) {
			return 0, false
		}
		return s[i].at, true
	}

	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	emit := func(e traceEvent) { doc.TraceEvents = append(doc.TraceEvents, e) }
	us := func(t int64) int64 { return t / per }

	for pid := 0; pid < n; pid++ {
		emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("node %d", pid)}})
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidApp,
			Args: map[string]any{"name": "app"}})
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tidCtl,
			Args: map[string]any{"name": "ctl"}})
	}
	emit(traceEvent{Name: "process_name", Ph: "M", Pid: clusterPid,
		Args: map[string]any{"name": "cluster"}})
	emit(traceEvent{Name: "thread_name", Ph: "M", Pid: clusterPid, Tid: tidApp,
		Args: map[string]any{"name": "chaos / epochs"}})

	// open holds each process's open block and critical-section entry,
	// named as the slice it becomes.
	open := map[openSlice]Event{}
	closeSlice := func(k openSlice, end int64) {
		if b, ok := open[k]; ok {
			delete(open, k)
			pid, tid := row(k.proc)
			emit(traceEvent{Name: b.Name, Ph: "X",
				Ts: us(b.At), Dur: us(end) - us(b.At), Pid: pid, Tid: tid})
		}
	}
	// sent maps a simulated message's kernel sequence number to its
	// flow id until the receive; a send the ring buffer dropped leaves
	// its receive unpaired, and no arrow is drawn for it.
	sent := map[int64]int64{}
	flowID := int64(0)
	for _, e := range events {
		pid, tid := row(e.Proc)
		switch e.Kind {
		case KindSend:
			flowID++
			sent[e.B] = flowID
			emit(traceEvent{Name: fmt.Sprintf("msg %d→%d", e.Proc, e.A), Ph: "s",
				Ts: us(e.At), Pid: pid, Tid: tid, ID: flowID})
		case KindRecv:
			if id, ok := sent[e.B]; ok {
				delete(sent, e.B)
				emit(traceEvent{Name: fmt.Sprintf("msg %d→%d", e.A, e.Proc), Ph: "f", Bp: "e",
					Ts: us(e.At), Pid: pid, Tid: tid, ID: id})
			}
		case KindBlock:
			e.Name = "blocked on " + e.Name
			open[openSlice{e.Proc, KindBlock}] = e
		case KindUnblock:
			closeSlice(openSlice{e.Proc, KindBlock}, e.At)
		case KindWork:
			emit(traceEvent{Name: "work", Ph: "X",
				Ts: us(e.At), Dur: us(e.At+e.B) - us(e.At), Pid: pid, Tid: tid})
		case KindSet:
			// A state flip to non-zero opens a slice (the cs=1 false
			// interval of ¬cs), back to zero closes it.
			if e.A != 0 {
				open[openSlice{e.Proc, KindSet}] = e
			} else {
				closeSlice(openSlice{e.Proc, KindSet}, e.At)
			}
		case KindControl, KindMark:
			scope := "t"
			if e.Proc < 0 {
				// Run-level annotation: a full-height marker across the
				// whole trace.
				scope = "g"
			}
			args := map[string]any{"a": e.A, "b": e.B}
			if e.C != 0 {
				args["c"] = e.C
			}
			if e.VC != nil {
				args["vc"] = e.VC
			}
			emit(traceEvent{Name: e.Name, Ph: "i", Ts: us(e.At), Pid: pid, Tid: tid,
				S: scope, Args: args})
			// Cross-node control messages (ctl.req/ack/confirm/cancel
			// and broadcast cancels) get causal flow arrows: A is the
			// target app, the clock identifies the send.
			if len(e.Name) > len(EvCtlPrefix) && e.Name[:len(EvCtlPrefix)] == EvCtlPrefix &&
				e.Proc >= n && e.Proc < 2*n && len(e.VC) > 0 {
				senderApp := e.Proc - n
				target := int(e.A)
				if senderApp < len(e.VC) {
					if at, ok := matchRecv(target, senderApp, e.VC[senderApp]); ok {
						flowID++
						name := fmt.Sprintf("%s n%d→n%d", e.Name, senderApp, target)
						emit(traceEvent{Name: name, Ph: "s", Ts: us(e.At),
							Pid: pid, Tid: tid, ID: flowID})
						tp, tt := row(target + n)
						emit(traceEvent{Name: name, Ph: "f", Bp: "e", Ts: us(at),
							Pid: tp, Tid: tt, ID: flowID})
					}
				}
			}
		}
	}
	// Blocks and critical sections the run tore down while open
	// degrade to instants (sorted for determinism).
	keys := make([]openSlice, 0, len(open))
	for k := range open {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b openSlice) int {
		return cmp.Or(cmp.Compare(a.proc, b.proc), cmp.Compare(a.kind, b.kind))
	})
	for _, k := range keys {
		b := open[k]
		pid, tid := row(k.proc)
		emit(traceEvent{Name: b.Name + " (unclosed)", Ph: "i",
			Ts: us(b.At), Pid: pid, Tid: tid, S: "t"})
	}

	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
