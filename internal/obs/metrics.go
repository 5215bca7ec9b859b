package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {proto, scapegoat}).
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{k, v} }

// Counter is a monotonically increasing int64 metric. The nil receiver
// is valid and inert, so instrumented code resolves its counters once
// (possibly to nil) and increments unconditionally. A counter resolved
// through a child registry carries a parent link so increments tee into
// the aggregate series (see Registry.Child).
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
		c.parent.Add(n)
	}
}

// set overwrites the count without touching the parent chain — used by
// ApplySnapshot, where points are cumulative values from a remote
// registry, not deltas.
func (c *Counter) set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins int64 metric (run end time, chain length).
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set records v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
		g.parent.Set(v)
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a last-write-wins float64 metric (lag seconds, rates).
// Stored as atomic bits so readers never see torn values.
type FloatGauge struct{ bits atomic.Uint64 }

// Set records v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last recorded value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records int64 observations (virtual-time latencies, chain
// lengths). It retains every observation up to a cap — the paper's
// response-time invariant is a statement about *each* observation, not
// a summary, so the checker needs the raw values; protocol runs observe
// a few thousand at most. Past the cap it degrades to count/sum/max.
type Histogram struct {
	mu     sync.Mutex
	vals   []int64
	sum    int64
	max    int64
	n      int64
	parent *Histogram
}

// histCap bounds retained raw observations per histogram.
const histCap = 1 << 20

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if len(h.vals) < histCap {
		h.vals = append(h.vals, v)
	}
	p := h.parent
	h.mu.Unlock()
	p.Observe(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Values returns a copy of the retained observations in record order.
func (h *Histogram) Values() []int64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.vals...)
}

// Registry holds a run's metrics, keyed by name + sorted labels. The
// nil receiver is valid: lookups return nil instruments, which are
// themselves inert — an uninstrumented run threads nil all the way
// down at zero cost.
type Registry struct {
	mu      sync.Mutex
	counts  map[string]*Counter
	gauges  map[string]*Gauge
	fgauges map[string]*FloatGauge
	hists   map[string]*Histogram
	// parent and extra are set on child registries (see Child): every
	// series carries the extra labels, and int instruments tee their
	// updates into the matching parent series.
	parent *Registry
	extra  []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:  map[string]*Counter{},
		gauges:  map[string]*Gauge{},
		fgauges: map[string]*FloatGauge{},
		hists:   map[string]*Histogram{},
	}
}

// Child returns a tee registry: every instrument resolved through it
// carries the extra labels in its series identity, and counter, gauge
// and histogram updates additionally flow into the matching series of
// this (parent) registry *without* the extra labels. A cluster harness
// hands each node `reg.Child(obs.L("node", id))` so the shared
// aggregate series keep working while per-node attribution comes for
// free. Nil receiver returns nil (itself a valid inert registry).
func (r *Registry) Child(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	c := NewRegistry()
	c.parent = r
	c.extra = append(append([]Label(nil), r.extra...), labels...)
	return c
}

// escapeLabel appends v with Prometheus exposition-format escaping:
// backslash, double quote, and newline are the only escaped characters
// (Go %q escapes more, producing label values other scrapers reject).
func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// key renders name{labels} with labels sorted by key, the canonical
// identity and the Prometheus series name.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		escapeLabel(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withExtra appends the registry's child labels to a lookup's labels.
func (r *Registry) withExtra(labels []Label) []Label {
	if len(r.extra) == 0 {
		return labels
	}
	return append(append([]Label(nil), labels...), r.extra...)
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, r.withExtra(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[k]
	if !ok {
		c = &Counter{parent: r.parent.Counter(name, labels...)}
		r.counts[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, r.withExtra(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{parent: r.parent.Gauge(name, labels...)}
		r.gauges[k] = g
	}
	return g
}

// FloatGauge returns (creating if needed) the float gauge name{labels}.
// Float gauges are local to their registry (no parent tee — aggregating
// last-write-wins floats across nodes is meaningless) and are excluded
// from Snapshot.
func (r *Registry) FloatGauge(name string, labels ...Label) *FloatGauge {
	if r == nil {
		return nil
	}
	k := key(name, r.withExtra(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[k]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram name{labels}.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, r.withExtra(labels))
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{parent: r.parent.Histogram(name, labels...)}
		r.hists[k] = h
	}
	return h
}

// histBuckets are the fixed virtual-time bucket bounds used for the
// Prometheus exposition (observations are virtual-time units; a 1-2-5
// decade ladder covers the protocol latencies the experiments produce).
var histBuckets = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// splitKey undoes key(): series → (name, "{labels}" or "").
func splitKey(k string) (string, string) {
	if i := strings.IndexByte(k, '{'); i >= 0 {
		return k[:i], k[i:]
	}
	return k, ""
}

// WritePrometheus dumps every metric in Prometheus text exposition
// format (version 0.0.4), deterministically ordered. Histograms render
// cumulative le buckets over the fixed virtual-time bounds plus _sum,
// _count and a non-standard _max series (the paper's response-time
// bound is on the maximum).
func (r *Registry) WritePrometheus(w io.Writer) error {
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
	fgauges := make(map[string]*FloatGauge, len(r.fgauges))
	for k, g := range r.fgauges {
		fgauges[k] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	var b strings.Builder
	typed := map[string]bool{}
	emitType := func(name, typ string) {
		if !typed[name] {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
			typed[name] = true
		}
	}
	for _, k := range sortedKeys(counts) {
		name, labels := splitKey(k)
		emitType(name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", name, labels, counts[k].Value())
	}
	for _, k := range sortedKeys(gauges) {
		name, labels := splitKey(k)
		emitType(name, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", name, labels, gauges[k].Value())
	}
	for _, k := range sortedKeys(fgauges) {
		name, labels := splitKey(k)
		emitType(name, "gauge")
		fmt.Fprintf(&b, "%s%s %s\n", name, labels, strconv.FormatFloat(fgauges[k].Value(), 'g', -1, 64))
	}
	for _, k := range sortedKeys(hists) {
		name, labels := splitKey(k)
		h := hists[k]
		emitType(name, "histogram")
		vals := h.Values()
		for _, bound := range histBuckets {
			n := 0
			for _, v := range vals {
				if v <= bound {
					n++
				}
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLabels(labels, fmt.Sprintf(`le="%d"`, bound)), n)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), h.Count())
		fmt.Fprintf(&b, "%s_sum%s %d\n", name, labels, h.Sum())
		fmt.Fprintf(&b, "%s_count%s %d\n", name, labels, h.Count())
		fmt.Fprintf(&b, "%s_max%s %d\n", name, labels, h.Max())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// mergeLabels injects extra into a rendered "{...}" label block.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
