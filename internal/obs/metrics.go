// Package obs is the stdlib-only observability layer of the KPJ engine:
// a lock-cheap metrics registry (counters, gauges, bounded histograms)
// with deterministic Prometheus text exposition, and a per-query phase
// span recorder (span.go). It deliberately depends on nothing outside the
// standard library and nothing inside this module, so every layer — the
// engine core, the landmark cache, the HTTP
// server, the command-line tools — can instrument itself without import
// cycles.
//
// Everything is nil-safe: methods on a nil *Counter, *Gauge, *Histogram,
// *Registry, or *Spans are no-ops that allocate nothing, so disabled
// instrumentation costs one nil check on the hot path and the engine
// never branches on a separate "enabled" flag. Creating metrics from a
// nil *Registry yields nil metrics, which is how the whole layer is
// switched off.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The hot-path Add is a
// single atomic add; a nil *Counter ignores updates and reads as 0.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge ignores updates
// and reads as 0.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into a fixed set of buckets chosen at
// registration time, so the exposition layout is deterministic: the same
// registration order and bucket bounds always produce the same text
// modulo the observed values. Observe is lock-free (one binary search
// plus three atomic adds); a nil *Histogram drops observations.
type Histogram struct {
	bounds  []int64 // upper bounds, strictly increasing; implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the implicit +Inf bucket is
	// index len(bounds).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n strictly increasing bucket bounds starting at
// start and growing by factor (≥ 2 guarantees strict growth for any
// start ≥ 1). The fixed layouts the engine uses are built from this.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	out := make([]int64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		next := int64(float64(v) * factor)
		if next <= v {
			next = v + 1
		}
		v = next
	}
	return out
}

// metricKind tags a registered metric for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered time series. name may carry a label suffix
// ({label="v"}); family is the part before it, which groups HELP/TYPE
// lines in the Prometheus exposition.
type metric struct {
	name   string
	family string
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// value reads the metric's current scalar (histograms are exposed
// specially and never call this).
func (m *metric) value() int64 {
	switch m.kind {
	case kindCounter:
		return m.counter.Value()
	case kindGauge:
		return m.gauge.Value()
	case kindGaugeFunc:
		return m.fn()
	}
	return 0
}

// Registry holds named metrics and renders them as Prometheus text or
// expvar-style JSON. Registration takes a mutex; reads and updates of the
// registered metrics never do. A nil *Registry is the disabled layer:
// every constructor returns nil and every Write method writes nothing.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// familyOf strips a {label="v"} suffix from a metric name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register adds m under its name, panicking on duplicates — metric names
// are code, not data, so a duplicate is a programming error worth failing
// loudly at startup rather than silently double-exposing.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[m.name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter (nil on a nil registry). The
// name may carry a fixed label set, e.g. `http_requests_total{route="query"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&metric{name: name, family: familyOf(name), help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge (nil on a nil registry).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&metric{name: name, family: familyOf(name), help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is pulled from fn at exposition
// time — the hook for sources that already keep their own state (the
// router's replica states, runtime stats). fn must be safe for
// concurrent use. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, family: familyOf(name), help: help, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers and returns a histogram over the given bucket upper
// bounds (strictly increasing; an implicit +Inf bucket is appended). Nil
// on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(&metric{name: name, family: familyOf(name), help: help, kind: kindHistogram, hist: h})
	return h
}

// snapshot returns the registered metrics sorted by (family, name), so
// exposition order is deterministic regardless of registration order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		return out[i].name < out[j].name
	})
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE lines once per family,
// histogram buckets as cumulative `_bucket{le="..."}` series. Metrics are
// ordered by name, so the layout is deterministic. A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.snapshot() {
		if m.family != lastFamily {
			lastFamily = m.family
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.family, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, typeString(m.kind))
		}
		if m.kind == kindHistogram {
			writeHistogram(&b, m)
			continue
		}
		fmt.Fprintf(&b, "%s %d\n", m.name, m.value())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// writeHistogram renders one histogram family: cumulative buckets, sum,
// count. Labeled histogram names would need label merging; the engine
// only registers unlabeled ones.
func writeHistogram(b *strings.Builder, m *metric) {
	h := m.hist
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", m.name, bound, cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
	fmt.Fprintf(b, "%s_sum %d\n", m.name, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", m.name, h.Count())
}
