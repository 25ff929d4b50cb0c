package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterGauge: basic arithmetic plus nil-safety of every receiver.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}

	var nc *Counter
	nc.Inc()
	nc.Add(5)
	if nc.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	var ng *Gauge
	ng.Set(9)
	ng.Add(1)
	if ng.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
}

// TestNilRegistry: a nil registry disables the whole layer — constructors
// return nil metrics and WritePrometheus renders nothing, without
// panicking.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if c := r.Counter("x", ""); c != nil {
		t.Error("nil registry must return nil counter")
	}
	if g := r.Gauge("x", ""); g != nil {
		t.Error("nil registry must return nil gauge")
	}
	if h := r.Histogram("x", "", []int64{1}); h != nil {
		t.Error("nil registry must return nil histogram")
	}
	r.GaugeFunc("x", "", func() int64 { return 1 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry prometheus = %q, %v", b.String(), err)
	}
}

// TestHistogramBuckets: observations land in the right fixed buckets and
// the cumulative exposition is exact.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+99+100+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lat latency
# TYPE lat histogram
lat_bucket{le="10"} 2
lat_bucket{le="100"} 5
lat_bucket{le="1000"} 5
lat_bucket{le="+Inf"} 6
lat_sum 5221
lat_count 6
`
	if b.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", b.String(), want)
	}

	var nh *Histogram
	nh.Observe(3)
	if nh.Count() != 0 || nh.Sum() != 0 {
		t.Error("nil histogram must stay empty")
	}
}

// TestPrometheusDeterministic: output order is by name regardless of
// registration order, and label-suffixed metrics share one family header.
func TestPrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{route="b"}`, "requests").Add(2)
	r.Counter("alpha_total", "alpha").Add(1)
	r.Counter(`req_total{route="a"}`, "requests").Add(3)
	r.GaugeFunc("zeta", "pulled", func() int64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha_total alpha
# TYPE alpha_total counter
alpha_total 1
# HELP req_total requests
# TYPE req_total counter
req_total{route="a"} 3
req_total{route="b"} 2
# HELP zeta pulled
# TYPE zeta gauge
zeta 9
`
	if b.String() != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestDuplicateRegistrationPanics: metric names are code; duplicates are
// a programming error caught at registration.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	r.Counter("dup", "")
}

// TestExpBuckets: strictly increasing even with degenerate factors.
func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 1.0, 5)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not strictly increasing: %v", b)
		}
	}
	b = ExpBuckets(100, 4, 4)
	want := []int64{100, 400, 1600, 6400}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestConcurrentUpdates: counters and histograms tolerate concurrent
// writers and lose nothing (run under -race in CI).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 300))
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestDisabledPathAllocations: the entire disabled layer — nil counters,
// gauges, histograms, and span recorders — must not allocate on update,
// which is the guarantee that lets the engine instrument hot paths
// unconditionally.
func TestDisabledPathAllocations(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Spans
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(5)
		end := s.Start(PhaseRound, 1)
		end(2)
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocates %v per op, want 0", allocs)
	}
}
