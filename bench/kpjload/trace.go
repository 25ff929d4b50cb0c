package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one client
// operation share Op; Parent is the span that caused this one (0 for a
// root). Times are milliseconds since the tracer was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

// tracer is the harness's own span list: it records around the calls
// into each layer and writes the list out when the run ends. A nil
// tracer records nothing, which is the untraced run.
//
// The client never has two operations in flight, so "the current
// operation" is one shared value and a span's parent is simply the
// innermost span still open: request ⊃ router ⊃ server.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	op    int
	open  []int
	spans []span
	// lastUpdate is the replica's own answer to the most recent traced
	// POST /update; the router's answer does not carry its counters.
	lastUpdate []byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches the HTTP taps on or off; direct-call spans (begin/end
// from harness code) are always recorded.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.open = t.open[:0]
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.open = append(t.open, s.ID)
	s.Start = float64(time.Since(t.t0)) / 1e6
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0)) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// timed records fn as one span and returns its duration in ms.
func (t *tracer) timed(name string, fn func()) float64 {
	id := t.begin(name) // 0 on a nil tracer, which end ignores
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return float64(d) / 1e6
}

// wrap returns the tap for one HTTP layer: a handler wrapper recording a
// span named name around every /query and /update it serves while the
// tracer is enabled. Probes and health checks pass through unrecorded.
func (t *tracer) wrap(name string) func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !t.enabled() || (r.URL.Path != "/query" && r.URL.Path != "/update") {
				h.ServeHTTP(w, r)
				return
			}
			var tee *teeWriter
			if name == "server" && r.URL.Path == "/update" {
				tee = &teeWriter{ResponseWriter: w}
				w = tee
			}
			id := t.begin(name)
			h.ServeHTTP(w, r)
			t.end(id)
			if tee != nil {
				t.mu.Lock()
				t.lastUpdate = tee.buf.Bytes()
				t.mu.Unlock()
			}
		})
	}
}

func (t *tracer) lastUpdateBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastUpdate
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// durations returns, per operation id, the summed duration in ms of the
// spans called name.
func (t *tracer) durations(name string) map[int]float64 {
	out := map[int]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out[s.Op] += s.End - s.Start
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
