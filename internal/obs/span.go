package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one recorded phase of a query's execution: a named interval
// with an optional iteration number (bound iteration N) and an optional
// integer payload (tables built, searches resolved, candidates created).
// Times are offsets from the recorder's creation, so a span list is
// self-contained and serializable without wall-clock context.
type Span struct {
	Name        string `json:"name"`
	N           int    `json:"n,omitempty"`
	StartMicros int64  `json:"startMicros"`
	DurMicros   int64  `json:"durMicros"`
	Val         int64  `json:"val,omitempty"`
}

// Phase names recorded by the engine. Kept as constants so the span
// vocabulary is greppable and the JSON schema stays stable.
const (
	// PhaseLBTables: building the per-category landmark bound tables
	// (the paper's Eq. 2 precomputation), or fetching them from the
	// cross-query cache. Val = number of set nodes covered.
	PhaseLBTables = "lb_tables"
	// PhaseSPTBuild: building the partial (SPT_P), incremental (SPT_I
	// seed), or full (DA-SPT) shortest path tree. Val = nodes settled.
	PhaseSPTBuild = "spt_build"
	// PhaseInitial: computing the shortest path of the whole space
	// (Alg. 4 line 1 / Alg. 2's first resolution).
	PhaseInitial = "initial_path"
	// PhaseRound: one bound iteration of the engine main loop — popping
	// up to resolveBatch unresolved subspaces and running their bounded
	// searches (N = iteration number, Val = searches resolved).
	PhaseRound = "round"
	// PhaseDivide: dividing an emitted path's subspace — CompLB over the
	// deviation and suffix vertices (Val = candidate subspaces).
	PhaseDivide = "divide"
	// PhaseResolve: one eager division of DA/DA-SPT — the exact
	// per-subspace shortest path computations the deviation paradigm pays
	// at creation time, in place of PhaseDivide's CompLB calls (N =
	// emission index, Val = subspaces resolved to a path).
	PhaseResolve = "resolve"
	// PhaseMerge: merging per-item outputs (batch trace assembly).
	PhaseMerge = "merge"
)

// maxSpans bounds the memory one traced query can consume; a
// pathological query (huge k, many τ rounds) drops further spans and
// counts them in Dropped rather than growing without bound.
const maxSpans = 4096

// Spans records the phase timeline of one query. Create one with
// NewSpans, pass it via Options.Spans, and read the result with Snapshot
// or WriteJSON after the query returns. Methods are safe for concurrent
// use (the engine records from the coordinating goroutine, but batch
// merge phases may overlap); a nil *Spans ignores everything at zero
// allocation, which is what keeps the disabled path free.
type Spans struct {
	mu      sync.Mutex
	start   time.Time
	spans   []Span
	dropped int64
}

// NewSpans returns an empty recorder whose clock starts now.
func NewSpans() *Spans {
	return &Spans{start: time.Now()}
}

// noopEnd is returned by Start on a nil recorder so the disabled path
// allocates no closure.
var noopEnd = func(int64) {}

// Start opens a span and returns the function that closes it; call it
// with the span's payload value (0 when there is none). On a nil
// recorder it returns a shared no-op without allocating.
func (s *Spans) Start(name string, n int) func(val int64) {
	if s == nil {
		return noopEnd
	}
	t0 := time.Now()
	return func(val int64) {
		d := time.Since(t0)
		s.mu.Lock()
		if len(s.spans) >= maxSpans {
			s.dropped++
		} else {
			s.spans = append(s.spans, Span{
				Name:        name,
				N:           n,
				StartMicros: t0.Sub(s.start).Microseconds(),
				DurMicros:   d.Microseconds(),
				Val:         val,
			})
		}
		s.mu.Unlock()
	}
}

// Snapshot returns a copy of the recorded spans (in recording order) and
// the number dropped by the maxSpans cap. Nil receivers report nothing.
func (s *Spans) Snapshot() ([]Span, int64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...), s.dropped
}

// WriteJSON renders the span timeline as a JSON object:
// {"spans":[...],"dropped":N}. The encoding is hand-rolled (names are
// engine constants, never attacker-controlled) to keep obs free of
// reflection on the query path.
func (s *Spans) WriteJSON(w io.Writer) error {
	spans, dropped := s.Snapshot()
	var b strings.Builder
	b.WriteString("{\"spans\":[")
	for i, sp := range spans {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "{\"name\":%q", sp.Name)
		if sp.N != 0 {
			fmt.Fprintf(&b, ",\"n\":%d", sp.N)
		}
		fmt.Fprintf(&b, ",\"startMicros\":%d,\"durMicros\":%d", sp.StartMicros, sp.DurMicros)
		if sp.Val != 0 {
			fmt.Fprintf(&b, ",\"val\":%d", sp.Val)
		}
		b.WriteString("}")
	}
	fmt.Fprintf(&b, "],\"dropped\":%d}\n", dropped)
	_, err := io.WriteString(w, b.String())
	return err
}
