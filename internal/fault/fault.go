// Package fault implements deterministic fault injection for chaos
// testing. Production code is threaded with named fault points — Hit
// calls at the places where real deployments fail: file parsing, index
// loading and building, graph deltas, WAL writes and replay, batch
// workers, subspace searches, tree growth, request handlers and router
// attempts. A seed-scheduled plan of rules decides, per point, at which
// hit ordinal to inject a typed error, a panic, or extra latency, so a
// whole failure scenario replays bit-identically from one integer seed.
//
// The package follows internal/obs's zero-cost-when-disabled discipline:
// the process-wide registry is an atomic pointer that defaults to nil, a
// nil *Registry ignores Hit entirely, and a disabled fault point costs
// one atomic load and a branch. Nothing outside tests should ever call
// Install.
//
// Injected failures are delivered as errors wrapping ErrInjected (or
// ErrTransient for retryable ones), as panics carrying an injectedPanic
// value (recognizable via IsInjectedPanic), or as plain time.Sleep
// latency. The engine funnels injected errors through core.Bound's
// sticky-error channel, so a mid-query fault degrades into the same
// partial-result prefix contract as a deadline or budget trip.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one instrumented failure site. The constants below are the
// points compiled into the tree; Hit accepts any Point, so tests can add
// private points without touching this package.
type Point string

// The instrumented fault points.
const (
	// GraphRead fires in graph.ReadGr before parsing a DIMACS file.
	GraphRead Point = "graph.read"
	// IndexLoad fires in flatindex.Read and flatindex.ReadFile before a
	// flat payload is decoded — the one verified load behind startup,
	// index reload, WAL checkpoint loading and /resync.
	IndexLoad Point = "index.load"
	// IndexBuild fires in landmark.BuildParallel and
	// BuildWithLandmarksParallel before landmark selection / the table
	// Dijkstras start.
	IndexBuild Point = "index.build"
	// SubspaceSearch fires once per main-loop iteration of the core
	// engine, whichever row of its variant table runs (the mid-resolve
	// site).
	SubspaceSearch Point = "subspace.search"
	// SPTGrow fires once per node settled during tree growth: SPT_I,
	// SPT_P and DA-SPT's full tree (the mid-SPT-growth site).
	SPTGrow Point = "spt.grow"
	// ServerHandler fires in the HTTP server once per /query execution.
	// Panics here are recovered by the handler.
	ServerHandler Point = "server.handler"
	// BatchWorker fires once per batch item attempt; transient errors
	// here are retried with backoff.
	BatchWorker Point = "batch.worker"
	// RouterProxy fires in internal/router once per proxied attempt
	// (primary, hedge, or failover), on the attempt goroutine. Panics
	// here are recovered and classified as attempt failures.
	RouterProxy Point = "router.proxy"
	// RouterProbe fires in internal/router once per health-probe cycle.
	// Panics here are recovered and count as probe failures.
	RouterProbe Point = "router.probe"
	// GraphApply fires in graph.Apply once per delta operation, before
	// the operation is validated — the mid-apply site. An injected error
	// fails the whole apply; the caller's epoch keeps the old graph.
	GraphApply Point = "graph.apply"
	// WALAppend fires in wal.Log.Append before the record frame is
	// written. An injected error fails the update with the old epoch
	// kept — the moment a disk write would fail.
	WALAppend Point = "wal.append"
	// WALFsync fires in wal.Log.Append after the frame write but before
	// fsync, and before every checkpoint fsync — the moment a crash or
	// full disk would tear the tail. An injected error rolls the segment
	// back and fails the update or checkpoint.
	WALFsync Point = "wal.fsync"
	// WALReplay fires once per record decoded during wal.Open recovery.
	// An injected error aborts recovery; the server stays not-ready.
	WALReplay Point = "wal.replay"
)

// Points lists every fault point compiled into the tree, in a fixed
// order so seeded plans are stable across runs.
var Points = []Point{
	GraphRead, IndexLoad, IndexBuild, SubspaceSearch,
	SPTGrow, ServerHandler, BatchWorker,
	RouterProxy, RouterProbe, GraphApply,
	WALAppend, WALFsync, WALReplay,
}

// QueryPoints are the points hit during query execution (as opposed to
// load/build time) — the natural scope for chaos schedules that replay
// oracle cases.
var QueryPoints = []Point{
	SubspaceSearch, SPTGrow, BatchWorker,
}

// PanicSafePoints are the points whose surrounding code recovers injected
// panics; Plan only assigns KindPanic to these, since a panic anywhere
// else would take down the process under test.
var PanicSafePoints = map[Point]bool{
	ServerHandler: true,
	BatchWorker:   true,
	RouterProxy:   true,
	RouterProbe:   true,
}

// Injection sentinels. Every injected error wraps ErrInjected;
// retry-worthy ones additionally wrap ErrTransient (which itself wraps
// ErrInjected, so errors.Is(err, ErrInjected) matches both).
var (
	ErrInjected  = errors.New("fault: injected failure")
	ErrTransient = fmt.Errorf("%w (transient)", ErrInjected)
)

// Kind selects what a matching rule injects.
type Kind int

const (
	// KindError returns an error wrapping ErrInjected.
	KindError Kind = iota
	// KindTransient returns an error wrapping ErrTransient — the signal
	// that a retry may succeed (the rule window will have passed).
	KindTransient
	// KindPanic panics with an injectedPanic value.
	KindPanic
	// KindLatency sleeps for the rule's Delay and returns nil.
	KindLatency
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindTransient:
		return "transient"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule fires Kind at hits Nth..Nth+Count-1 of Point. Zero values mean
// "first hit, once": Nth < 1 is treated as 1 and Count < 1 as 1.
type Rule struct {
	Point Point
	Nth   int64 // 1-based hit ordinal at which the rule starts firing
	Count int64 // consecutive hits the rule covers
	Kind  Kind
	Err   error         // optional override for KindError's sentinel
	Delay time.Duration // KindLatency sleep; 0 = 100µs
}

// Event records one fired injection, for post-run assertions.
type Event struct {
	Point Point
	Hit   int64 // the hit ordinal that fired
	Kind  Kind
}

// Registry is one fault schedule: per-point rules plus per-point hit
// counters. A nil *Registry is valid and injects nothing. All methods
// are safe for concurrent use — fault points are hit from worker
// goroutines.
type Registry struct {
	mu    sync.Mutex
	rules map[Point][]Rule
	hits  map[Point]int64
	fired []Event
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{rules: map[Point][]Rule{}, hits: map[Point]int64{}}
}

// Add appends rules and returns r for chaining. Nil-safe (a no-op).
func (r *Registry) Add(rules ...Rule) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ru := range rules {
		r.rules[ru.Point] = append(r.rules[ru.Point], ru)
	}
	return r
}

// Hit records one arrival at point p and applies the first matching rule:
// it returns the injected error, panics, or sleeps. With no matching rule
// (or a nil registry) it returns nil.
func (r *Registry) Hit(p Point) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.hits[p]++
	h := r.hits[p]
	var rule Rule
	matched := false
	for _, ru := range r.rules[p] {
		nth, cnt := ru.Nth, ru.Count
		if nth < 1 {
			nth = 1
		}
		if cnt < 1 {
			cnt = 1
		}
		if h >= nth && h < nth+cnt {
			rule, matched = ru, true
			break
		}
	}
	if matched {
		r.fired = append(r.fired, Event{Point: p, Hit: h, Kind: rule.Kind})
	}
	r.mu.Unlock()
	if !matched {
		return nil
	}
	switch rule.Kind {
	case KindLatency:
		d := rule.Delay
		if d <= 0 {
			d = 100 * time.Microsecond
		}
		time.Sleep(d)
		return nil
	case KindPanic:
		panic(injectedPanic{point: p, hit: h})
	case KindTransient:
		return fmt.Errorf("%w at %s (hit %d)", ErrTransient, p, h)
	default:
		if rule.Err != nil {
			return rule.Err
		}
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, p, h)
	}
}

// Hits returns how often point p has been hit so far. Nil-safe.
func (r *Registry) Hits(p Point) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[p]
}

// Fired returns a copy of the injections that actually fired, in firing
// order. Nil-safe.
func (r *Registry) Fired() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.fired...)
}

// injectedPanic is the value thrown by KindPanic rules, distinguishable
// from organic panics via IsInjectedPanic.
type injectedPanic struct {
	point Point
	hit   int64
}

func (p injectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.point, p.hit)
}

// IsInjectedPanic reports whether a recovered value came from a KindPanic
// rule.
func IsInjectedPanic(v any) bool {
	_, ok := v.(injectedPanic)
	return ok
}

// PlanConfig parameterizes Plan. Zero values pick the defaults noted on
// each field.
type PlanConfig struct {
	Points    []Point        // candidate points; default Points
	Rules     int            // rules to generate; default 4
	MaxHit    int64          // Nth drawn from [1, MaxHit]; default 64
	PanicSafe map[Point]bool // panic-eligible points; default PanicSafePoints
	MaxDelay  time.Duration  // latency cap; default 200µs
}

// Plan derives a deterministic rule schedule from seed: the same seed and
// config always yield the same rules, so a chaos failure reproduces from
// its seed alone. Kinds are drawn roughly 40% transient, 30% error, 20%
// latency, 10% panic — panics demoted to errors at points whose code
// does not recover them.
func Plan(seed int64, cfg PlanConfig) []Rule {
	if len(cfg.Points) == 0 {
		cfg.Points = Points
	}
	if cfg.Rules <= 0 {
		cfg.Rules = 4
	}
	if cfg.MaxHit <= 0 {
		cfg.MaxHit = 64
	}
	if cfg.PanicSafe == nil {
		cfg.PanicSafe = PanicSafePoints
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 200 * time.Microsecond
	}
	rng := rand.New(rand.NewSource(seed))
	rules := make([]Rule, 0, cfg.Rules)
	for i := 0; i < cfg.Rules; i++ {
		r := Rule{
			Point: cfg.Points[rng.Intn(len(cfg.Points))],
			Nth:   1 + rng.Int63n(cfg.MaxHit),
			Count: 1 + rng.Int63n(3),
		}
		switch roll := rng.Intn(10); {
		case roll < 4:
			r.Kind = KindTransient
		case roll < 7:
			r.Kind = KindError
		case roll < 9:
			r.Kind = KindLatency
			r.Delay = time.Duration(1 + rng.Int63n(int64(cfg.MaxDelay)))
		default:
			if cfg.PanicSafe[r.Point] {
				r.Kind = KindPanic
			} else {
				r.Kind = KindError
			}
		}
		rules = append(rules, r)
	}
	return rules
}

// active is the process-wide registry consulted by the package-level Hit.
var active atomic.Pointer[Registry]

// Install makes r the process-wide registry (nil disables injection).
// Intended for tests only; callers must Install(nil) when done and must
// not run fault-injected tests in parallel with fault-free ones.
func Install(r *Registry) { active.Store(r) }

// Active returns the installed registry, or nil when injection is off.
func Active() *Registry { return active.Load() }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Hit polls point p against the installed registry: the one-liner
// production code uses. When injection is disabled it costs an atomic
// load and a branch.
func Hit(p Point) error { return active.Load().Hit(p) }
