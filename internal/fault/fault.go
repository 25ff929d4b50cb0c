// Package fault implements deterministic fault injection for chaos
// testing. Production code carries a named fault point only where a test
// cannot make the world fail for real: the disk under the WAL (append,
// fsync, replay), and the two recovery seams around code we own — the
// server's /query handler and the batch worker, whose panic recovery is
// tested through them. Everything else fails for real in tests: a bad
// delta, an io.Reader that errors, a missing or corrupt file, or a
// router transport that calls Hit per replica and request path (the
// points are then the test's own). The query engine carries no point: a
// query's answer can be shortened only by a budget, a deadline or a
// recovered panic. A seed-scheduled plan of rules decides, per point, at
// which hit ordinal to inject a typed error, a panic, or extra latency,
// so a whole failure scenario replays bit-identically from one integer
// seed.
//
// The package follows internal/obs's zero-cost-when-disabled discipline:
// the process-wide registry is an atomic pointer that defaults to nil, a
// nil *Registry ignores Hit entirely, and a disabled fault point costs
// one atomic load and a branch. Nothing outside tests should ever call
// Install.
//
// Injected failures are delivered as errors wrapping ErrInjected, as
// panics carrying an unexported injectedPanic value, or as plain
// time.Sleep latency.
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
	// ServerHandler fires in the HTTP server once per /query execution.
	// Panics here are recovered by the handler.
	ServerHandler Point = "server.handler"
	// BatchWorker fires once per batch item, before its query runs. An
	// error fails that item with no paths; a panic is recovered into an
	// ErrWorkerPanic result for that item alone.
	BatchWorker Point = "batch.worker"
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
var Points = []Point{ServerHandler, BatchWorker, WALAppend, WALFsync, WALReplay}

// unrecovered are the compiled-in points whose surrounding code does not
// recover a panic; Plan never assigns KindPanic to them, since a panic
// there would take down the process under test. Every other point —
// ServerHandler, BatchWorker, and any point a test defines — keeps it.
var unrecovered = map[Point]bool{WALAppend: true, WALFsync: true, WALReplay: true}

// ErrInjected is the sentinel every injected error wraps (unless a rule
// overrides it with Rule.Err).
var ErrInjected = errors.New("fault: injected failure")

// Kind selects what a matching rule injects.
type Kind int

const (
	// KindError returns an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic panics with an injectedPanic value.
	KindPanic
	// KindLatency sleeps for the rule's Delay and returns nil.
	KindLatency
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
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

// injectedPanic is the value thrown by KindPanic rules.
type injectedPanic struct {
	point Point
	hit   int64
}

func (p injectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.point, p.hit)
}

// PlanConfig parameterizes Plan. Zero values pick the defaults noted on
// each field.
type PlanConfig struct {
	Points   []Point       // candidate points; default Points
	Rules    int           // rules to generate; default 4
	MaxHit   int64         // Nth drawn from [1, MaxHit]; default 64
	MaxDelay time.Duration // latency cap; default 200µs
}

// Plan derives a deterministic rule schedule from seed: the same seed and
// config always yield the same rules, so a chaos failure reproduces from
// its seed alone. Kinds are drawn roughly 70% error, 20% latency, 10%
// panic — panics demoted to errors at the compiled-in points whose code
// does not recover them (see unrecovered).
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
		case roll < 7:
			r.Kind = KindError
		case roll < 9:
			r.Kind = KindLatency
			r.Delay = time.Duration(1 + rng.Int63n(int64(cfg.MaxDelay)))
		default:
			if unrecovered[r.Point] {
				r.Kind = KindError
			} else {
				r.Kind = KindPanic
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

// Hit polls point p against the installed registry: the one-liner
// production code uses. When injection is disabled it costs an atomic
// load and a branch.
func Hit(p Point) error { return active.Load().Hit(p) }
