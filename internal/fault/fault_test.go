package fault

import (
	"errors"
	"testing"
	"time"
)

// testPoint is a point no production code hits, the way a test defines
// its own (the router's transport points are named like this one).
const testPoint Point = "r0/query"

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	if err := r.Hit(testPoint); err != nil {
		t.Fatalf("nil registry injected: %v", err)
	}
	if r.Hits(testPoint) != 0 || r.Fired() != nil {
		t.Fatal("nil registry recorded state")
	}
	r.Add(Rule{Point: testPoint}) // must not panic
}

func TestRuleFiresAtNthForCount(t *testing.T) {
	r := New().Add(Rule{Point: BatchWorker, Nth: 3, Count: 2, Kind: KindError})
	var errs []error
	for i := 0; i < 6; i++ {
		errs = append(errs, r.Hit(BatchWorker))
	}
	for i, err := range errs {
		wantErr := i == 2 || i == 3 // hits 3 and 4
		if (err != nil) != wantErr {
			t.Fatalf("hit %d: err=%v, want firing=%v", i+1, err, wantErr)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: error %v does not wrap ErrInjected", i+1, err)
		}
	}
	fired := r.Fired()
	if len(fired) != 2 || fired[0].Hit != 3 || fired[1].Hit != 4 {
		t.Fatalf("fired events %+v, want hits 3 and 4", fired)
	}
	if r.Hits(BatchWorker) != 6 {
		t.Fatalf("Hits = %d, want 6", r.Hits(BatchWorker))
	}
}

func TestZeroValuesMeanFirstHitOnce(t *testing.T) {
	r := New().Add(Rule{Point: testPoint})
	if err := r.Hit(testPoint); err == nil {
		t.Fatal("zero-value rule did not fire on first hit")
	}
	if err := r.Hit(testPoint); err != nil {
		t.Fatalf("zero-value rule fired twice: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	r := New().Add(Rule{Point: BatchWorker, Nth: 2, Kind: KindPanic})
	if err := r.Hit(BatchWorker); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("KindPanic did not panic")
		}
		p, ok := rec.(injectedPanic)
		if !ok || p.point != BatchWorker || p.hit != 2 {
			t.Fatalf("recovered %v, want the injected panic at %s hit 2", rec, BatchWorker)
		}
	}()
	_ = r.Hit(BatchWorker)
}

func TestLatencyKindSleepsAndReturnsNil(t *testing.T) {
	r := New().Add(Rule{Point: ServerHandler, Kind: KindLatency, Delay: time.Millisecond})
	start := time.Now()
	if err := r.Hit(ServerHandler); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency rule did not sleep")
	}
}

func TestErrOverride(t *testing.T) {
	sentinel := errors.New("custom")
	r := New().Add(Rule{Point: testPoint, Err: sentinel})
	if err := r.Hit(testPoint); !errors.Is(err, sentinel) {
		t.Fatalf("override not honored: %v", err)
	}
}

func TestPlanIsDeterministicAndSafe(t *testing.T) {
	a := Plan(42, PlanConfig{})
	b := Plan(42, PlanConfig{})
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("plans differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := Plan(43, PlanConfig{}); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical plans")
		}
	}
	// Panics land on every compiled-in point, each of which recovers
	// them, and on a point a test defines.
	panics := map[Point]bool{}
	for seed := int64(0); seed < 200; seed++ {
		for _, ru := range Plan(seed, PlanConfig{Points: append([]Point{testPoint}, Points...), Rules: 6}) {
			if ru.Kind == KindPanic {
				panics[ru.Point] = true
			}
			if ru.Nth < 1 || ru.Count < 1 {
				t.Fatalf("seed %d: degenerate rule %+v", seed, ru)
			}
		}
	}
	for _, p := range []Point{testPoint, ServerHandler, BatchWorker} {
		if !panics[p] {
			t.Errorf("no seed drew a panic at %s", p)
		}
	}
}

func TestInstallAndGlobalHit(t *testing.T) {
	defer Install(nil)
	if Active() != nil {
		t.Fatal("injection enabled before Install")
	}
	if err := Hit(testPoint); err != nil {
		t.Fatalf("disabled global Hit injected: %v", err)
	}
	r := New().Add(Rule{Point: testPoint, Nth: 2})
	Install(r)
	if Active() != r {
		t.Fatal("Install did not take")
	}
	if err := Hit(testPoint); err != nil {
		t.Fatalf("hit 1 fired early: %v", err)
	}
	if err := Hit(testPoint); err == nil {
		t.Fatal("hit 2 did not fire")
	}
	Install(nil)
	if Active() != nil {
		t.Fatal("Install(nil) did not disable")
	}
}
