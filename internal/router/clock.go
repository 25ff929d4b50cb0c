package router

import "time"

// Clock abstracts the router's notion of time so probe scheduling,
// re-probe backoff, and hedge timers are steerable from tests. Production
// uses the ambient wall clock; tests install a fake clock and advance it
// explicitly, making timer-driven behavior deterministic instead of
// sleep-and-hope.
type Clock interface {
	Now() time.Time
	// After behaves like time.After: a channel that delivers once d has
	// elapsed on this clock. d <= 0 fires immediately.
	After(d time.Duration) <-chan time.Time
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
