// Package clock abstracts time so that every TTL, expiration, and Δ-bound
// in the Speed Kit reproduction can run against either the wall clock or a
// deterministic simulated clock. Simulated time is what lets the benchmark
// harness replay "30 days of production traffic" in milliseconds while
// keeping the coherence protocol's timing semantics exact.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	Now() time.Time
}

// Real is the wall clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// System is a shared wall-clock instance.
var System Clock = Real{}

// Since returns the time elapsed on c since t. It is the clock-disciplined
// replacement for time.Since.
func Since(c Clock, t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Sleeper is implemented by clocks that can block the caller for a real
// duration. Simulated clocks deliberately do not implement it: in a
// simulation the harness owns time, so a "sleep" is accounted as
// simulated latency by the caller rather than blocking the goroutine.
type Sleeper interface {
	Sleep(d time.Duration)
}

// Sleep blocks for d on clocks that implement Sleeper (the wall clock)
// and returns immediately on all others. It is the clock-disciplined
// replacement for time.Sleep: backoff code calls it unconditionally and
// stays correct under both real and simulated time.
func Sleep(c Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if s, ok := c.(Sleeper); ok {
		s.Sleep(d)
	}
}

// Sleep blocks for d of wall-clock time.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Stopwatch measures elapsed time against a Clock. It is what benchmark
// harnesses use instead of time.Now/time.Since pairs, so that even
// wall-clock measurements flow through the injectable seam.
type Stopwatch struct {
	c     Clock
	start time.Time
}

// NewStopwatch starts a stopwatch on c (defaulting to the system clock).
func NewStopwatch(c Clock) *Stopwatch {
	if c == nil {
		c = System
	}
	return &Stopwatch{c: c, start: c.Now()}
}

// Elapsed returns the time since the stopwatch started or was last reset.
func (s *Stopwatch) Elapsed() time.Duration {
	return s.c.Now().Sub(s.start)
}

// Reset restarts the stopwatch at the clock's current time.
func (s *Stopwatch) Reset() {
	s.start = s.c.Now()
}

// Coarse is a wall clock cached at a fixed resolution: Now is an atomic
// load instead of a clock_gettime call. On the read hot path —
// cache lookups and sketch probes that consult the clock on every request
// — the vDSO time read is the single largest per-operation cost (~65 ns
// on the reference hardware, versus ~2 ns for the cached load), so the
// hot-path structures default to CoarseSystem when no clock is injected.
//
// The cached value lags the true wall clock by at most the resolution
// (plus scheduler delay under extreme load). Consumers therefore see
// freshness bounds slackened by ≤ resolution: a TTL cache may serve an
// entry that expired up to `res` ago, and the Δ-atomicity bound becomes
// Δ+res. With the default 500 µs resolution against Δ and TTL values
// measured in seconds, this is far below network-latency noise. Code that
// needs exact or simulated time injects a different Clock; only defaults
// use Coarse.
//
// The updater goroutine starts lazily on the first Now call (which
// primes the cache synchronously, so the first read is exact) and runs
// for the process lifetime, like the coarse-time tickers in nginx and
// fasthttp. A tick caches the wall time as Unix nanoseconds, a number, so
// it allocates nothing. The times Now returns therefore carry no
// monotonic reading, which costs a comparison with one a few
// nanoseconds: Sub reads the wall clock instead (≈26 ns against ≈7, on
// the reference hardware).
type Coarse struct {
	res   time.Duration
	start sync.Once
	now   atomic.Int64 // the cached wall time, Unix nanoseconds
}

// NewCoarse returns a coarse clock with the given cache resolution
// (default 500 µs for zero or negative values).
func NewCoarse(res time.Duration) *Coarse {
	if res <= 0 {
		res = 500 * time.Microsecond
	}
	return &Coarse{res: res}
}

// Now returns the cached wall-clock time, at most one resolution old.
func (c *Coarse) Now() time.Time {
	// The lazy-start closure runs exactly once per process; every later
	// call is the sync.Once fast path plus one atomic load.
	c.start.Do(func() {
		c.store()
		go c.tick()
	})
	return time.Unix(0, c.now.Load())
}

// Resolution returns the cache refresh interval.
func (c *Coarse) Resolution() time.Duration { return c.res }

func (c *Coarse) tick() {
	for {
		time.Sleep(c.res)
		c.store()
	}
}

// store caches the wall time now: one tick's work.
func (c *Coarse) store() { c.now.Store(time.Now().UnixNano()) }

// CoarseSystem is the shared coarse wall clock used as the default time
// source by the hot-path packages (cache, cdn, cachesketch) and as the
// clock of httpbody's shared request deadlines. Its updater goroutine
// starts on first use.
var CoarseSystem Clock = NewCoarse(0)

// Simulated is a manually advanced clock. The zero value is not usable; use
// NewSimulated.
type Simulated struct {
	mu  sync.RWMutex
	now time.Time // guarded by mu
}

// NewSimulated returns a simulated clock starting at start. A zero start
// defaults to a fixed epoch so that tests are reproducible by default.
func NewSimulated(start time.Time) *Simulated {
	if start.IsZero() {
		start = time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC) // ICDE 2020
	}
	return &Simulated{now: start}
}

// Now returns the current simulated time.
func (s *Simulated) Now() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// Advance moves the clock forward by d. Negative durations are ignored:
// simulated time never runs backwards.
func (s *Simulated) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Set jumps the clock to t if t is not before the current time.
func (s *Simulated) Set(t time.Time) {
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
}
