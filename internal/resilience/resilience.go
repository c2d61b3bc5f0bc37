// Package resilience provides the two mechanical building blocks of the
// degradation ladder: jittered exponential backoff and a small
// closed/open/half-open circuit breaker. Both are clock-driven (no real
// sleeps, no wall-clock reads) and draw randomness only from injected
// seeded sources, so every retry schedule and breaker transition is
// byte-reproducible under simulated time.
//
// Policy — which errors count as failures, what to serve while degraded
// — stays with the callers (proxy, core); this package only answers
// "how long to wait" and "is this upstream worth calling right now".
package resilience

import (
	"math/rand"
	"sync"
	"time"

	"speedkit/internal/clock"
)

// Backoff computes jittered exponential retry delays:
//
//	delay(n) = min(Base·Factor^n, Max) · (1 ± Jitter·U)
//
// where U is uniform in [0,1) from the injected rng. The zero value is
// not useful; Default() gives the canonical profile.
type Backoff struct {
	// Base is the delay before the first retry.
	Base time.Duration
	// Max caps the exponential growth (0 = uncapped).
	Max time.Duration
	// Factor multiplies the delay per attempt (values < 2 are raised
	// to 2 by Delay when nonsensical, i.e. < 1).
	Factor float64
	// Jitter is the ± fraction applied to the computed delay, in [0,1].
	// Jitter keeps synchronized clients from retrying in lockstep.
	Jitter float64
}

// Default is the canonical backoff profile: 50 ms base, doubling, 2 s
// cap, ±50% jitter.
func Default() Backoff {
	return Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Jitter: 0.5}
}

// Delay returns the wait before retry attempt n (0-based). A nil rng
// disables jitter rather than falling back to global randomness, which
// would break reproducibility.
func (b Backoff) Delay(rng *rand.Rand, attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		// Spread across [1-J, 1+J); expectation stays at the unjittered
		// delay so budget math remains predictable.
		d *= 1 - b.Jitter + 2*b.Jitter*rng.Float64()
	}
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}

// State is a circuit breaker state.
type State int

// Breaker states.
const (
	// Closed: calls flow normally; consecutive failures are counted.
	Closed State = iota
	// Open: calls are rejected without touching the upstream until the
	// cooldown elapses.
	Open
	// HalfOpen: one probe call is admitted; its outcome closes or
	// re-opens the circuit.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig shapes a Breaker.
type BreakerConfig struct {
	// Clock drives the cooldown (default the system clock).
	Clock clock.Clock
	// Threshold is the consecutive-failure count that opens the
	// circuit (default 5).
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe (default 15 s).
	Cooldown time.Duration
}

// BreakerStats counts breaker activity.
type BreakerStats struct {
	// Opens counts closed/half-open → open transitions.
	Opens uint64
	// Rejected counts calls refused while open.
	Rejected uint64
	// Probes counts half-open probe admissions.
	Probes uint64
}

// Breaker is a minimal consecutive-failure circuit breaker. Callers ask
// Allow before each upstream call and report Success/Failure after.
// Safe for concurrent use. A nil *Breaker is always closed: Allow
// permits everything and outcomes are dropped.
type Breaker struct {
	clk       clock.Clock
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    State        // guarded by mu
	failures int          // guarded by mu
	openedAt time.Time    // guarded by mu
	probing  bool         // guarded by mu
	stats    BreakerStats // guarded by mu
}

// NewBreaker builds a breaker from cfg, applying defaults for zero
// fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	b := new(Breaker)
	b.Init(cfg)
	return b
}

// Init makes b a closed breaker configured from cfg, applying defaults for
// zero fields, as NewBreaker does: for a breaker held by value in the
// struct it guards, which builds it without an allocation of its own. It
// must not be called while b is in use.
func (b *Breaker) Init(cfg BreakerConfig) {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 15 * time.Second
	}
	*b = Breaker{clk: cfg.Clock, threshold: cfg.Threshold, cooldown: cfg.Cooldown}
}

// Allow reports whether a call may proceed. While open it starts
// admitting a single half-open probe once the cooldown has elapsed;
// concurrent callers during the probe are rejected until the probe
// reports its outcome.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if clock.Since(b.clk, b.openedAt) < b.cooldown {
			b.stats.Rejected++
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.stats.Probes++
		return true
	case HalfOpen:
		if b.probing {
			b.stats.Rejected++
			return false
		}
		b.probing = true
		b.stats.Probes++
		return true
	}
	return true
}

// Success reports a successful call: it closes the circuit and clears
// the failure count.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = Closed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure reports a failed call. In the closed state it opens the
// circuit after Threshold consecutive failures; a failed half-open
// probe re-opens immediately.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	case HalfOpen:
		b.probing = false
		b.open()
	case Open:
		// A straggler from before the trip; the circuit is already open.
	}
}

// open must hold b.mu.
func (b *Breaker) open() {
	b.state = Open
	b.openedAt = b.clk.Now()
	b.failures = 0
	b.stats.Opens++
}

// State returns the current state, surfacing open → half-open
// eligibility without admitting a probe.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && clock.Since(b.clk, b.openedAt) >= b.cooldown {
		return HalfOpen
	}
	return b.state
}

// Stats returns a snapshot of the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
