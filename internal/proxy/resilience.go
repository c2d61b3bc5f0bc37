package proxy

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/obs"
	"speedkit/internal/resilience"
)

// ResilienceConfig shapes the proxy's retry and breaker behavior. The
// zero value yields the defaults noted per field.
type ResilienceConfig struct {
	// RetryMax is the number of retries after the first attempt for
	// transient (ErrUpstream) failures (default 2; negative disables).
	RetryMax int
	// RetryBase is the first backoff delay (default 50ms).
	RetryBase time.Duration
	// RetryMaxDelay caps the exponential backoff (default 2s).
	RetryMaxDelay time.Duration
	// RetryJitter is the ± fraction applied to each delay (default 0.5).
	RetryJitter float64
	// BreakerThreshold is the consecutive-failure count that opens an
	// upstream's circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// admitting a half-open probe (default 15s).
	BreakerCooldown time.Duration
	// Seed drives the backoff jitter RNG, so retry schedules are
	// reproducible (default 1).
	Seed int64
}

func (r *ResilienceConfig) applyDefaults() {
	if r.RetryMax == 0 {
		r.RetryMax = 2
	}
	if r.RetryMax < 0 {
		r.RetryMax = 0
	}
	if r.RetryBase <= 0 {
		r.RetryBase = 50 * time.Millisecond
	}
	if r.RetryMaxDelay <= 0 {
		r.RetryMaxDelay = 2 * time.Second
	}
	if r.RetryJitter <= 0 {
		r.RetryJitter = 0.5
	}
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = 5
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 15 * time.Second
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
}

// withRetry runs one logical upstream call through the resilience
// layer: breaker admission and jittered exponential retries for
// transient (ErrUpstream) failures. Backoff delays are slept on the
// proxy's clock (clock.Sleep): real deployments actually back off, and a
// simulated device's clock accounts the delay as modelled time.
//
// Outcome mapping: ErrOffline fails fast (the offline ladder handles
// it); application errors resolve the breaker as success (the upstream
// answered) and propagate unchanged; ctx cancellation is never retried.
// Sampled traces riding the ctx (obs.ContextWithTrace) collect the
// resilience decisions as events: each retry attempt, breaker
// rejections and breaker opens — so a degraded
// load's trace explains which rung fired and why. The unsampled path
// pays one ctx lookup; every event call is a nil-safe no-op.
func (p *Proxy) withRetry(ctx context.Context, br *resilience.Breaker, upstream string, op func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := obs.TraceFromContext(ctx)
	if !br.Allow() {
		tr.AddEvent("breaker.rejected", upstream)
		return ErrCircuitOpen
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			br.Success()
			return nil
		}
		switch {
		case errors.Is(err, ErrOffline):
			// Unreachable: count it against the breaker (so persistent
			// partitions open the circuit) but never retry — the offline
			// ladder answers faster than any backoff schedule.
			br.Failure()
			tr.AddEvent("offline", upstream)
			return err
		case errors.Is(err, ErrUpstream):
			br.Failure()
			if br.State() == resilience.Open {
				tr.AddEvent("breaker.open", upstream)
				return err
			}
			if attempt >= p.cfg.Resilience.RetryMax {
				return err
			}
			tr.AddEvent("retry", upstream+" attempt="+strconv.Itoa(attempt+1))
			if p.rng == nil {
				p.rng = rand.New(rand.NewSource(p.cfg.Resilience.Seed))
			}
			delay := p.backoff.Delay(p.rng, attempt)
			p.stats.Retries++
			if p.m != nil {
				p.m.retries.Inc()
			}
			clock.Sleep(p.cfg.Clock, delay)
			if err := ctx.Err(); err != nil {
				return err
			}
		default:
			// The upstream answered with an application error: healthy
			// connectivity, nothing to retry or count as a fault.
			br.Success()
			return err
		}
	}
}

// markDegraded records a degradation decision: the first reason sticks
// on the PageLoad (later rungs refine, they don't replace), every
// decision is counted, and sampled traces carry the reason.
func (p *Proxy) markDegraded(res *PageLoad, trace *obs.Trace, reason DegradeReason) {
	if res.Degraded == DegradeNone {
		res.Degraded = reason
	}
	p.stats.Degraded++
	if p.m != nil {
		if c := p.m.degraded[reason]; c != nil {
			c.Inc()
		}
	}
	trace.MarkDegraded(string(reason))
	trace.AddEvent("degraded", string(reason))
}

// heldWithinDelta returns a held device copy of path whose StoredAt is
// within Δ of now. Serving such a copy preserves Δ-atomicity without
// consulting the sketch: any invalidating write necessarily postdates
// StoredAt, which is at most Δ ago.
func (p *Proxy) heldWithinDelta(path string) (cache.Entry, bool) {
	held, ok := p.store.PeekAny(path)
	if !ok || clock.Since(p.cfg.Clock, held.StoredAt) > p.cfg.Delta {
		return cache.Entry{}, false
	}
	return held, true
}

// BreakerStates reports the sketch, shell, and blocks breaker states,
// for diagnostics and tests.
func (p *Proxy) BreakerStates() (sketch, shell, blocks resilience.State) {
	return p.brSketch.State(), p.brShell.State(), p.brBlocks.State()
}

// BreakerStats reports the per-upstream breaker counters.
func (p *Proxy) BreakerStats() (sketch, shell, blocks resilience.BreakerStats) {
	return p.brSketch.Stats(), p.brShell.Stats(), p.brBlocks.Stats()
}
