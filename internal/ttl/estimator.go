// Package ttl implements per-resource adaptive TTL estimation. In an
// expiration-based caching architecture the TTL is a bet: too short and
// caches miss needlessly, too long and every write forces an invalidation
// and a window of potential staleness that the Cache Sketch must cover.
// The estimator resolves the bet per resource from its observed read and
// write rates.
//
// Model (documented reconstruction — see DESIGN.md): inter-write times are
// tracked with an exponentially weighted moving average, giving a write
// rate λw. Assuming exponentially distributed writes, choosing TTL t gives
// probability 1-exp(-λw·t) that a write lands inside the TTL (forcing an
// invalidation). The estimator picks t so that this probability stays at a
// budget p, i.e. t = -ln(1-p)/λw, and widens p for read-heavy resources —
// a resource read a thousand times per write amortizes an occasional
// invalidation over many cache hits, so it can afford a longer TTL.
package ttl

import (
	"math"
	"sync"
	"time"

	"speedkit/internal/clock"
)

// Config parameterizes an Estimator.
type Config struct {
	// MinTTL floors every estimate (default 10s). Very hot-written
	// resources still get a brief cacheability window; the sketch covers
	// the staleness risk.
	MinTTL time.Duration
	// MaxTTL caps every estimate (default 24h), bounding how long a
	// resource ID must be retained in the server sketch after a write.
	MaxTTL time.Duration
	// InvalidationBudget is the base probability p that a write occurs
	// within the TTL (default 0.2).
	InvalidationBudget float64
	// EWMAAlpha is the smoothing factor for inter-arrival gaps
	// (default 0.25; higher reacts faster).
	EWMAAlpha float64
	// Clock supplies time (default system clock).
	Clock clock.Clock
}

func (c *Config) applyDefaults() {
	if c.MinTTL <= 0 {
		c.MinTTL = 10 * time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 24 * time.Hour
	}
	if c.InvalidationBudget <= 0 || c.InvalidationBudget >= 1 {
		c.InvalidationBudget = 0.2
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.25
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
}

// Estimator tracks per-resource read/write behaviour and produces TTLs.
// Safe for concurrent use.
type Estimator struct {
	mu  sync.Mutex
	cfg Config
	res map[string]*resourceStats // guarded by mu
}

type resourceStats struct {
	lastRead     time.Time
	lastWrite    time.Time
	readGapEWMA  float64 // seconds
	writeGapEWMA float64 // seconds
	reads        uint64
	writes       uint64
}

// NewEstimator creates an estimator with the given configuration.
func NewEstimator(cfg Config) *Estimator {
	cfg.applyDefaults()
	return &Estimator{cfg: cfg, res: make(map[string]*resourceStats)}
}

// stats returns the per-resource record, creating it on first sight. The
// caller must hold e.mu.
func (e *Estimator) stats(id string) *resourceStats {
	s, ok := e.res[id]
	if !ok {
		s = &resourceStats{}
		e.res[id] = s
	}
	return s
}

func updateEWMA(ewma *float64, gap float64, alpha float64) {
	if *ewma == 0 {
		*ewma = gap
		return
	}
	*ewma = alpha*gap + (1-alpha)**ewma
}

// RecordRead notes a cache-miss read of the resource (reads served from a
// cache never reach the estimator, matching production where the origin
// only observes misses — TTL takes the miss rate as a lower bound on the
// read rate).
func (e *Estimator) RecordRead(id string) {
	now := e.cfg.Clock.Now()
	e.mu.Lock()
	s := e.stats(id)
	if !s.lastRead.IsZero() {
		updateEWMA(&s.readGapEWMA, now.Sub(s.lastRead).Seconds(), e.cfg.EWMAAlpha)
	}
	s.lastRead = now
	s.reads++
	e.mu.Unlock()
}

// RecordWrite notes a write to the resource.
func (e *Estimator) RecordWrite(id string) {
	now := e.cfg.Clock.Now()
	e.mu.Lock()
	s := e.stats(id)
	if !s.lastWrite.IsZero() {
		updateEWMA(&s.writeGapEWMA, now.Sub(s.lastWrite).Seconds(), e.cfg.EWMAAlpha)
	}
	s.lastWrite = now
	s.writes++
	e.mu.Unlock()
}

// TTL estimates the TTL for the resource. Resources with no observed
// write history get MaxTTL: with nothing known about writes, the sketch —
// not a short TTL — is the staleness defence, and long TTLs maximize hit
// ratio.
func (e *Estimator) TTL(id string) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.res[id]
	if !ok || s.writes < 2 || s.writeGapEWMA == 0 {
		return e.cfg.MaxTTL
	}
	lambdaW := 1 / s.writeGapEWMA
	budget := e.cfg.InvalidationBudget
	// Read-heavy resources stretch the budget: every doubling of the
	// read/write ratio relaxes p toward 0.8.
	if s.readGapEWMA > 0 {
		lambdaR := 1 / s.readGapEWMA
		ratio := lambdaR / lambdaW
		if ratio > 1 {
			budget *= 1 + math.Log2(ratio)/4
			if budget > 0.8 {
				budget = 0.8
			}
		}
	}
	t := -math.Log(1-budget) / lambdaW // seconds
	ttl := time.Duration(t * float64(time.Second))
	if ttl < e.cfg.MinTTL {
		ttl = e.cfg.MinTTL
	}
	if ttl > e.cfg.MaxTTL {
		ttl = e.cfg.MaxTTL
	}
	return ttl
}

// Snapshot reports the tracked state for a resource.
func (e *Estimator) Snapshot(id string) (reads, writes uint64, ttl time.Duration) {
	e.mu.Lock()
	s, ok := e.res[id]
	if ok {
		reads, writes = s.reads, s.writes
	}
	e.mu.Unlock()
	return reads, writes, e.TTL(id)
}

// Tracked returns how many resources have recorded activity.
func (e *Estimator) Tracked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.res)
}

// Forget drops a resource's history (e.g. after deletion).
func (e *Estimator) Forget(id string) {
	e.mu.Lock()
	delete(e.res, id)
	e.mu.Unlock()
}

// Static is a trivial TTLSource that always returns the same TTL — the
// baseline the paper's adaptive estimation is compared against.
type Static time.Duration

// TTL implements TTLSource.
func (s Static) TTL(string) time.Duration { return time.Duration(s) }

// TTLSource abstracts "give me the TTL for this resource" so that caches
// and benches can swap the adaptive estimator for static baselines.
type TTLSource interface {
	TTL(id string) time.Duration
}

var (
	_ TTLSource = (*Estimator)(nil)
	_ TTLSource = Static(0)
)
