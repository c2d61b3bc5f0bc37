package speedkit

import (
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/faults"
	"speedkit/internal/ttl"
)

// Option configures New. Options wrap the underlying config structs so
// the common deployments read as a sentence; the full structs remain
// reachable through WithConfig for settings without a dedicated option.
type Option func(*options)

type options struct {
	cfg     Config
	dataDir string
}

// WithProducts sizes the seeded catalog (default 1000).
func WithProducts(n int) Option {
	return func(o *options) { o.cfg.Products = n }
}

// WithDelta sets the staleness bound Δ handed to devices (default 60 s).
func WithDelta(d time.Duration) Option {
	return func(o *options) { o.cfg.Delta = d }
}

// WithClock drives the whole deployment from c — pass a simulated clock
// for deterministic runs (the default is a fresh simulated clock; real
// servers pass clock.System).
func WithClock(c clock.Clock) Option {
	return func(o *options) { o.cfg.Clock = c }
}

// WithSeed makes service-side randomness deterministic.
func WithSeed(seed int64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithDataDir persists the coherence state (sketch journal and snapshots)
// under dir and recovers it at startup. The durable store runs on the
// deployment clock; combine with WithClock(clock.System) for a real
// server (a data directory under simulated time is only useful in
// crash-recovery tests).
func WithDataDir(dir string) Option {
	return func(o *options) { o.dataDir = dir }
}

// WithResilience tunes the retry/backoff, latency-budget, and
// circuit-breaker layer of devices created by NewDevice.
func WithResilience(rc ResilienceConfig) Option {
	return func(o *options) { o.cfg.DeviceResilience = rc }
}

// WithStaticTTL replaces the adaptive TTL estimator with a fixed TTL
// (baseline configurations).
func WithStaticTTL(d time.Duration) Option {
	return func(o *options) { o.cfg.TTLSource = ttl.Static(d) }
}

// WithFaults installs a deterministic fault injector (chaos runs).
func WithFaults(inj *faults.Injector) Option {
	return func(o *options) { o.cfg.Faults = inj }
}

// WithoutInvalidation disables the server-side coherence pipeline —
// caches converge by TTL alone, modeling a traditional CDN baseline.
func WithoutInvalidation() Option {
	return func(o *options) { o.cfg.DisableInvalidation = true }
}

// WithConfig applies a full raw config, for the settings that have no
// dedicated option. It composes: later options override its fields.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// New builds the canonical storefront deployment: seeded catalog, home /
// category / product pages, the built-in dynamic blocks, and a fully
// wired Service. Close it when done.
//
//	svc, err := speedkit.New(speedkit.WithProducts(1000), speedkit.WithDelta(30*time.Second))
func New(opts ...Option) (*Service, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.dataDir != "" && o.cfg.Durable == nil {
		clk := o.cfg.Clock
		if clk == nil {
			// Persistence implies a real deployment: default the whole
			// service onto the wall clock rather than splitting the
			// durable store and the service across two time sources.
			clk = clock.System
			o.cfg.Clock = clk
		}
		o.cfg.Durable = durable.New(durable.Config{Dir: o.dataDir, Clock: clk})
	}
	return core.NewStorefront(o.cfg)
}
