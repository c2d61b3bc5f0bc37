// Package proxy implements the client-side half of Speed Kit: the
// service-worker-style proxy installed in the user's device. It
// intercepts page requests and enforces two disciplines at once:
//
//   - Coherence: a copy held in the device cache is served only under a
//     Cache Sketch younger than Δ (fetched then, if the one held is not),
//     so every load is Δ-atomic. A load with no copy to vouch for goes
//     straight to the network and fetches no sketch.
//   - Compliance: requests toward shared infrastructure (the CDN) carry
//     only anonymous fields; all personalization happens on-device by
//     swapping dynamic-block placeholders for fragments rendered from
//     device-local session state, or fetched over the first-party origin
//     channel when the user has consented.
//
// The proxy accumulates simulated latency for every step so that the
// page-load experiments measure the full pipeline.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/gdpr"
	"speedkit/internal/metrics"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/origin"
	"speedkit/internal/resilience"
	"speedkit/internal/session"
)

// Source identifies which tier served a page body.
type Source int

// Serving tiers.
const (
	// SourceDevice: the service-worker cache on the user's device.
	SourceDevice Source = iota
	// SourceCDN: a CDN edge.
	SourceCDN
	// SourceOrigin: a full origin fetch (CDN miss or revalidation).
	SourceOrigin
	// SourceCDNStale: a CDN edge answered from a copy its upstream failed
	// to refresh. Only a Transport returns it: the proxy marks the load
	// DegradeServeStale and records the answer as SourceCDN's.
	SourceCDNStale
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceDevice:
		return "device"
	case SourceCDN:
		return "cdn"
	case SourceOrigin:
		return "origin"
	case SourceCDNStale:
		return "cdn-stale"
	}
	return "unknown"
}

// Transport is the proxy's view of the Speed Kit service. The core
// package implements it over the CDN, sketch server, and origin. Every
// method takes the request context first; implementations must honor
// cancellation and propagate the ctx into any real network call.
//
// Error contract: implementations return ErrOffline (possibly wrapped)
// when the network is unreachable and wrap transient failures worth
// retrying (5xx, injected faults) with ErrUpstream; anything else is
// treated as an application error and surfaces unchanged.
type Transport interface {
	// FetchSketch returns the current sketch snapshot and the simulated
	// latency of transferring it from the nearest edge.
	FetchSketch(ctx context.Context, region netsim.Region) (*cachesketch.Snapshot, time.Duration, error)
	// Fetch returns the anonymous page representation via the CDN path,
	// the simulated latency, and whether the edge or the origin served it.
	Fetch(ctx context.Context, region netsim.Region, path string) (cache.Entry, time.Duration, Source, error)
	// Revalidate is the conditional variant of Fetch: the client holds a
	// copy at knownVersion. If that version is still current the
	// transport returns notModified=true with a fresh expiration and only
	// a header-sized transfer cost; otherwise it behaves like Fetch.
	Revalidate(ctx context.Context, region netsim.Region, path string, knownVersion uint64) (RevalidationResult, error)
	// FetchBlocks returns origin-rendered personalized fragments over the
	// first-party channel, with the simulated latency of that round trip.
	FetchBlocks(ctx context.Context, region netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error)
}

// RevalidationResult is the outcome of a conditional fetch.
type RevalidationResult struct {
	// NotModified reports that the client's copy is still current; Entry
	// then carries only the refreshed expiration (no body).
	NotModified bool
	// Entry is the new representation (full on modification, expiry-only
	// on a 304-equivalent).
	Entry   cache.Entry
	Latency time.Duration
	Source  Source
}

// Config parameterizes a device proxy.
type Config struct {
	// User owns the device (nil for an anonymous visitor).
	User *session.User
	// Region locates the device.
	Region netsim.Region
	// Delta is the staleness bound Δ enforced via sketch refreshes
	// (default 60s).
	Delta time.Duration
	// CacheItems bounds the service-worker cache (default 500 entries —
	// device caches are small).
	CacheItems int
	// Clock supplies time (default system).
	Clock clock.Clock
	// Network models device-local latencies.
	Network *netsim.Network
	// Auditor records data flows across trust boundaries (optional).
	Auditor *gdpr.Auditor
	// Consent is the consent ledger consulted before any personalized
	// origin fetch (optional; nil means rely on User.ConsentPersonalization).
	Consent *gdpr.ConsentLedger
	// OriginBlocks names the dynamic blocks whose fragments must be
	// fetched from the origin (server-side data). All other blocks render
	// on-device.
	OriginBlocks map[string]bool
	// LocalBlocks maps block names to on-device renderers. Defaults to
	// the origin package's built-ins for greeting/cart/reco/tier, one map
	// every device shares. It is only read, by personalize.
	LocalBlocks map[string]origin.BlockRenderer
	// DisableSketch turns off the coherence protocol: cached entries are
	// served purely by TTL. This is the "traditional expiration-based
	// caching" baseline of the consistency experiments — never use it in
	// production configurations.
	DisableSketch bool
	// PrefetchLinks warms the device cache with up to this many of each
	// loaded page's links (0 disables prefetching).
	PrefetchLinks int
	// Tracer samples page-load traces (nil disables tracing at zero
	// per-load cost).
	Tracer *obs.Tracer
	// SLO receives one Δ-budget observation per load — the fraction of
	// the staleness budget the consulted sketch snapshot had burned at
	// decision time — keyed by serving tier, with the load's trace ID as
	// exemplar when the load was sampled (nil disables).
	SLO *obs.DeltaSLO
	// Obs registers device-side metrics — loads by serving tier, load and
	// block-personalization latency — under the shared registry (nil
	// disables).
	Obs *obs.Registry
	// Resilience shapes retries, per-load budgets, and the per-upstream
	// circuit breakers. The zero value applies the documented defaults
	// (2 retries, no budget, breakers at 5 failures / 15s cooldown).
	Resilience ResilienceConfig
}

func (c *Config) applyDefaults() {
	if c.Delta <= 0 {
		c.Delta = 60 * time.Second
	}
	if c.CacheItems <= 0 {
		c.CacheItems = 500
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	if c.Network == nil {
		c.Network = netsim.DefaultTopology(1)
	}
	if c.LocalBlocks == nil {
		c.LocalBlocks = defaultLocalBlocks
	}
	c.Resilience.applyDefaults()
}

// defaultLocalBlocks is Config.LocalBlocks' default, built once: every
// device reads it, none writes it.
var defaultLocalBlocks = map[string]origin.BlockRenderer{
	"greeting": origin.GreetingBlock,
	"cart":     origin.CartBlock,
	"reco":     origin.RecommendationsBlock,
	"tier":     origin.TierPriceBlock,
}

// Stats counts proxy activity.
type Stats struct {
	Loads, DeviceHits, CDNHits, OriginFetches uint64
	SketchRefreshes, Revalidations            uint64
	// NotModified counts revalidations answered by a 304-equivalent
	// (version unchanged, no body transferred).
	NotModified uint64
	// OfflineServes counts loads answered from the device cache because
	// the network was unreachable.
	OfflineServes             uint64
	BlocksLocal, BlocksOrigin uint64
	// Prefetches counts background link fetches; PrefetchTime is their
	// accumulated (simulated) cost, accounted apart from page latency.
	Prefetches   uint64
	PrefetchTime time.Duration
	// Retries counts backed-off retry attempts against upstreams.
	Retries uint64
	// Degraded counts degradation decisions (a single load can record
	// more than one as it walks down the ladder).
	Degraded uint64
}

// Proxy is one device's service worker. Safe for concurrent use, though
// a device issues requests sequentially in practice.
type Proxy struct {
	cfg    Config
	sketch *cachesketch.Client
	store  *cache.Store
	tr     Transport
	stats  Stats
	// m holds metric handles resolved once at construction, so the load
	// path never does a registry lookup; nil when no registry is wired.
	m *proxyMetrics
	// rng drives backoff jitter; seeded from Resilience.Seed so retry
	// schedules replay deterministically. Only a retry draws from it, so
	// the first retry creates it (a rand.Rand is 5 KB, and most sessions
	// never retry).
	rng     *rand.Rand
	backoff resilience.Backoff
	// One breaker per upstream the device talks to.
	brSketch *resilience.Breaker
	brShell  *resilience.Breaker
	brBlocks *resilience.Breaker
}

// proxyMetrics are the device-side instruments, pre-resolved from the
// registry (see the metric catalog in DESIGN.md).
type proxyMetrics struct {
	loads           [3]*metrics.Counter // indexed by Source
	offlineServes   *metrics.Counter
	sketchRefreshes *metrics.Counter
	revalidations   *metrics.Counter
	retries         *metrics.Counter
	degraded        map[DegradeReason]*metrics.Counter
	loadLatency     *metrics.Histogram
	blockLatency    *metrics.Histogram
}

func newProxyMetrics(r *obs.Registry) *proxyMetrics {
	m := &proxyMetrics{
		offlineServes:   r.Counter("speedkit.device.offline_serves.total"),
		sketchRefreshes: r.Counter("speedkit.device.sketch_refreshes.total"),
		revalidations:   r.Counter("speedkit.device.revalidations.total"),
		retries:         r.Counter("speedkit.device.retries.total"),
		degraded:        make(map[DegradeReason]*metrics.Counter, len(degradeReasons)),
		loadLatency:     r.Histogram("speedkit.device.load_latency_us"),
		blockLatency:    r.Histogram("speedkit.device.block_latency_us"),
	}
	for _, src := range []Source{SourceDevice, SourceCDN, SourceOrigin} {
		m.loads[src] = r.Counter("speedkit.device.loads.total", obs.L("source", src.String()))
	}
	for _, reason := range degradeReasons {
		m.degraded[reason] = r.Counter("speedkit.device.degraded.total", obs.L("reason", string(reason)))
	}
	return m
}

// New creates a proxy bound to a transport.
func New(cfg Config, tr Transport) *Proxy {
	cfg.applyDefaults()
	p := &Proxy{
		cfg:    cfg,
		sketch: cachesketch.NewClient(cfg.Clock, cfg.Delta),
		store: cache.New(cache.Config{
			MaxItems: cfg.CacheItems,
			Clock:    cfg.Clock,
		}),
		tr: tr,
		backoff: resilience.Backoff{
			Base:   cfg.Resilience.RetryBase,
			Max:    cfg.Resilience.RetryMaxDelay,
			Factor: 2,
			Jitter: cfg.Resilience.RetryJitter,
		},
	}
	brCfg := resilience.BreakerConfig{
		Clock:     cfg.Clock,
		Threshold: cfg.Resilience.BreakerThreshold,
		Cooldown:  cfg.Resilience.BreakerCooldown,
	}
	p.brSketch = resilience.NewBreaker(brCfg)
	p.brShell = resilience.NewBreaker(brCfg)
	p.brBlocks = resilience.NewBreaker(brCfg)
	if cfg.Obs != nil {
		p.m = newProxyMetrics(cfg.Obs)
	}
	return p
}

// PageLoad is the result of one intercepted page request.
type PageLoad struct {
	Path string
	// Body is the fully assembled, personalized page.
	Body []byte
	// Version is the content version of the anonymous shell served.
	Version uint64
	// Latency is the simulated end-to-end load time.
	Latency time.Duration
	// Source is the tier that served the shell.
	Source Source
	// Revalidated reports whether the sketch forced a revalidation.
	Revalidated bool
	// SketchRefreshed reports whether this load had to refresh the sketch.
	SketchRefreshed bool
	// BlocksPersonalized counts dynamic blocks filled for this load.
	BlocksPersonalized int
	// Offline reports that the network was unreachable and the page was
	// served from the device cache regardless of freshness or sketch
	// state. Offline responses may be arbitrarily stale — the Δ bound
	// resumes once connectivity returns.
	Offline bool
	// Degraded names the first degradation decision taken for this load
	// (DegradeNone when the full protocol ran). Except for the explicit
	// Offline mode, degraded responses still satisfy the Δ bound.
	Degraded DegradeReason
}

// auditCDN records an anonymous-only flow to the CDN boundary.
func (p *Proxy) auditCDN(fields ...string) {
	if p.cfg.Auditor != nil {
		p.cfg.Auditor.RecordFlow(gdpr.BoundaryCDN, fields)
	}
}

// Load intercepts one page request and runs the full pipeline. The ctx
// rides every transport call (cancellation is honored between retries
// and inside real HTTP transports); the simulated-latency budget, if
// configured, is enforced by the resilience layer.
func (p *Proxy) Load(ctx context.Context, path string) (PageLoad, error) {
	res := PageLoad{Path: path}
	p.stats.Loads++
	// Unsampled and disabled tracing both yield a nil trace; every trace
	// method below is a nil-safe no-op, so the untraced load pays one
	// atomic load here and nothing else. A sampled trace also rides the
	// ctx so the layers below — the resilience retry loop, and the HTTP
	// transport that propagates the W3C traceparent to the server — reach
	// it without new parameters; ContextWithTrace is a no-op for nil.
	trace := p.cfg.Tracer.Start("page_load", path)
	ctx = obs.ContextWithTrace(ctx, trace)

	// 1. The sketch decides one thing: whether a copy the device holds may
	// be served. Without an unexpired copy there is nothing for it to
	// vouch for, and the load goes to the network without one — a plain
	// fetch, which with no held version is the request a revalidation
	// would send. Peek, not Get: Get reaps the expired copies the offline
	// rung serves. With a copy, the sketch is refreshed if older than Δ;
	// it is an anonymous resource fetched from the edge. A failed refresh
	// (upstream fault, open breaker, exhausted budget) does not fail the
	// load; it pushes the shell decision onto the degradation ladder.
	_, holds := p.store.Peek(path)
	consult := holds && !p.cfg.DisableSketch
	sketchOK := consult
	if consult && p.sketch.NeedsRefresh() {
		var sn *cachesketch.Snapshot
		sketchStart := res.Latency
		err := p.withRetry(ctx, &res, p.brSketch, "sketch", func() error {
			s, lat, err := p.tr.FetchSketch(ctx, p.cfg.Region)
			if err != nil {
				return err
			}
			sn = s
			res.Latency += lat
			return nil
		})
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return PageLoad{}, err
		}
		if err == nil && sn != nil {
			p.sketch.Install(sn)
			res.SketchRefreshed = true
			p.stats.SketchRefreshes++
			p.auditCDN("sketch")
			trace.MarkSketchRefreshed()
			trace.AddSpan("sketch.fetch", "cdn", res.Latency-sketchStart)
			// A snapshot that arrives already Δ old — a cache on the path
			// held it that long and said so in Age — vouches for nothing:
			// the same ladder as no sketch at all.
			if p.sketch.NeedsRefresh() {
				sketchOK = false
			}
		} else {
			// The snapshot we hold (if any) is older than Δ and can no
			// longer vouch for cached copies.
			sketchOK = false
		}
	}
	// Sketch state at decision time: how much of the Δ budget the held
	// snapshot had consumed when it vouched for this load — none when the
	// load consulted no sketch, since nothing was served on its word. The
	// fraction feeds both the sampled trace and the SLO histogram (which
	// counts every load, sampled or not).
	budgetFrac := -1.0
	if !p.cfg.DisableSketch {
		var age time.Duration
		if consult {
			age = p.sketch.Age()
		}
		trace.SetSketch(p.sketch.Generation(), age, p.cfg.Delta)
		if p.cfg.Delta > 0 {
			budgetFrac = float64(age) / float64(p.cfg.Delta)
		}
	}

	// 2. Coherence decision for the shell. With the sketch disabled,
	// every unexpired cached copy is served blindly (TTL-only baseline).
	// With the sketch unreachable, the ladder keeps the Δ bound without
	// it: serve a held copy stored within the last Δ (its staleness
	// cannot exceed Δ — any invalidating write postdates StoredAt), else
	// force the version-conditioned revalidation path.
	decision := cachesketch.ServeFromCache
	var entry cache.Entry
	served := false
	if consult {
		if sketchOK {
			decision = p.sketch.Check(path)
		} else if held, ok := p.heldWithinDelta(path); ok {
			entry = held
			served = true
			res.Source = SourceDevice
			res.Latency += p.cfg.Network.DeviceLatency()
			p.stats.DeviceHits++
			p.markDegraded(&res, trace, DegradeServeStale)
		} else {
			decision = cachesketch.Revalidate
			p.markDegraded(&res, trace, DegradeRevalidate)
		}
	}
	// orDegraded wraps a shell fetch with the fallback rungs. Offline:
	// any held device copy — fresh, flagged, or expired — beats a failed
	// page load (explicitly marked, Δ bound suspended). Resilience
	// refusals and exhausted retries: a copy stored within Δ still
	// satisfies the bound; without one the error propagates.
	orDegraded := func(e cache.Entry, err error) (cache.Entry, error) {
		if err == nil {
			return e, nil
		}
		if errors.Is(err, ErrOffline) {
			held, ok := p.store.PeekAny(path)
			if !ok {
				return cache.Entry{}, err
			}
			res.Offline = true
			res.Source = SourceDevice
			res.Latency += p.cfg.Network.DeviceLatency()
			p.stats.OfflineServes++
			p.markDegraded(&res, trace, DegradeOfflineShell)
			res.Degraded = DegradeOfflineShell // the terminal rung names the load
			return held, nil
		}
		var reason DegradeReason
		switch {
		case errors.Is(err, ErrCircuitOpen):
			reason = DegradeCircuitOpen
		case errors.Is(err, ErrBudgetExceeded):
			reason = DegradeBudget
		case errors.Is(err, ErrUpstream):
			reason = DegradeRetriesExhausted
		default:
			return cache.Entry{}, err // application error: propagate
		}
		held, ok := p.heldWithinDelta(path)
		if !ok {
			return cache.Entry{}, err
		}
		res.Source = SourceDevice
		res.Latency += p.cfg.Network.DeviceLatency()
		p.stats.DeviceHits++
		p.markDegraded(&res, trace, reason)
		return held, nil
	}

	var err error
	shellStart := res.Latency
	if !served && decision == cachesketch.ServeFromCache && holds {
		entry, served = p.store.Get(path)
		// A copy stored before the held sketch's epoch was installed was
		// vouched for by another incarnation: it is revalidated once.
		if served && entry.StoredAt.Before(p.sketch.EpochSince()) {
			decision, served = cachesketch.Revalidate, false
		}
		if served {
			res.Source = SourceDevice
			res.Latency += p.cfg.Network.DeviceLatency()
			p.stats.DeviceHits++
		}
	}
	if !served {
		switch decision {
		case cachesketch.ServeFromCache:
			entry, err = orDegraded(p.fetchShell(ctx, path, &res))
			if err != nil {
				return PageLoad{}, err
			}
		case cachesketch.Revalidate:
			res.Revalidated = true
			p.stats.Revalidations++
			entry, err = orDegraded(p.revalidateShell(ctx, path, &res))
			if err != nil {
				return PageLoad{}, err
			}
		default:
			// The sketch was refreshed above, so RefreshSketch can only
			// recur if the transport returned a nil snapshot; degrade to a
			// direct fetch, which is always safe.
			res.Revalidated = true
			entry, err = orDegraded(p.fetchShell(ctx, path, &res))
			if err != nil {
				return PageLoad{}, err
			}
		}
	}

	trace.AddSpan("shell.fetch", res.Source.String(), res.Latency-shellStart)
	if res.Revalidated {
		trace.MarkRevalidated()
	}
	if res.Offline {
		trace.MarkOffline()
	}

	// 3. On-device personalization: swap placeholders for fragments.
	blockStart := res.Latency
	body, blocks, err := p.personalize(ctx, entry, &res, trace)
	if err != nil {
		return PageLoad{}, err
	}
	res.Body = body
	res.Version = entry.Version
	res.BlocksPersonalized = blocks
	blockLatency := res.Latency - blockStart
	if blocks > 0 {
		trace.AddSpan("personalize", "device", blockLatency)
	}
	trace.SetBlocks(blocks, blockLatency)

	// 4. Background prefetch of linked pages (never while offline or
	// degraded — a struggling upstream should not absorb warmup traffic).
	if !res.Offline && res.Degraded == DegradeNone {
		p.prefetch(ctx, entry)
	}

	trace.SetSource(res.Source.String())
	trace.SetTotal(res.Latency)
	p.cfg.Tracer.Finish(trace)
	if p.cfg.SLO != nil && budgetFrac >= 0 {
		// SpanContext is nil-safe: an unsampled load donates the zero
		// trace ID, so it counts toward the SLO but never as an exemplar.
		p.cfg.SLO.Observe(res.Source.String(), budgetFrac, trace.SpanContext().TraceID)
	}
	if p.m != nil {
		p.m.loads[res.Source].Inc()
		p.m.loadLatency.ObserveDuration(res.Latency)
		if blocks > 0 {
			p.m.blockLatency.ObserveDuration(blockLatency)
		}
		if res.SketchRefreshed {
			p.m.sketchRefreshes.Inc()
		}
		if res.Revalidated {
			p.m.revalidations.Inc()
		}
		if res.Offline {
			p.m.offlineServes.Inc()
		}
	}
	return res, nil
}

// fetchShell pulls the anonymous page via the CDN path (through the
// resilience layer) and fills the device cache.
func (p *Proxy) fetchShell(ctx context.Context, path string, res *PageLoad) (cache.Entry, error) {
	p.auditCDN("path")
	var entry cache.Entry
	var src Source
	err := p.withRetry(ctx, res, p.brShell, "shell", func() error {
		e, lat, s, err := p.tr.Fetch(ctx, p.cfg.Region, path)
		if err != nil {
			return err
		}
		entry, src = e, s
		res.Latency += lat
		return nil
	})
	if err != nil {
		return cache.Entry{}, fmt.Errorf("proxy: fetch %s: %w", path, err)
	}
	src = p.tier(ctx, res, src)
	res.Source = src
	switch src {
	case SourceCDN:
		p.stats.CDNHits++
	default:
		p.stats.OriginFetches++
	}
	// The entry's ExpiresAt is absolute, so the device copy expires in
	// lockstep with every other cache of the same response — exactly the
	// assumption the server's expiration table depends on.
	p.keep(entry)
	return entry, nil
}

// tier returns the tier that answered a shell fetch. An edge's stale serve
// is the CDN's answer, and it degrades the load: the edge could not
// refresh the copy, so nothing upstream vouched for it.
func (p *Proxy) tier(ctx context.Context, res *PageLoad, src Source) Source {
	if src != SourceCDNStale {
		return src
	}
	p.markDegraded(res, obs.TraceFromContext(ctx), DegradeServeStale)
	return SourceCDN
}

// keep stores a copy fetched from upstream and notes its epoch with the
// sketch client, so that the next sketch installed trusts the copy only if
// that sketch's epoch is the one that served it (cachesketch.Client.Note).
func (p *Proxy) keep(e cache.Entry) {
	p.store.Put(e)
	p.sketch.Note(e.Epoch)
}

// revalidateShell refreshes a sketch-flagged page. When the device still
// holds a copy (even an expired one), it issues a conditional fetch with
// the held version: if that version is still current, only the expiration
// is renewed and no body travels — the protocol's 304-equivalent. The
// request takes the CDN path like any fetch: an edge copy newer than the
// held version answers it, and an edge at the held version takes it
// upstream (core.Service.Revalidate, edge.Proxy). Without a held copy it
// is a plain fetch.
func (p *Proxy) revalidateShell(ctx context.Context, path string, res *PageLoad) (cache.Entry, error) {
	// With no copy there is no version to condition on. A conditional
	// request for version 0 is a plain fetch everywhere but at an edge
	// whose copy itself counts as version 0 — one filled from an answer
	// without an ETag — which would answer 304 with no page to keep.
	held, ok := p.store.PeekAny(path)
	if !ok {
		return p.fetchShell(ctx, path, res)
	}
	p.auditCDN("path")
	var rr RevalidationResult
	err := p.withRetry(ctx, res, p.brShell, "shell", func() error {
		r, err := p.tr.Revalidate(ctx, p.cfg.Region, path, held.Version)
		if err != nil {
			return err
		}
		rr = r
		return nil
	})
	if err != nil {
		return cache.Entry{}, fmt.Errorf("proxy: revalidate %s: %w", path, err)
	}
	res.Latency += rr.Latency
	rr.Source = p.tier(ctx, res, rr.Source)
	res.Source = rr.Source
	switch rr.Source {
	case SourceCDN:
		p.stats.CDNHits++
	default:
		p.stats.OriginFetches++
	}
	if rr.NotModified {
		p.stats.NotModified++
		held.ExpiresAt = rr.Entry.ExpiresAt
		held.StoredAt = rr.Entry.StoredAt
		held.Epoch = rr.Entry.Epoch
		p.keep(held)
		return held, nil
	}
	p.keep(rr.Entry)
	return rr.Entry, nil
}

// personalize replaces each block placeholder with its fragment. A
// failed origin-fragment fetch never fails the page: the device falls
// back to locally rendered variants (DegradeBlocksLocal).
func (p *Proxy) personalize(ctx context.Context, entry cache.Entry, res *PageLoad, trace *obs.Trace) ([]byte, int, error) {
	names := blockNames(entry)
	if len(names) == 0 {
		return entry.Body, 0, nil
	}

	consented := p.consented()
	var originNames []string
	fragments := make(map[string][]byte, len(names))
	renderLocal := func(name string) {
		// On-device rendering from local session state. Without consent,
		// render the anonymous variant by passing a nil user.
		r := p.cfg.LocalBlocks[name]
		if r == nil {
			fragments[name] = nil
			return
		}
		u := p.cfg.User
		if !consented {
			u = nil
		}
		fragments[name] = r(u)
		p.stats.BlocksLocal++
	}
	for _, name := range names {
		if p.cfg.OriginBlocks[name] && consented && !res.Offline {
			originNames = append(originNames, name)
			continue
		}
		renderLocal(name)
	}

	// Origin-sourced fragments travel over the first-party channel, one
	// batched round trip per page. PII crossing this boundary is lawful
	// (first-party, consented) but still audited.
	if len(originNames) > 0 {
		if p.cfg.Auditor != nil {
			p.cfg.Auditor.RecordFlow(gdpr.BoundaryOrigin, []string{"user_id", "path"})
		}
		var frs map[string][]byte
		err := p.withRetry(ctx, res, p.brBlocks, "blocks", func() error {
			f, lat, err := p.tr.FetchBlocks(ctx, p.cfg.Region, originNames, p.cfg.User)
			if err != nil {
				return err
			}
			frs = f
			res.Latency += lat
			return nil
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, 0, err
			}
			// Degrade to local fallbacks for every origin-sourced block.
			p.markDegraded(res, trace, DegradeBlocksLocal)
			for _, name := range originNames {
				renderLocal(name)
			}
		}
		for name, fr := range frs {
			fragments[name] = fr
			p.stats.BlocksOrigin++
		}
	}

	res.Latency += p.cfg.Network.DeviceLatency() // assembly cost
	body, count := assemble(entry.Body, fragments)
	return body, count, nil
}

// placeholder is one fillable block placeholder in a shell: its bytes
// shell[start:end], and the fragment that replaces them.
type placeholder struct {
	start, end int
	frag       []byte
}

// assemble replaces every placeholder in shell whose block has an entry
// in fragments (a nil fragment fills it with nothing) and counts the
// distinct blocks it filled. One scan for origin.BlockPrefix finds the
// placeholders, and the page is written into one exactly-sized buffer;
// fragments go in verbatim and are never scanned. A placeholder with no
// entry, or one missing its origin.BlockSuffix, stays in the page, and a
// shell with nothing to fill comes back as it is.
func assemble(shell []byte, fragments map[string][]byte) ([]byte, int) {
	// A page has a handful of blocks; more than eight spill to the heap.
	var stack [8]placeholder
	found := stack[:0]
	size, count := len(shell), 0
	for i := 0; ; {
		j := bytes.Index(shell[i:], blockPrefix)
		if j < 0 {
			break
		}
		nameAt := i + j + len(blockPrefix)
		k := bytes.Index(shell[nameAt:], blockSuffix)
		if k < 0 {
			break
		}
		name := shell[nameAt : nameAt+k]
		frag, ok := fragments[string(name)]
		if !ok {
			// Not a block of this page. A placeholder may still start
			// inside what looked like its name: at the last prefix there,
			// since every one of them ends at the same suffix.
			if l := bytes.LastIndex(name, blockPrefix); l >= 0 {
				i = nameAt + l
			} else {
				i = nameAt + k + len(blockSuffix)
			}
			continue
		}
		ph := placeholder{start: i + j, end: nameAt + k + len(blockSuffix), frag: frag}
		if !seenBlock(shell, found, name) {
			count++
		}
		found = append(found, ph)
		size += len(frag) - (ph.end - ph.start)
		i = ph.end
	}
	if len(found) == 0 {
		return shell, 0
	}
	out := make([]byte, 0, size)
	prev := 0
	for _, ph := range found {
		out = append(out, shell[prev:ph.start]...)
		out = append(out, ph.frag...)
		prev = ph.end
	}
	return append(out, shell[prev:]...), count
}

// seenBlock reports whether one of the placeholders found in shell is
// for the block name.
func seenBlock(shell []byte, found []placeholder, name []byte) bool {
	for _, ph := range found {
		if bytes.Equal(shell[ph.start+len(blockPrefix):ph.end-len(blockSuffix)], name) {
			return true
		}
	}
	return false
}

var blockPrefix, blockSuffix = []byte(origin.BlockPrefix), []byte(origin.BlockSuffix)

// consented reports whether personalization is permitted for this device.
func (p *Proxy) consented() bool {
	u := p.cfg.User
	if u == nil || !u.LoggedIn {
		return false
	}
	if p.cfg.Consent != nil {
		return p.cfg.Consent.Allowed(u.ID, gdpr.PurposePersonalization)
	}
	return u.ConsentPersonalization
}

// blockNames extracts the dynamic block list from the entry metadata.
func blockNames(e cache.Entry) []string {
	raw := e.Metadata["blocks"]
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ",")
}

// BlocksMetadata renders a page's block list into cache-entry metadata.
func BlocksMetadata(blocks []string) map[string]string {
	if len(blocks) == 0 {
		return nil
	}
	return map[string]string{"blocks": strings.Join(blocks, ",")}
}

// EntryMetadata renders a page's blocks and links into cache-entry
// metadata understood by the proxy (personalization and prefetching).
func EntryMetadata(blocks, links []string) map[string]string {
	if len(blocks) == 0 && len(links) == 0 {
		return nil
	}
	m := make(map[string]string, 2)
	if len(blocks) > 0 {
		m["blocks"] = strings.Join(blocks, ",")
	}
	if len(links) > 0 {
		m["links"] = strings.Join(links, ",")
	}
	return m
}

// linkNames extracts the prefetchable link list from entry metadata.
func linkNames(e cache.Entry) []string {
	raw := e.Metadata["links"]
	if raw == "" {
		return nil
	}
	return strings.Split(raw, ",")
}

// prefetch warms the device cache with the page's first K links that are
// not already held — plus held links the coherence sketch flags as
// possibly stale, which are refetched so the warm copy is coherent before
// the user navigates to it. The staleness verdicts for the whole link
// list come from one CheckBatch call (a single snapshot load and clock
// read); without a fresh sketch the verdict is RefreshSketch and held
// links are conservatively left alone. In production this runs
// asynchronously after the page is displayed, so its cost is accounted
// separately from the page load; the simulated latency is accumulated in
// Stats.PrefetchTime.
func (p *Proxy) prefetch(ctx context.Context, entry cache.Entry) {
	k := p.cfg.PrefetchLinks
	if k <= 0 {
		return
	}
	links := linkNames(entry)
	if len(links) == 0 {
		return
	}
	verdicts := make([]cachesketch.Decision, len(links))
	p.sketch.CheckBatch(links, verdicts)
	for i, link := range links {
		if k == 0 || ctx.Err() != nil {
			break
		}
		if _, held := p.store.Peek(link); held && verdicts[i] != cachesketch.Revalidate {
			continue
		}
		p.auditCDN("path")
		fetched, lat, _, err := p.tr.Fetch(ctx, p.cfg.Region, link)
		if err != nil {
			return // offline or server trouble: stop prefetching quietly
		}
		p.keep(fetched)
		p.stats.Prefetches++
		p.stats.PrefetchTime += lat
		k--
	}
}

// Stats returns a copy of the proxy counters.
func (p *Proxy) Stats() Stats { return p.stats }

// CacheStats exposes the device cache counters.
func (p *Proxy) CacheStats() cache.Stats { return p.store.Stats() }

// SketchStats exposes the sketch client counters.
func (p *Proxy) SketchStats() cachesketch.ClientStats { return p.sketch.Stats() }

// User returns the device owner (may be nil).
func (p *Proxy) User() *session.User { return p.cfg.User }

// Region returns the device region.
func (p *Proxy) Region() netsim.Region { return p.cfg.Region }
