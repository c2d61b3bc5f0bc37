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
// The proxy talks to two parties through two interfaces: Shared carries
// the anonymous calls to the CDN path, FirstParty the one call that
// carries identity, to the origin. It times each load on its injected
// clock; a simulator that models network time does so on its side of
// those interfaces.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/gdpr"
	"speedkit/internal/metrics"
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
	// to refresh. Only a Shared call returns it: the proxy marks the load
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

// Shared is the proxy's view of the shared caching tier: the CDN path to
// the anonymous page shells and the Cache Sketch. No method takes or
// returns anything that identifies the user, so no implementation can
// forward identity to a shared cache.
//
// Every method takes the request context first; implementations must
// honor cancellation and propagate the ctx into any real network call.
// Error contract (Shared and FirstParty): implementations return
// ErrOffline (possibly wrapped) when the network is unreachable and wrap
// transient failures worth retrying (5xx, injected faults) with
// ErrUpstream; anything else is treated as an application error and
// surfaces unchanged.
type Shared interface {
	// FetchSketch returns the current sketch snapshot from the nearest
	// edge.
	FetchSketch(ctx context.Context) (*cachesketch.Snapshot, error)
	// Fetch returns the anonymous page representation via the CDN path,
	// and whether the edge or the origin served it.
	Fetch(ctx context.Context, path string) (cache.Entry, Source, error)
	// Revalidate is the conditional variant of Fetch: the client holds a
	// copy at knownVersion. If that version is still current the
	// transport returns NotModified with a fresh expiration and no body;
	// otherwise it behaves like Fetch.
	Revalidate(ctx context.Context, path string, knownVersion uint64) (RevalidationResult, error)
}

// FirstParty is the proxy's consented channel to the origin, the only
// one that carries the user.
type FirstParty interface {
	// FetchBlocks returns origin-rendered personalized fragments, keyed
	// by name. It must not keep names past its return: the proxy reuses
	// the slice on its next load.
	FetchBlocks(ctx context.Context, names []string, u *session.User) (map[string][]byte, error)
}

// RevalidationResult is the outcome of a conditional fetch.
type RevalidationResult struct {
	// NotModified reports that the client's copy is still current; Entry
	// then carries only the refreshed expiration (no body).
	NotModified bool
	// Entry is the new representation (full on modification, expiry-only
	// on a 304-equivalent).
	Entry  cache.Entry
	Source Source
}

// Config parameterizes a device proxy.
type Config struct {
	// User owns the device (nil for an anonymous visitor).
	User *session.User
	// Delta is the staleness bound Δ enforced via sketch refreshes
	// (default 60s).
	Delta time.Duration
	// CacheItems bounds the service-worker cache (default 500 entries —
	// device caches are small).
	CacheItems int
	// Clock supplies time (default system). Every load is timed on it,
	// and retry backoff sleeps on it (clock.Sleep).
	Clock clock.Clock
	// Auditor records data flows across trust boundaries (optional).
	Auditor *gdpr.Auditor
	// Consent is the consent ledger consulted before any personalized
	// origin fetch (optional; nil means rely on User.ConsentPersonalization).
	Consent *gdpr.ConsentLedger
	// OriginBlocks names the dynamic blocks whose fragments must be
	// fetched from the origin (server-side data). All other blocks render
	// on-device.
	OriginBlocks map[string]bool
	// LocalBlocks maps block names to on-device renderers, in append
	// form: each writes its fragment straight into the page. Defaults to
	// the origin package's built-ins for greeting/cart/reco/tier, one map
	// every device shares. It is only read, by personalize.
	LocalBlocks map[string]origin.BlockAppender
	// DisableSketch turns off the coherence protocol: cached entries are
	// served purely by TTL. This is the "traditional expiration-based
	// caching" baseline of the consistency experiments — never use it in
	// production configurations.
	DisableSketch bool
	// Tracer samples page-load traces (nil disables tracing at zero
	// per-load cost).
	Tracer *obs.Tracer
	// SLO receives one Δ-budget observation per load — the fraction of
	// the staleness budget the consulted sketch snapshot had burned at
	// decision time — keyed by serving tier, with the load's trace ID as
	// exemplar when the load was sampled (nil disables).
	SLO *obs.DeltaSLO
	// Obs registers device-side counters — loads by serving tier,
	// refreshes, revalidations, retries, degradations — under the shared
	// registry (nil disables).
	Obs *obs.Registry
	// Resilience shapes retries and the per-upstream circuit breakers.
	// The zero value applies the documented defaults (2 retries, breakers
	// at 5 failures / 15s cooldown). A caller that bounds a load passes a
	// ctx deadline.
	Resilience ResilienceConfig
	// Region is read by the proxies New builds alone, and Network by
	// nothing: both remain for New's callers (see legacy.go).
	Region  region
	Network network
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
	if c.LocalBlocks == nil {
		c.LocalBlocks = defaultLocalBlocks
	}
	c.Resilience.applyDefaults()
}

// defaultLocalBlocks is Config.LocalBlocks' default, built once: every
// device reads it, none writes it.
var defaultLocalBlocks = map[string]origin.BlockAppender{
	"greeting": origin.AppendGreeting,
	"cart":     origin.AppendCart,
	"reco":     origin.AppendRecommendations,
	"tier":     origin.AppendTierPrice,
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
	// Prefetches counts the link fetches Prefetch made.
	Prefetches uint64
	// Retries counts backed-off retry attempts against upstreams.
	Retries uint64
	// Degraded counts degradation decisions (a single load can record
	// more than one as it walks down the ladder).
	Degraded uint64
}

// Proxy is one device's service worker. It runs one load at a time, as a
// device does: Load and Prefetch must not be called concurrently on one
// Proxy (its counters and its retry RNG are unsynchronized).
type Proxy struct {
	cfg    Config
	sketch *cachesketch.Client
	store  *cache.Store
	shared Shared
	first  FirstParty
	stats  Stats
	// m holds metric handles resolved once at construction, so the load
	// path never does a registry lookup; nil when no registry is wired.
	m *proxyMetrics
	// rng drives backoff jitter; seeded from Resilience.Seed so retry
	// schedules replay deterministically. Only a retry draws from it, so
	// the first retry creates it (a rand.Rand is 5 KB, and most sessions
	// never retry).
	rng *rand.Rand
	// One breaker per upstream the device talks to, held by value: a
	// device is built once per session.
	brSketch resilience.Breaker
	brShell  resilience.Breaker
	brBlocks resilience.Breaker
	// Scratch that personalize reuses from load to load: the names of the
	// blocks a page takes from the origin, and the page it writes (what
	// PageLoad.Body holds until the next load).
	names []string
	page  []byte
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
}

func newProxyMetrics(r *obs.Registry) *proxyMetrics {
	m := &proxyMetrics{
		offlineServes:   r.Counter("speedkit.device.offline_serves.total"),
		sketchRefreshes: r.Counter("speedkit.device.sketch_refreshes.total"),
		revalidations:   r.Counter("speedkit.device.revalidations.total"),
		retries:         r.Counter("speedkit.device.retries.total"),
		degraded:        make(map[DegradeReason]*metrics.Counter, len(degradeReasons)),
	}
	for _, src := range []Source{SourceDevice, SourceCDN, SourceOrigin} {
		m.loads[src] = r.Counter("speedkit.device.loads.total", obs.L("source", src.String()))
	}
	for _, reason := range degradeReasons {
		m.degraded[reason] = r.Counter("speedkit.device.degraded.total", obs.L("reason", string(reason)))
	}
	return m
}

// NewSplit creates a proxy that sends its anonymous calls to shared and
// its personalized ones to first. One value may serve as both, as
// httpclient.Transport does.
func NewSplit(cfg Config, shared Shared, first FirstParty) *Proxy {
	p := new(Proxy)
	p.init(cfg, shared, first)
	return p
}

func (p *Proxy) init(cfg Config, shared Shared, first FirstParty) {
	cfg.applyDefaults()
	*p = Proxy{
		cfg:    cfg,
		sketch: cachesketch.NewClient(cfg.Clock, cfg.Delta),
		store: cache.New(cache.Config{
			MaxItems: cfg.CacheItems,
			Clock:    cfg.Clock,
		}),
		shared: shared,
		first:  first,
	}
	brCfg := resilience.BreakerConfig{
		Clock:     cfg.Clock,
		Threshold: cfg.Resilience.BreakerThreshold,
		Cooldown:  cfg.Resilience.BreakerCooldown,
	}
	p.brSketch.Init(brCfg)
	p.brShell.Init(brCfg)
	p.brBlocks.Init(brCfg)
	if cfg.Obs != nil {
		p.m = newProxyMetrics(cfg.Obs)
	}
}

// PageLoad is the result of one intercepted page request.
type PageLoad struct {
	Path string
	// Body is the fully assembled, personalized page. A page with blocks
	// filled is written into a buffer the device reuses, so Body is valid
	// until the device's next Load; a caller that keeps it longer copies
	// it.
	Body []byte
	// Version is the content version of the anonymous shell served.
	Version uint64
	// Latency is the load's time on the proxy's clock, from the request
	// to the assembled page.
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
// rides every transport call: cancellation and deadlines are honored
// between retries and inside real HTTP transports.
func (p *Proxy) Load(ctx context.Context, path string) (PageLoad, error) {
	start := p.cfg.Clock.Now()
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
		sketchStart := p.spanStart(trace)
		err := p.withRetry(ctx, &p.brSketch, "sketch", func() (err error) {
			sn, err = p.shared.FetchSketch(ctx)
			return err
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
			trace.AddSpan("sketch.fetch", "cdn", p.spanSince(trace, sketchStart))
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
			p.stats.OfflineServes++
			p.markDegraded(&res, trace, DegradeOfflineShell)
			res.Degraded = DegradeOfflineShell // the terminal rung names the load
			return held, nil
		}
		var reason DegradeReason
		switch {
		case errors.Is(err, ErrCircuitOpen):
			reason = DegradeCircuitOpen
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
		p.stats.DeviceHits++
		p.markDegraded(&res, trace, reason)
		return held, nil
	}

	var err error
	shellStart := p.spanStart(trace)
	if !served && decision == cachesketch.ServeFromCache && holds {
		entry, served = p.store.Get(path)
		// A copy stored before the held sketch's epoch was installed was
		// vouched for by another incarnation: it is revalidated once.
		if served && entry.StoredAt.Before(p.sketch.EpochSince()) {
			decision, served = cachesketch.Revalidate, false
		}
		if served {
			res.Source = SourceDevice
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

	trace.AddSpan("shell.fetch", res.Source.String(), p.spanSince(trace, shellStart))
	if res.Revalidated {
		trace.MarkRevalidated()
	}
	if res.Offline {
		trace.MarkOffline()
	}

	// 3. On-device personalization: swap placeholders for fragments.
	blockStart := p.spanStart(trace)
	body, blocks, err := p.personalize(ctx, entry, &res, trace)
	if err != nil {
		return PageLoad{}, err
	}
	res.Latency = clock.Since(p.cfg.Clock, start)
	res.Body = body
	res.Version = entry.Version
	res.BlocksPersonalized = blocks
	blockLatency := p.spanSince(trace, blockStart)
	if blocks > 0 {
		trace.AddSpan("personalize", "device", blockLatency)
	}
	trace.SetBlocks(blocks, blockLatency)

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

// spanStart reads the clock for a span of a traced load; an untraced load
// reads it only at its start and at its assembled page.
func (p *Proxy) spanStart(trace *obs.Trace) time.Time {
	if trace == nil {
		return time.Time{}
	}
	return p.cfg.Clock.Now()
}

// spanSince is the duration of a span opened by spanStart (zero for an
// untraced load).
func (p *Proxy) spanSince(trace *obs.Trace, start time.Time) time.Duration {
	if trace == nil {
		return 0
	}
	return clock.Since(p.cfg.Clock, start)
}

// fetchShell pulls the anonymous page via the CDN path (through the
// resilience layer) and fills the device cache.
func (p *Proxy) fetchShell(ctx context.Context, path string, res *PageLoad) (cache.Entry, error) {
	p.auditCDN("path")
	var entry cache.Entry
	var src Source
	err := p.withRetry(ctx, &p.brShell, "shell", func() (err error) {
		entry, src, err = p.shared.Fetch(ctx, path)
		return err
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
	err := p.withRetry(ctx, &p.brShell, "shell", func() (err error) {
		rr, err = p.shared.Revalidate(ctx, path, held.Version)
		return err
	})
	if err != nil {
		return cache.Entry{}, fmt.Errorf("proxy: revalidate %s: %w", path, err)
	}
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

// personalize fills the shell's block placeholders with their fragments
// in one scan and one write. A failed origin-fragment fetch never fails
// the page: the device falls back to locally rendered variants
// (DegradeBlocksLocal).
//
// The scan finds each placeholder (origin.BlockPrefix, a name,
// origin.BlockSuffix) whose name the entry's "blocks" metadata lists, and
// decides per block, at its first placeholder, whether the origin renders
// it; those names go out in one FetchBlocks batch. The write copies the
// shell around the placeholders into the device's page buffer, with each
// block's fragment in their place: the origin's as it arrived, a local one
// appended by its renderer, and a block's later placeholders a copy of its
// first fill. Fragments are never scanned. A placeholder of a block that
// is not listed, that the origin did not answer, or that lacks its suffix
// stays in the page. It returns the page and the number of distinct
// blocks filled; a shell with nothing to fill comes back as it is, and a
// filled page is valid until the next load.
func (p *Proxy) personalize(ctx context.Context, entry cache.Entry, res *PageLoad, trace *obs.Trace) ([]byte, int, error) {
	list := entry.Metadata["blocks"]
	if list == "" {
		return entry.Body, 0, nil
	}
	shell := entry.Body
	consented := p.consented()
	// A page has a handful of placeholders; more than eight spill to the
	// heap.
	var stack [8]placeholder
	found := stack[:0]
	p.names = p.names[:0]
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
		raw := shell[nameAt : nameAt+k]
		name, ok := listed(list, raw)
		if !ok {
			// Not a block of this page. A placeholder may still start
			// inside what looked like its name: at the last prefix there,
			// since every one of them ends at the same suffix.
			if l := bytes.LastIndex(raw, blockPrefix); l >= 0 {
				i = nameAt + l
			} else {
				i = nameAt + k + len(blockSuffix)
			}
			continue
		}
		ph := placeholder{start: i + j, end: nameAt + k + len(blockSuffix), name: name, first: len(found)}
		for f := range found {
			if found[f].name == name {
				ph.first = f
				break
			}
		}
		if ph.first == len(found) && p.cfg.OriginBlocks[name] && consented && !res.Offline {
			ph.origin = true
			p.names = append(p.names, name)
		}
		found = append(found, ph)
		i = ph.end
	}
	if len(found) == 0 {
		return shell, 0, nil
	}

	// Origin-sourced fragments travel over the first-party channel, one
	// batched round trip per page. PII crossing this boundary is lawful
	// (first-party, consented) but still audited.
	var frs map[string][]byte
	if len(p.names) > 0 {
		if p.cfg.Auditor != nil {
			p.cfg.Auditor.RecordFlow(gdpr.BoundaryOrigin, []string{"user_id", "path"})
		}
		err := p.withRetry(ctx, &p.brBlocks, "blocks", func() (err error) {
			frs, err = p.first.FetchBlocks(ctx, p.names, p.cfg.User)
			return err
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, 0, err
			}
			// Degrade to local fallbacks for every origin-sourced block.
			frs = nil
			p.markDegraded(res, trace, DegradeBlocksLocal)
			for f := range found {
				found[f].origin = false
			}
		}
		p.stats.BlocksOrigin += uint64(len(frs))
	}

	// On-device rendering reads local session state. Without consent,
	// blocks render their anonymous variant from a nil user.
	u := p.cfg.User
	if !consented {
		u = nil
	}
	page := p.page[:0]
	need := len(shell) + localReserve*len(found)
	for _, ph := range found {
		if ph.origin {
			need += len(frs[ph.name])
		}
	}
	if cap(page) < need {
		// Grown from nothing, the buffer takes its allocation's whole size
		// class as capacity: slack a long fragment may use.
		page = slices.Grow([]byte(nil), need)
	}
	count, prev := 0, 0
	for f := range found {
		ph := &found[f]
		page = append(page, shell[prev:ph.start]...)
		prev = ph.end
		from := len(page)
		switch {
		case ph.first < f:
			if first := &found[ph.first]; first.filled {
				page = append(page, page[first.from:first.to]...)
			} else {
				page = append(page, shell[ph.start:ph.end]...)
			}
			continue
		case ph.origin:
			fr, ok := frs[ph.name]
			if !ok {
				page = append(page, shell[ph.start:ph.end]...)
				continue
			}
			page = append(page, fr...)
		default:
			// A block with no renderer fills with nothing.
			if r := p.cfg.LocalBlocks[ph.name]; r != nil {
				page = r(page, u)
				p.stats.BlocksLocal++
			}
		}
		ph.filled, ph.from, ph.to = true, from, len(page)
		count++
	}
	page = append(page, shell[prev:]...)
	p.page = page
	return page, count, nil
}

// localReserve is the room the page buffer reserves for each placeholder
// beyond the bytes it replaces, for a fragment rendered on the device,
// whose length is known only once it is written. The built-ins mostly fit
// in it; one that does not grows the buffer once, and the device keeps
// the larger one.
const localReserve = 32

// placeholder is one fillable block placeholder in a shell:
// shell[start:end], for the block name.
type placeholder struct {
	start, end int
	// name is the block's entry in the entry's block list.
	name string
	// first indexes the block's first placeholder in the shell; only
	// that one is rendered or fetched.
	first int
	// origin reports that the origin renders the block.
	origin bool
	// filled reports that the placeholder was filled, with page[from:to].
	filled   bool
	from, to int
}

// listed returns the entry of the comma-separated block list that spells
// name, as a substring of list, and whether there is one. It reads list
// as strings.Split does, without allocating.
func listed(list string, name []byte) (string, bool) {
	for {
		i := strings.IndexByte(list, ',')
		if i < 0 {
			return list, list == string(name)
		}
		if list[:i] == string(name) {
			return list[:i], true
		}
		list = list[i+1:]
	}
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

// Prefetch warms the device cache with the first k links of the copy held
// for path that are not already held — plus held links the coherence
// sketch flags as possibly stale, which are refetched so the warm copy is
// coherent before the user navigates to it. The staleness verdicts for the
// whole link list come from one CheckBatch call (a single snapshot load
// and clock read); without a fresh sketch the verdict is RefreshSketch and
// held links are conservatively left alone. A device calls it after a
// page is displayed, and not after an offline or degraded load: a
// struggling upstream should not absorb warmup traffic.
func (p *Proxy) Prefetch(ctx context.Context, path string, k int) {
	if k <= 0 {
		return
	}
	entry, ok := p.store.PeekAny(path)
	if !ok {
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
		fetched, _, err := p.shared.Fetch(ctx, link)
		if err != nil {
			return // offline or server trouble: stop prefetching quietly
		}
		p.keep(fetched)
		p.stats.Prefetches++
		k--
	}
}

// Stats returns a copy of the proxy counters.
func (p *Proxy) Stats() Stats { return p.stats }

// CacheStats exposes the device cache counters.
func (p *Proxy) CacheStats() cache.Stats { return p.store.Stats() }

// User returns the device owner (may be nil).
func (p *Proxy) User() *session.User { return p.cfg.User }
