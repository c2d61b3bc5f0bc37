// Package core assembles the Speed Kit service from its substrates: the
// document store (system of record), the origin server, the CDN, and the
// coherence kernel — the Cache Sketch, the real-time invalidation engine
// and the adaptive TTL estimator, one cluster.Node or a cluster.Cluster of
// them (Kernel). It answers the server's calls (Sketch, Page,
// Revalidate and Blocks, which httpapi serves over HTTP and which time
// themselves on the service clock), hands out simulated devices (Device,
// whose link models the network time of the same calls), and wires the
// invalidation pipeline:
//
//	write → change stream → { product-page version bump,
//	                          query matching (invalidb) }
//	      → per affected path: kernel ReportWrite (sketch + TTL-estimator
//	                          write sample) + CDN purge
//
// Every component shares one injectable clock, so the full stack runs
// deterministically under simulated time.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/cdn"
	"speedkit/internal/clock"
	"speedkit/internal/cluster"
	"speedkit/internal/durable"
	"speedkit/internal/faults"
	"speedkit/internal/gdpr"
	"speedkit/internal/invalidb"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/origin"
	"speedkit/internal/proxy"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
	"speedkit/internal/tracectx"
	"speedkit/internal/ttl"
)

// Config parameterizes a Service.
type Config struct {
	// Clock drives every component (default: a fresh simulated clock).
	Clock clock.Clock
	// Network models the network time of simulated devices (default:
	// DefaultTopology(Seed)). The server's calls draw nothing from it.
	Network *netsim.Network
	// Seed makes service-side randomness (render jitter) deterministic.
	Seed int64
	// Delta is the staleness bound Δ (default 60s). Devices and edges trust
	// a sketch for Δ less the kernel's Lag (SketchMaxAge).
	Delta time.Duration
	// Kernel is the coherence kernel the service runs on: a
	// *cluster.Cluster for a multi-node deployment. Nil builds one
	// cluster.Node of the default sketch sizing over Durable.
	Kernel Kernel
	// TTLSource decides per-resource TTLs. Nil asks the kernel's adaptive
	// estimator (the paper's design); use ttl.Static for baselines.
	TTLSource ttl.TTLSource
	// OriginRenderTime is the mean server-side render latency
	// (default 25ms, jittered ±40%).
	OriginRenderTime time.Duration
	// DisableInvalidation turns off the server-side coherence pipeline
	// (no write reaches the kernel, no CDN purges): caches converge by TTL
	// alone, so pair it with a static TTLSource.
	// This models a traditional CDN deployment and exists for the
	// consistency baselines; staleness instrumentation stays active.
	DisableInvalidation bool
	// DisableSketchOnDevices makes NewDevice hand out TTL-only proxies.
	DisableSketchOnDevices bool
	// PrefetchLinks makes NewDevice devices warm their caches with up to
	// this many links after each loaded page (0 disables).
	PrefetchLinks int
	// Obs is the metrics registry service-side instruments register under
	// and NewDevice hands to devices (default obs.Default, so one scrape
	// sees the whole process; tests that assert on values inject a fresh
	// registry).
	Obs *obs.Registry
	// Tracer samples request and invalidation-pipeline traces, shared
	// with devices created by NewDevice (nil disables tracing).
	Tracer *obs.Tracer
	// SLO tracks the Δ-staleness budget burn; NewDevice hands it to
	// proxies so every page load observes its budget fraction (nil
	// disables SLO telemetry).
	SLO *obs.DeltaSLO
	// Faults is the optional deterministic fault injector consulted at
	// every transport call and invalidation-delivery hop (nil disables
	// injection — the common, non-chaos case). A Latency fault is
	// modelled time, which only a simulated device's link adds up: over
	// HTTP only error faults act.
	Faults *faults.Injector
	// DeviceResilience parameterizes the retry/backoff/breaker layer of
	// proxies created by NewDevice. The zero value takes the proxy
	// defaults; NewDevice derives a distinct deterministic RNG seed per
	// device so jitter streams never correlate across a fleet.
	DeviceResilience proxy.ResilienceConfig
	// Durable, when non-nil, persists the coherence state of the node
	// NewService builds (cluster.NodeConfig.Durable); a Kernel given here
	// has its own. Create it with durable.New over the service's data
	// directory.
	Durable *durable.Store
	// VersionLogHorizon bounds the staleness instrumentation's per-key
	// history (default 48h — comfortably above the 24h TTL cap, so no
	// judgeable read loses its write history). Negative disables pruning.
	VersionLogHorizon time.Duration
}

func (c *Config) applyDefaults() {
	if c.Clock == nil {
		c.Clock = clock.NewSimulated(time.Time{})
	}
	if c.Network == nil {
		c.Network = netsim.DefaultTopology(c.Seed)
	}
	if c.Delta <= 0 {
		c.Delta = 60 * time.Second
	}
	if c.OriginRenderTime <= 0 {
		c.OriginRenderTime = 25 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	if c.VersionLogHorizon == 0 {
		c.VersionLogHorizon = 48 * time.Hour
	}
}

// Stats aggregates service-side activity: the per-service tally the
// gates and the load harness read (the per-process one is cfg.Obs).
type Stats struct {
	Invalidations uint64
	SketchFetches uint64
	OriginRenders uint64
	BlockFetches  uint64
	// FaultsInjected counts transport calls and delivery hops the fault
	// injector perturbed.
	FaultsInjected uint64
	// Redeliveries counts retried invalidation-delivery attempts after an
	// injected delivery fault.
	Redeliveries uint64
	// ForcedDeliveries counts deliveries pushed through after exhausting
	// the redelivery budget — late rather than dropped, because a dropped
	// sketch report or purge would silently void the Δ bound.
	ForcedDeliveries uint64
}

// Kernel is the coherence kernel a Service runs on: the Cache Sketch, the
// TTL estimator and the InvaliDB matcher, with their durable state and
// epoch. A *cluster.Node is a one-node kernel; a *cluster.Cluster routes
// the same calls to its nodes by ring. The service reports what it sees
// and asks nothing else of it: a report the kernel could not take (a down
// node) leaves the service to act as if it had — a write it could not
// report counts as held, and its purge goes out.
type Kernel interface {
	// ReportWrite records a write of key; held is true when a cache may
	// still hold a copy, and whenever err is not nil.
	ReportWrite(key string) (held bool, err error)
	// RecordRead records a miss read of key, which a fill sends and a 304
	// does not.
	RecordRead(key string) error
	// ReportFill records that caches hold a copy of key until expiresAt.
	ReportFill(key string, expiresAt time.Time) error
	// TTL is the estimator's TTL for key.
	TTL(key string) time.Duration
	// Register and Process are the matcher: Process returns the matches
	// of one change event sorted by registration ID.
	Register(id string, q query.Query) error
	Process(ev storage.ChangeEvent) ([]invalidb.Invalidation, error)
	// Snapshot, Generation, Epoch and EpochValue are the sketch devices and
	// edges hold: the snapshot, its content generation, its epoch and that
	// epoch's header value.
	Snapshot() *cachesketch.Snapshot
	Generation() uint64
	Epoch() uint64
	EpochValue() []string
	// Lag is how far a snapshot may trail a write the kernel took.
	Lag() time.Duration
	// Contains and Readout are what an operator reads.
	Contains(key string) bool
	Readout() cluster.Readout
}

// Service is one Speed Kit deployment.
type Service struct {
	cfg Config

	docs    *storage.DocumentStore
	origin  *origin.Server
	cdnNet  *cdn.CDN
	home    *cdn.Edge // the PoP the server's calls go through
	kernel  Kernel
	node    *cluster.Node // the kernel, when NewService built it; else nil
	ttlSrc  ttl.TTLSource
	verlog  *cachesketch.VersionLog
	consent *gdpr.ConsentLedger
	auditor *gdpr.Auditor

	// mu guards rng and devSeq, nothing else: the Stats tallies below are
	// atomics, so no request path takes a lock to count.
	mu     sync.Mutex
	rng    *rand.Rand // guarded by mu
	devSeq int64      // guarded by mu; numbers devices for per-device seeds

	stats struct {
		invalidations, sketchFetches, originRenders, blockFetches atomic.Uint64
		faultsInjected, redeliveries, forcedDeliveries            atomic.Uint64
	}

	// m holds the service-side metric handles, resolved once from
	// cfg.Obs (see the metric catalog in DESIGN.md).
	m *serviceMetrics

	// purgeListeners is copy-on-write, in registration order: OnPurge and
	// its cancel rebuild it under purgeMu, a purge reads it without a
	// lock. Listeners are invoked synchronously from the invalidation
	// pipeline and from PurgePath, so they must be fast and must not call
	// back into the Service.
	purgeMu        sync.Mutex
	purgeListeners atomic.Pointer[[]*purgeListener]

	// writeParent is the span context of the write request currently
	// executing under WithWriteSpan, if any. The document store's change
	// stream runs synchronously with the write, so the invalidation
	// pipeline it fans out into reads the parent here and stitches its
	// traces to the write's — across the HTTP hop that carried the
	// traceparent. Concurrent writes can at worst misattribute a
	// pipeline run to the other in-flight write; identity never leaks
	// and no trace is lost.
	writeParent atomic.Pointer[tracectx.SpanContext]

	cancels []func()
}

// serviceMetrics are the service-side instruments.
type serviceMetrics struct {
	fetches       [2]*obs.Counter // 0 = cdn edge hit, 1 = origin render
	fetchLatency  [2]*obs.Histogram
	sketchFetches *obs.Counter
	revalidations [3]*obs.Counter // by outcome: not_modified, edge, full
	blockFetches  *obs.Counter
	invalidations *obs.Counter
	purges        *obs.Counter
	purgesSkipped *obs.Counter // writes no cache held a copy of
	pipelineLat   *obs.Histogram
	faults        map[faults.Component]*obs.Counter
	redeliveries  *obs.Counter
	forced        *obs.Counter
}

// Serve-source indices for serviceMetrics.fetches / fetchLatency.
const (
	fetchCDN = iota
	fetchOrigin
)

// Revalidation outcome indices for serviceMetrics.revalidations.
const (
	revalNotModified = iota
	revalEdge
	revalFull
)

func newServiceMetrics(r *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		sketchFetches: r.Counter("speedkit.service.sketch_fetches.total"),
		blockFetches:  r.Counter("speedkit.service.block_fetches.total"),
		invalidations: r.Counter("speedkit.invalidation.total"),
		purges:        r.Counter("speedkit.cdn.purges.total"),
		purgesSkipped: r.Counter("speedkit.cdn.purges.skipped.total"),
		pipelineLat:   r.Histogram("speedkit.invalidation.pipeline_latency_us"),
	}
	for i, src := range []string{"cdn", "origin"} {
		m.fetches[i] = r.Counter("speedkit.service.fetch.total", obs.L("source", src))
		m.fetchLatency[i] = r.Histogram("speedkit.service.fetch_latency_us", obs.L("source", src))
	}
	for i, outcome := range []string{"not_modified", "edge", "full"} {
		m.revalidations[i] = r.Counter("speedkit.service.revalidations.total", obs.L("result", outcome))
	}
	m.faults = make(map[faults.Component]*obs.Counter, 4)
	for _, c := range faults.Components() {
		m.faults[c] = r.Counter("speedkit.service.faults.total", obs.L("component", string(c)))
	}
	m.redeliveries = r.Counter("speedkit.invalidation.redeliveries.total")
	m.forced = r.Counter("speedkit.invalidation.forced.total")
	return m
}

// NewService builds a service over an existing document store and origin.
// The origin must already be registered with its pages; query pages are
// wired into the invalidation engine automatically.
func NewService(cfg Config, docs *storage.DocumentStore, org *origin.Server) *Service {
	cfg.applyDefaults()
	s := &Service{
		cfg:     cfg,
		docs:    docs,
		origin:  org,
		cdnNet:  cdn.New(cfg.Clock),
		kernel:  cfg.Kernel,
		ttlSrc:  cfg.TTLSource,
		verlog:  cachesketch.NewVersionLog(),
		consent: gdpr.NewConsentLedger(),
		auditor: gdpr.NewAuditor(),
		rng:     rand.New(rand.NewSource(cfg.Seed + 7)),
	}
	s.m = newServiceMetrics(cfg.Obs)
	s.home = s.cdnNet.Edge(netsim.EU)
	if s.kernel == nil {
		// The node recovers persisted coherence state before any traffic:
		// the sketch and estimator rebuild from the newest snapshot plus
		// the WAL tail, and an unclean prior shutdown draws a new epoch.
		s.node = cluster.NewNode(cluster.NodeConfig{Clock: cfg.Clock, Durable: cfg.Durable})
		s.kernel = s.node
	}
	if s.ttlSrc == nil {
		s.ttlSrc = s.kernel
	}
	if lag := s.kernel.Lag(); lag >= cfg.Delta {
		panic(fmt.Sprintf("core: the kernel's lag %v leaves nothing of Δ=%v", lag, cfg.Delta))
	}
	if cfg.VersionLogHorizon > 0 {
		s.verlog.SetHorizon(cfg.VersionLogHorizon)
	}

	// Register the origin's listing pages as continuous queries.
	for path, q := range org.QueryPages() {
		_ = s.kernel.Register(path, q)
	}
	// Feed the matcher from the change stream. Query invalidations run the
	// full pipeline: listing pages have no owner bumping their content
	// version (the origin only tracks product pages), so the service bumps
	// it here before recording the write. Then the direct product-page
	// invalidation (the origin has already bumped the page version by the
	// time this watcher runs, because it registered earlier on the same
	// synchronous stream). A matcher that could not match names its
	// registrations as matched all the same (cluster.Cluster.Process).
	s.cancels = append(s.cancels, docs.Watch(func(ev storage.ChangeEvent) {
		invs, _ := s.kernel.Process(ev)
		for _, inv := range invs {
			s.origin.Invalidate(inv.RegistrationID)
			s.handleInvalidation(inv.RegistrationID)
		}
		if ev.Collection == "products" {
			s.handleInvalidation("/product/" + ev.ID)
		}
	}))
	return s
}

// Close detaches the service from the change stream.
func (s *Service) Close() {
	for _, c := range s.cancels {
		c()
	}
	s.cancels = nil
}

// inject consults the optional fault injector for one call against a
// component. It returns the latency spike to add (Latency faults) and
// the error to surface. Injected errors wrap both the faults sentinel
// and the proxy-taxonomy family the client resilience layer keys on:
// Error → ErrUpstream (retryable), Blackhole → ErrOffline (the
// partition / connectivity-loss failure mode, failed fast).
func (s *Service) inject(c faults.Component) (time.Duration, error) {
	d := s.cfg.Faults.Decide(c)
	if !d.Faulted() {
		return 0, nil
	}
	s.m.faults[c].Inc()
	s.stats.faultsInjected.Add(1)
	switch d.Kind {
	case faults.Latency:
		return d.Latency, nil
	case faults.Blackhole:
		return 0, fmt.Errorf("core: %s: %w: %w", c, d.Err, proxy.ErrOffline)
	default:
		return 0, fmt.Errorf("core: %s: %w: %w", c, d.Err, proxy.ErrUpstream)
	}
}

// deliverMaxAttempts bounds redelivery of one invalidation-pipeline hop
// under fault injection.
const deliverMaxAttempts = 16

// deliver runs one invalidation-delivery hop (sketch report, CDN purge)
// under fault injection: a faulted attempt is redelivered up to
// deliverMaxAttempts times, and on exhaustion the hop is forced through
// anyway. Dropping the hop is never an option — an unreported write
// would let every device blind-serve the stale copy past Δ, silently
// voiding the paper's staleness bound. Chaos here degrades delivery
// latency, not correctness.
func (s *Service) deliver(c faults.Component, hop func()) {
	for attempt := 0; attempt < deliverMaxAttempts; attempt++ {
		_, err := s.inject(c)
		if err == nil {
			hop()
			return
		}
		s.m.redeliveries.Inc()
		s.stats.redeliveries.Add(1)
	}
	s.m.forced.Inc()
	s.stats.forcedDeliveries.Add(1)
	hop()
}

// WithWriteSpan runs fn — a write against the document store — with sc
// installed as the causal parent for every invalidation-pipeline run the
// write triggers. The change stream delivers synchronously, so the
// pipeline traces started inside fn adopt sc's trace ID and the write's
// full fan-out (kernel report, durable snapshot included, and CDN purge)
// stitches to the HTTP write request that caused it. An invalid sc just
// runs fn: pipeline traces root locally as before.
func (s *Service) WithWriteSpan(sc tracectx.SpanContext, fn func()) {
	if sc.Valid() {
		s.writeParent.Store(&sc)
		defer s.writeParent.Store(nil)
	}
	fn()
}

// handleInvalidation runs the server-side coherence pipeline for one
// stale path.
func (s *Service) handleInvalidation(path string) {
	var parent tracectx.SpanContext
	if p := s.writeParent.Load(); p != nil {
		parent = *p
	}
	tr := s.cfg.Tracer.StartRemote("invalidation", path, parent)
	var sw *clock.Stopwatch
	if tr != nil {
		sw = clock.NewStopwatch(s.cfg.Clock)
	}
	now := s.cfg.Clock.Now()
	s.verlog.RecordWrite(path, s.origin.Version(path), now)
	if !s.cfg.DisableInvalidation {
		// The kernel's expiration table knows every cached copy's expiry; a
		// write it does not track has no live copy to purge. A holder that
		// outlived the kernel's memory is covered by the epoch change
		// instead (cachesketch.Snapshot.Epoch). A write the kernel could
		// not take has happened all the same — the document store
		// acknowledged it — so it counts as held.
		var held bool
		s.deliver(faults.Invalidation, func() { held, _ = s.kernel.ReportWrite(path) })
		if tr != nil {
			tr.AddSpan("sketch.report", "pipeline", sw.Elapsed())
			sw.Reset()
		}
		if held {
			s.deliver(faults.CDNPurge, func() { s.cdnNet.Purge(path) })
			if tr != nil {
				tr.AddSpan("cdn.purge", "pipeline", sw.Elapsed())
			}
			s.m.purges.Inc()
			s.notifyPurge(path)
		} else {
			s.m.purgesSkipped.Inc()
		}
	}
	s.m.invalidations.Inc()
	s.stats.invalidations.Add(1)
	if tr != nil {
		tr.SetSketch(s.kernel.Generation(), 0, 0)
		var total time.Duration
		for _, sp := range tr.Spans {
			total += sp.Duration
		}
		tr.SetTotal(total)
		s.m.pipelineLat.ObserveDuration(total)
		s.cfg.Tracer.Finish(tr)
	}
}

// PurgePath evicts one path from the shared caching tier outside the
// write pipeline: the CDN edges drop their copies immediately and every
// registered purge listener is notified. It backs POST /v1/purge, the
// operational escape hatch for evicting content that no write event will
// invalidate (a manual rollback, an emergency takedown).
func (s *Service) PurgePath(path string) {
	s.cdnNet.Purge(path)
	s.m.purges.Inc()
	s.notifyPurge(path)
}

// OnPurge registers fn to run whenever a path is purged — by the
// invalidation pipeline or by PurgePath. Listeners run synchronously on
// the purging goroutine, so they must be fast and must not call back
// into the Service. The returned cancel func removes the listener.
//
// kept for cmd/speedkit-load (ROADMAP 13(i))
func (s *Service) OnPurge(fn func(path string)) (cancel func()) {
	l := &purgeListener{fn: fn}
	s.editPurgeListeners(func(ls []*purgeListener) []*purgeListener { return append(ls, l) })
	return func() {
		s.editPurgeListeners(func(ls []*purgeListener) []*purgeListener {
			return slices.DeleteFunc(ls, func(x *purgeListener) bool { return x == l })
		})
	}
}

// purgeListener is one OnPurge call; its address is its identity.
type purgeListener struct{ fn func(path string) }

// editPurgeListeners publishes edit's result over a copy of the current
// listeners.
func (s *Service) editPurgeListeners(edit func([]*purgeListener) []*purgeListener) {
	s.purgeMu.Lock()
	defer s.purgeMu.Unlock()
	var cur []*purgeListener
	if p := s.purgeListeners.Load(); p != nil {
		cur = *p
	}
	next := edit(slices.Clone(cur))
	s.purgeListeners.Store(&next)
}

// notifyPurge fans a purge out to the registered listeners.
func (s *Service) notifyPurge(path string) {
	if p := s.purgeListeners.Load(); p != nil {
		for _, l := range *p {
			l.fn(path)
		}
	}
}

// renderJitter samples origin processing time: mean ± 40%.
func (s *Service) renderJitter() time.Duration {
	s.mu.Lock()
	f := 0.6 + s.rng.Float64()*0.8
	s.mu.Unlock()
	return time.Duration(float64(s.cfg.OriginRenderTime) * f)
}

// --- the server's calls ------------------------------------------------------
//
// Sketch, Page, Revalidate and Blocks are what httpapi serves. Each goes
// through the home PoP, does the call's work (the bodies below) and
// records how long that took on the service clock: wall time over HTTP,
// and 0 on a simulated clock, which no call advances. A simulated device
// runs the same bodies through its link, which models the time instead
// (device.go).

// Sketch is the sketch answer: an anonymous resource served by the CDN.
func (s *Service) Sketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	start := s.cfg.Clock.Now()
	sn, _, _, err := s.sketchSnapshot(ctx)
	if err == nil {
		s.observe(ctx, "core.sketch", proxy.SourceCDN, clock.Since(s.cfg.Clock, start), false)
	}
	return sn, err
}

// Page is the anonymous page answer, served through the CDN.
func (s *Service) Page(ctx context.Context, path string) (cache.Entry, proxy.Source, error) {
	start := s.cfg.Clock.Now()
	e, src, _, err := s.page(ctx, s.home, path)
	if err == nil {
		s.observe(ctx, "core.fetch", src, clock.Since(s.cfg.Clock, start), true)
	}
	return e, src, err
}

// Revalidate is the conditional page answer to a client holding
// knownVersion (see revalidate).
func (s *Service) Revalidate(ctx context.Context, path string, knownVersion uint64) (proxy.RevalidationResult, error) {
	start := s.cfg.Clock.Now()
	rr, _, err := s.revalidate(ctx, s.home, path, knownVersion)
	if err == nil {
		s.observe(ctx, "core.revalidate", rr.Source, clock.Since(s.cfg.Clock, start), rendered(rr))
	}
	return rr, err
}

// Blocks is the first-party answer: u's fragments for names, one per
// name in order.
func (s *Service) Blocks(ctx context.Context, names []string, u *session.User) ([][]byte, error) {
	start := s.cfg.Clock.Now()
	frs, _, err := s.blocks(ctx, names, u)
	if err == nil {
		s.observe(ctx, "core.blocks", proxy.SourceOrigin, clock.Since(s.cfg.Clock, start), false)
	}
	return frs, err
}

// observe records the time d of one answer from src: the core.* span on
// whatever trace rides the ctx (the device's own page-load trace
// in-process, the server's http.* trace over the wire; a nil-safe no-op
// otherwise) and, for a fetched page (a CDN hit or an origin render), the
// fetch counter and fetch_latency_us.
func (s *Service) observe(ctx context.Context, span string, src proxy.Source, d time.Duration, fetched bool) {
	if fetched {
		i := fetchOrigin
		if src == proxy.SourceCDN {
			i = fetchCDN
		}
		s.m.fetches[i].Inc()
		s.m.fetchLatency[i].ObserveDuration(d)
	}
	obs.TraceFromContext(ctx).AddSpan(span, src.String(), d)
}

// rendered reports whether a revalidation was answered by a full origin
// render, which counts as a page fetch.
func rendered(rr proxy.RevalidationResult) bool {
	return rr.Source == proxy.SourceOrigin && !rr.NotModified
}

// --- the work ----------------------------------------------------------------
//
// Each body does one call's work: fault injection, the CDN lookup, the
// render and fill, the sketch report and the counters. None draws time:
// each returns the latency spike an injected Latency fault adds, which
// only a simulated device's modelled time can carry.

// sketchSnapshot takes the sketch a device downloads, and the size of its
// encoding, which the generation caches: WriteHTTP sends these same bytes.
func (s *Service) sketchSnapshot(ctx context.Context) (*cachesketch.Snapshot, int, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	spike, err := s.inject(faults.SketchFetch)
	if err != nil {
		return nil, 0, 0, err
	}
	sn := s.kernel.Snapshot()
	wire, err := sn.Marshal()
	if err != nil {
		return nil, 0, 0, err
	}
	s.stats.sketchFetches.Add(1)
	s.m.sketchFetches.Inc()
	return sn, len(wire), spike, nil
}

// page serves the anonymous page through edge (none: straight from the
// origin), filling it and reporting the cache fill to the sketch server
// on a miss. An edge copy of another epoch is a miss: only its own
// epoch's expiration table knew it, so no write since has purged it.
func (s *Service) page(ctx context.Context, edge *cdn.Edge, path string) (cache.Entry, proxy.Source, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return cache.Entry{}, 0, 0, err
	}
	spike, err := s.inject(faults.OriginFetch)
	if err != nil {
		return cache.Entry{}, 0, 0, err
	}
	if edge != nil {
		if e, ok := edge.Lookup(path, s.kernel.Epoch()); ok {
			return e, proxy.SourceCDN, spike, nil
		}
	}
	// The miss keeps the path in every tier that tracks it, so it keeps a
	// copy: the caller's may be a window onto a request line
	// (httpbody.PathParam), which would stay alive as long as the key.
	e, err := s.fetchFromOrigin(edge, strings.Clone(path))
	if err != nil {
		return cache.Entry{}, 0, 0, err
	}
	return e, proxy.SourceOrigin, spike, nil
}

// fetchFromOrigin renders the page at the origin, fills edge (if any),
// and reports the cache fill to the kernel.
func (s *Service) fetchFromOrigin(edge *cdn.Edge, path string) (cache.Entry, error) {
	page, err := s.origin.Render(path)
	if err != nil {
		return cache.Entry{}, err
	}
	s.stats.originRenders.Add(1)
	if s.cfg.TTLSource == nil {
		_ = s.kernel.RecordRead(path)
	}
	// Record the initial version so the staleness instrumentation can
	// judge later reads even for never-written pages. If a write has
	// stamped a newer one in the meantime, the log drops this stamp.
	if s.verlog.CurrentVersion(path, s.cfg.Clock.Now()) == 0 {
		s.verlog.RecordWrite(path, page.Version, s.cfg.Clock.Now())
	}

	ttlDur := s.ttlSrc.TTL(path)
	entry := cache.TTLEntry(s.cfg.Clock, path, page.Body, page.Version, ttlDur)
	entry.Metadata = proxy.EntryMetadata(page.Blocks, page.Links)
	// The epoch whose expiration table the report below reaches: an edge
	// copy answers with it for as long as it is held.
	entry.Epoch = s.kernel.Epoch()
	if edge != nil {
		edge.Fill(entry)
	}
	// One report covers every downstream cache of this response: they all
	// share the entry's absolute expiration.
	_ = s.kernel.ReportFill(path, entry.ExpiresAt)
	// A write that landed between the render and the fill ran its
	// pipeline too early: the purge found no copy and the sketch did not
	// track the page yet, so nothing would flag the superseded copy that
	// has just been cached. Now that it is tracked, run the pipeline for
	// it again.
	if s.origin.Version(path) != page.Version {
		s.handleInvalidation(path)
	}
	return entry, nil
}

// revalidate is a conditional fetch carrying the client's held version.
// The request goes through the CDN — the sketch exists to govern the
// caches that purges cannot reach (device caches); the edge itself is
// purge-maintained, so a strictly newer edge copy of the current epoch is
// trustworthy and answers the revalidation at edge latency. Only when the
// edge cannot prove progress (no copy, a copy of another epoch, or a copy
// at the client's own version — possibly the pre-purge body inside the
// propagation window) does the
// request fall through to the origin, which answers 304 when the version
// is still current and a page stands behind it (the version of a path
// nobody wrote is 1 too; such a request takes the full fetch and its
// error, and nothing is tracked for it). The residual staleness an edge
// answer can carry is bounded by the purge propagation delay
// (milliseconds), far inside every Δ.
func (s *Service) revalidate(ctx context.Context, edge *cdn.Edge, path string, knownVersion uint64) (proxy.RevalidationResult, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return proxy.RevalidationResult{}, 0, err
	}
	spike, err := s.inject(faults.OriginFetch)
	if err != nil {
		return proxy.RevalidationResult{}, 0, err
	}
	if edge != nil {
		if e, ok := edge.Lookup(path, s.kernel.Epoch()); ok && e.Version > knownVersion {
			s.m.revalidations[revalEdge].Inc()
			return proxy.RevalidationResult{Entry: e, Source: proxy.SourceCDN}, spike, nil
		}
	}
	current := s.origin.Version(path)
	if current == knownVersion && s.origin.Serves(path) {
		ttlDur := s.ttlSrc.TTL(path)
		entry := cache.TTLEntry(s.cfg.Clock, path, nil, knownVersion, ttlDur)
		entry.Epoch = s.kernel.Epoch()
		_ = s.kernel.ReportFill(path, entry.ExpiresAt)
		s.m.revalidations[revalNotModified].Inc()
		return proxy.RevalidationResult{NotModified: true, Entry: entry, Source: proxy.SourceOrigin}, spike, nil
	}
	entry, err := s.fetchFromOrigin(edge, path)
	if err != nil {
		return proxy.RevalidationResult{}, 0, err
	}
	s.m.revalidations[revalFull].Inc()
	return proxy.RevalidationResult{Entry: entry, Source: proxy.SourceOrigin}, spike, nil
}

// blocks renders u's personalized fragments at the origin, one per name
// in order: the first-party channel bypasses the CDN.
func (s *Service) blocks(ctx context.Context, names []string, u *session.User) ([][]byte, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	spike, err := s.inject(faults.OriginFetch)
	if err != nil {
		return nil, 0, err
	}
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = s.origin.RenderBlock(n, u)
	}
	s.stats.blockFetches.Add(1)
	s.m.blockFetches.Inc()
	return out, spike, nil
}

// EraseUser implements the right to erasure (GDPR Art. 17) for the
// service side: the consent ledger forgets the user, and any server-side
// personal documents keyed by the user are deleted. Device-local state
// (cart, history) lives only on the user's device, so nothing else needs
// erasing — the architectural point of the client proxy.
func (s *Service) EraseUser(u *session.User) {
	if u == nil {
		return
	}
	s.consent.Erase(u.ID)
	// Server-side personal collections, if the deployment created any.
	for _, coll := range []string{"orders", "profiles"} {
		_ = s.docs.Delete(coll, u.ID)
	}
	u.ClearCart()
}

// Warm pre-renders the given paths into the home PoP the server's calls
// read, so the first real visitors hit a warm cache — the deploy-time
// bootstrap a production rollout runs before shifting traffic. Each path
// is filled as a miss fills it. Unknown paths are skipped and reported;
// rendering errors for routed paths abort.
func (s *Service) Warm(paths []string) (warmed int, skipped []string, err error) {
	for _, path := range paths {
		if !s.origin.HasRoute(path) {
			skipped = append(skipped, path)
			continue
		}
		if _, rerr := s.fetchFromOrigin(s.home, path); rerr != nil {
			return warmed, skipped, fmt.Errorf("core: warm %s: %w", path, rerr)
		}
		warmed++
	}
	return warmed, skipped, nil
}

// --- component accessors ----------------------------------------------------

// Docs returns the document store.
func (s *Service) Docs() *storage.DocumentStore { return s.docs }

// Origin returns the origin server.
func (s *Service) Origin() *origin.Server { return s.origin }

// CDN returns the edge network.
func (s *Service) CDN() *cdn.CDN { return s.cdnNet }

// Kernel returns the coherence kernel.
func (s *Service) Kernel() Kernel { return s.kernel }

// SketchServer returns the sketch server of the node NewService built
// (nil when a Kernel was given).
func (s *Service) SketchServer() *cachesketch.Server {
	if s.node == nil {
		return nil
	}
	return s.node.Sketch()
}

// Estimator returns the adaptive TTL estimator of the node NewService
// built (nil when a static source or a Kernel was given).
func (s *Service) Estimator() *ttl.Estimator {
	if s.node == nil || s.cfg.TTLSource != nil {
		return nil
	}
	return s.node.Estimator()
}

// VersionLog returns the staleness instrumentation.
func (s *Service) VersionLog() *cachesketch.VersionLog { return s.verlog }

// Auditor returns the shared GDPR flow auditor.
func (s *Service) Auditor() *gdpr.Auditor { return s.auditor }

// Consent returns the shared consent ledger.
func (s *Service) Consent() *gdpr.ConsentLedger { return s.consent }

// Clock returns the shared clock.
func (s *Service) Clock() clock.Clock { return s.cfg.Clock }

// Delta returns the configured staleness bound.
func (s *Service) Delta() time.Duration { return s.cfg.Delta }

// SketchMaxAge is how long a holder may trust a sketch the service hands
// out: Δ less the kernel's Lag, so that a write the kernel took is in
// every trusted sketch within Δ. Δ itself for a one-node kernel.
func (s *Service) SketchMaxAge() time.Duration { return s.cfg.Delta - s.kernel.Lag() }

// Obs returns the metrics registry the deployment's instruments register
// under (never nil after NewService).
func (s *Service) Obs() *obs.Registry { return s.cfg.Obs }

// Tracer returns the shared request tracer (nil when tracing is off).
func (s *Service) Tracer() *obs.Tracer { return s.cfg.Tracer }

// SLO returns the Δ-budget SLO tracker (nil when SLO telemetry is off).
func (s *Service) SLO() *obs.DeltaSLO { return s.cfg.SLO }

// Durable returns the durability store (nil when the service runs
// memory-only).
func (s *Service) Durable() *durable.Store { return s.cfg.Durable }

// Recovery reports how the durable store rebuilt state, at construction
// or at the last RecoverDurable, and any recovery error. The zero
// RecoveryInfo with a nil error means the service runs memory-only, or
// on a Kernel it was given, whose nodes report their own.
func (s *Service) Recovery() (durable.RecoveryInfo, error) {
	if s.node == nil {
		return durable.RecoveryInfo{}, nil
	}
	return s.node.Recovery()
}

// RecoverDurable restarts the node in place (cluster.Node.Recover) — the
// in-process analogue of a process restart, used by the crash harness
// after an injected kill.
func (s *Service) RecoverDurable() (durable.RecoveryInfo, error) {
	if s.node == nil || s.cfg.Durable == nil {
		return durable.RecoveryInfo{}, fmt.Errorf("core: no durable store configured")
	}
	return s.node.Recover()
}

// Stats returns a copy of the service counters. Each is read on its own:
// a copy taken while requests run is not one instant's, which no reader
// needs — they compare totals at rest or successive readings.
func (s *Service) Stats() Stats {
	return Stats{
		Invalidations:    s.stats.invalidations.Load(),
		SketchFetches:    s.stats.sketchFetches.Load(),
		OriginRenders:    s.stats.originRenders.Load(),
		BlockFetches:     s.stats.blockFetches.Load(),
		FaultsInjected:   s.stats.faultsInjected.Load(),
		Redeliveries:     s.stats.redeliveries.Load(),
		ForcedDeliveries: s.stats.forcedDeliveries.Load(),
	}
}
