// Package speedkit is the public API of the Speed Kit reproduction: a
// polyglot, GDPR-compliant architecture for caching personalized web
// content with bounded staleness (Δ-atomicity), as described in
// Wingerath et al., "Speed Kit: A Polyglot & GDPR-Compliant Approach For
// Caching Personalized Content", ICDE 2020.
//
// # Quick start
//
//	svc, err := speedkit.New(speedkit.WithProducts(1000))
//	if err != nil { ... }
//	defer svc.Close()
//
//	user := speedkit.NewUsers(1, 1)[0]
//	device := svc.NewDevice(user, speedkit.RegionEU)
//	page, err := device.Load(ctx, "/product/p00042")
//	fmt.Printf("served from %s in %v\n", page.Source, page.Latency)
//
// The Service bundles the document store (system of record), origin
// server, CDN edges, the Cache Sketch coherence server, the real-time
// invalidation engine, and the adaptive TTL estimator — all driven by one
// injectable clock, so whole deployments run deterministically under
// simulated time. Devices are client proxies (the service-worker
// equivalent) that keep all personal data on-device: pages are cached as
// anonymous shells and personalized locally via dynamic blocks.
//
// # Failure taxonomy
//
// Load takes a context and fails with typed, errors.Is-able errors. The
// families:
//
//   - ErrOffline — the network is unreachable and no offline shell was
//     held. A load that CAN serve from the device instead returns
//     normally with PageLoad.Offline set.
//   - ErrDegraded — the umbrella for resilience give-ups. Its concrete
//     member ErrCircuitOpen (the upstream's circuit breaker is open)
//     matches both itself and ErrDegraded.
//   - ErrUpstream — a transient upstream failure that survived the
//     device's retry budget.
//
// Loads that recover through the degradation ladder (serving a held
// copy within Δ, an offline shell, or locally rendered blocks) succeed
// and name the rung taken in PageLoad.Degraded.
//
// For custom deployments (your own collections, pages, and continuous
// queries) build the pieces directly with NewDocumentStore, NewOrigin,
// ParseQuery, and NewService. The internal packages behind these aliases
// contain the full implementation and its documentation.
package speedkit

import (
	"speedkit/internal/core"
	"speedkit/internal/netsim"
	"speedkit/internal/origin"
	"speedkit/internal/proxy"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
	"speedkit/internal/ttl"
)

// Service is one Speed Kit deployment: origin, CDN, coherence server,
// invalidation pipeline, and TTL estimation behind a single handle.
type Service = core.Service

// Config is the raw storefront configuration struct. The zero value is
// a working simulated deployment: 1000 products, Δ = 60 s, adaptive
// TTLs, three CDN regions. New takes functional options instead; reach
// for Config (via WithConfig) only for settings
// without a dedicated option.
type Config = core.StorefrontConfig

// ServiceConfig is the lower-level configuration embedded in Config, for
// callers assembling custom deployments with NewService.
type ServiceConfig = core.Config

// Device is a simulated user device: the client proxy installed in it
// (the service-worker equivalent), and the load time the simulator
// models for it.
type Device = core.Device

// PageLoad is the result of one device page load.
type PageLoad = proxy.PageLoad

// ResilienceConfig tunes a device's retry/backoff and circuit breakers
// (see ServiceConfig.DeviceResilience).
type ResilienceConfig = proxy.ResilienceConfig

// Typed failure modes, all matchable with errors.Is; see the package
// doc's failure-taxonomy section.
var (
	// ErrOffline: connectivity loss with no offline shell to fall back on.
	ErrOffline = proxy.ErrOffline
	// ErrDegraded: umbrella for resilience give-ups (an open breaker).
	ErrDegraded = proxy.ErrDegraded
	// ErrCircuitOpen: the upstream's circuit breaker rejected the call.
	// Is ErrDegraded.
	ErrCircuitOpen = proxy.ErrCircuitOpen
	// ErrUpstream: a transient upstream failure that survived retries.
	ErrUpstream = proxy.ErrUpstream
)

// DegradeReason names the degradation-ladder rung a successful load took
// (PageLoad.Degraded; empty for full-protocol loads).
type DegradeReason = proxy.DegradeReason

// Degradation-ladder rungs.
const (
	DegradeNone             = proxy.DegradeNone
	DegradeServeStale       = proxy.DegradeServeStale
	DegradeRevalidate       = proxy.DegradeRevalidate
	DegradeOfflineShell     = proxy.DegradeOfflineShell
	DegradeCircuitOpen      = proxy.DegradeCircuitOpen
	DegradeRetriesExhausted = proxy.DegradeRetriesExhausted
	DegradeBlocksLocal      = proxy.DegradeBlocksLocal
)

// Source identifies the tier that served a load (device, CDN, origin).
type Source = proxy.Source

// Serving tiers.
const (
	SourceDevice = proxy.SourceDevice
	SourceCDN    = proxy.SourceCDN
	SourceOrigin = proxy.SourceOrigin
)

// User is the on-device session state personalization runs on.
type User = session.User

// Region locates clients and edges.
type Region = netsim.Region

// Canonical regions.
const (
	RegionEU   = netsim.EU
	RegionUS   = netsim.US
	RegionAPAC = netsim.APAC
)

// DocumentStore is the system of record backing an origin.
type DocumentStore = storage.DocumentStore

// Origin is the first-party web server Speed Kit accelerates.
type Origin = origin.Server

// Query is a declarative read whose result set is cacheable and
// invalidation-tracked.
type Query = query.Query

// Doc is an immutable document as the store holds it and hands it out:
// what DocumentStore.Get and Query return and what a Query matches.
type Doc = query.Doc

// NewDoc freezes fields into the document stored under id ("" for one
// that is stored nowhere). The map stays the caller's.
func NewDoc(id string, fields map[string]any) Doc { return query.NewDoc(id, fields) }

// StaticTTL is a fixed TTL policy for baseline configurations; leave
// Config.TTLSource nil for the adaptive estimator.
type StaticTTL = ttl.Static

// NewService assembles a Service over a custom document store and origin.
// Register the origin's pages before calling this so its listing queries
// are wired into the invalidation engine.
func NewService(cfg ServiceConfig, docs *DocumentStore, org *Origin) *Service {
	return core.NewService(cfg, docs, org)
}

// NewDocumentStore creates an empty document store on the system clock.
// Pass the service's clock instead when running under simulated time.
func NewDocumentStore() *DocumentStore { return storage.NewDocumentStore(nil) }

// NewOrigin creates an origin server over a document store.
func NewOrigin(docs *DocumentStore) *Origin { return origin.NewServer(docs, nil) }

// ParseQuery parses the query syntax used for listing pages, e.g.
//
//	products WHERE category = "shoes" AND price < 100 ORDER BY price LIMIT 24
func ParseQuery(src string) (Query, error) { return query.Parse(src) }

// NewUsers generates a deterministic user population of size n spread
// across the canonical regions: ~60% logged in, ~80% of those consenting
// to personalization.
func NewUsers(seed int64, n int) []*User { return session.Population(seed, n) }
