package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/gdpr"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/workload"
)

func newTestStorefront(t *testing.T) (*Service, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	svc, err := NewStorefront(StorefrontConfig{
		Config:   Config{Clock: clk, Seed: 1, Delta: 30 * time.Second},
		Products: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, clk
}

func testUser() *session.User {
	u := &session.User{ID: "u1", Name: "Ada", Email: "ada@example.com",
		LoggedIn: true, Tier: "gold", ConsentPersonalization: true, Region: netsim.EU}
	u.AddToCart(workload.ProductID(5), 2)
	return u
}

func TestEndToEndPersonalizedPageLoad(t *testing.T) {
	svc, _ := newTestStorefront(t)
	dev := svc.NewDevice(testUser(), netsim.EU)

	res, err := dev.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(res.Body)
	if !strings.Contains(body, "Welcome back, Ada!") {
		t.Fatalf("greeting missing: %s", body)
	}
	if !strings.Contains(body, "2 items") {
		t.Fatalf("cart missing: %s", body)
	}
	if strings.Contains(body, "<!--block:") {
		t.Fatal("placeholders survived")
	}
	if res.Source != proxy.SourceOrigin {
		t.Fatalf("cold load source = %v", res.Source)
	}
}

func TestCacheTierProgression(t *testing.T) {
	svc, _ := newTestStorefront(t)
	devA := svc.NewDevice(testUser(), netsim.EU)
	devB := svc.NewDevice(nil, netsim.EU)

	// Device A cold: origin. Device A again: its own cache.
	r1, _ := devA.Load(context.Background(), "/product/p00003")
	r2, _ := devA.Load(context.Background(), "/product/p00003")
	// Device B, same region: the edge already holds the shell.
	r3, _ := devB.Load(context.Background(), "/product/p00003")

	if r1.Source != proxy.SourceOrigin || r2.Source != proxy.SourceDevice || r3.Source != proxy.SourceCDN {
		t.Fatalf("tier progression = %v, %v, %v", r1.Source, r2.Source, r3.Source)
	}
	// Latency ordering: device << cdn << origin.
	if !(r2.Latency < r3.Latency && r3.Latency < r1.Latency) {
		t.Fatalf("latency ordering violated: device=%v cdn=%v origin=%v",
			r2.Latency, r3.Latency, r1.Latency)
	}
	// Personalization differs although the shell is shared.
	if string(r1.Body) == string(r3.Body) {
		t.Fatal("different users received identical personalized bodies")
	}
}

func TestWritePipelinePurgesAndSketches(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	path := "/product/p00007"

	if _, err := dev.Load(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	// A price write triggers the pipeline.
	if err := svc.Docs().Patch("products", "p00007", map[string]any{"price": 1.5}); err != nil {
		t.Fatal(err)
	}
	if !svc.SketchServer().Contains(path) {
		t.Fatal("written path missing from sketch")
	}
	// The CDN copy is purged after the propagation delay.
	clk.Advance(20 * time.Millisecond)
	if _, ok := svc.CDN().Edge(netsim.EU).Lookup(path, svc.SketchServer().Epoch()); ok {
		t.Fatal("CDN still serves purged entry")
	}
	if svc.Stats().Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}
}

func TestEndToEndDeltaAtomicity(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	path := "/product/p00011"

	r1, _ := dev.Load(context.Background(), path)
	if r1.Version != 1 {
		t.Fatalf("initial version = %d", r1.Version)
	}
	_ = svc.Docs().Patch("products", "p00011", map[string]any{"price": 2.0})

	// Within Δ the device may serve v1 — measure its staleness stays
	// within the bound.
	clk.Advance(10 * time.Second)
	r2, _ := dev.Load(context.Background(), path)
	stale := svc.VersionLog().Staleness(path, r2.Version, clk.Now())
	if stale > svc.Delta() {
		t.Fatalf("staleness %v exceeds Δ %v", stale, svc.Delta())
	}

	// After Δ the sketch refresh forces revalidation to v2.
	clk.Advance(25 * time.Second)
	r3, _ := dev.Load(context.Background(), path)
	if r3.Version != 2 {
		t.Fatalf("post-Δ version = %d, want 2 (revalidated=%v refreshed=%v)",
			r3.Version, r3.Revalidated, r3.SketchRefreshed)
	}
}

// hookTTL is a TTL source that runs hook when asked for a TTL: the seam
// through which a test lands a write in the middle of a fetch, which
// asks between rendering a page and caching it, holding no lock.
type hookTTL struct {
	ttl  time.Duration
	hook func()
}

func (h *hookTTL) TTL(string) time.Duration {
	if h.hook != nil {
		h.hook()
	}
	return h.ttl
}

// The render/write race: a write lands after the origin rendered a page
// and before the copy is cached, so its purge finds nothing and its
// sketch report is for a page nobody tracks yet. The fetch must notice
// the version moved and run the pipeline again, or the superseded copy
// is served until its TTL with nothing to flag it.
func TestWriteBetweenRenderAndFillIsFlagged(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	ttls := &hookTTL{ttl: 10 * time.Minute}
	svc, err := NewStorefront(StorefrontConfig{
		Config:   Config{Clock: clk, Seed: 1, Delta: 30 * time.Second, TTLSource: ttls},
		Products: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	dev := svc.NewDevice(nil, netsim.EU)
	path := "/product/p00011"

	ttls.hook = func() {
		ttls.hook = nil
		if err := svc.Docs().Patch("products", "p00011", map[string]any{"price": 2.0}); err != nil {
			t.Error(err)
		}
	}
	r1, err := dev.Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version != 1 || svc.Origin().Version(path) != 2 {
		t.Fatalf("served v%d with the origin at v%d: the write did not land inside the fetch",
			r1.Version, svc.Origin().Version(path))
	}

	if !svc.SketchServer().Contains(path) {
		t.Fatal("superseded copy was cached and the sketch does not flag it")
	}
	if v := svc.VersionLog().CurrentVersion(path, clk.Now()); v != 2 {
		t.Fatalf("version log says v%d is current, want 2", v)
	}
	clk.Advance(20 * time.Millisecond)
	if _, ok := svc.CDN().Edge(netsim.EU).Lookup(path, svc.SketchServer().Epoch()); ok {
		t.Fatal("CDN still serves the superseded copy")
	}

	// Within Δ the device may serve v1, stale by no more than Δ; past Δ
	// the sketch refresh forces the revalidation to v2.
	clk.Advance(10 * time.Second)
	r2, _ := dev.Load(context.Background(), path)
	if stale := svc.VersionLog().Staleness(path, r2.Version, clk.Now()); stale > svc.Delta() {
		t.Fatalf("staleness %v exceeds Δ %v", stale, svc.Delta())
	}
	clk.Advance(25 * time.Second)
	r3, _ := dev.Load(context.Background(), path)
	if r3.Version != 2 {
		t.Fatalf("post-Δ version = %d, want 2 (revalidated=%v refreshed=%v)",
			r3.Version, r3.Revalidated, r3.SketchRefreshed)
	}
	// The pipeline ran twice for v2; the log must not read the second
	// run as a write that superseded it.
	clk.Advance(2 * svc.Delta())
	if stale := svc.VersionLog().Staleness(path, 2, clk.Now()); stale != 0 {
		t.Fatalf("current version judged stale by %v", stale)
	}
}

func TestQueryPageInvalidatedByMatchingWrite(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	catPath := workload.CategoryPath(workload.CategoryOf(0)) // p00000's category

	r1, err := dev.Load(context.Background(), catPath)
	if err != nil {
		t.Fatal(err)
	}
	v1 := svc.Origin().Version(catPath)

	// Change a product in that category: the listing's result set changes.
	_ = svc.Docs().Patch("products", "p00000", map[string]any{"price": 0.01})
	if svc.Origin().Version(catPath) != v1+1 {
		t.Fatalf("category version not bumped: %d", svc.Origin().Version(catPath))
	}
	if !svc.SketchServer().Contains(catPath) {
		t.Fatal("category page missing from sketch")
	}

	// Past Δ, the device revalidates and sees the new price.
	clk.Advance(svc.Delta() + time.Second)
	r2, _ := dev.Load(context.Background(), catPath)
	if r2.Version <= r1.Version {
		t.Fatalf("category page version did not advance: %d -> %d", r1.Version, r2.Version)
	}
	if !strings.Contains(string(r2.Body), "0.01") {
		t.Fatal("updated price not in revalidated listing")
	}
}

func TestUnrelatedCategoryNotInvalidated(t *testing.T) {
	svc, _ := newTestStorefront(t)
	other := workload.CategoryPath(workload.CategoryOf(1)) // different category
	dev := svc.NewDevice(nil, netsim.EU)
	_, _ = dev.Load(context.Background(), other)
	_ = svc.Docs().Patch("products", "p00000", map[string]any{"stock": int64(1)})
	if svc.SketchServer().Contains(other) {
		t.Fatal("write invalidated an unrelated category page")
	}
}

func TestSpeedKitLoadsAreGDPRCompliant(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(testUser(), netsim.EU)
	for i := 0; i < 10; i++ {
		_, _ = dev.Load(context.Background(), "/product/p00001")
		clk.Advance(5 * time.Second)
	}
	if !svc.Auditor().Compliant() {
		t.Fatalf("Speed Kit leaked PII to CDN:\n%s", svc.Auditor())
	}
}

func TestLegacyBaselineLeaksPIIAndFragmentsCache(t *testing.T) {
	svc, _ := newTestStorefront(t)
	u1, u2 := testUser(), testUser()
	u2.ID = "u2"

	r1, err := svc.LoadLegacy(u1, netsim.EU, "/product/p00001")
	if err != nil {
		t.Fatal(err)
	}
	// Same user again: CDN hit under the per-user key.
	r2, _ := svc.LoadLegacy(u1, netsim.EU, "/product/p00001")
	// Different user: per-user key misses — the fragmentation cost.
	r3, _ := svc.LoadLegacy(u2, netsim.EU, "/product/p00001")
	if r1.Source != proxy.SourceOrigin || r2.Source != proxy.SourceCDN || r3.Source != proxy.SourceOrigin {
		t.Fatalf("legacy sources = %v, %v, %v", r1.Source, r2.Source, r3.Source)
	}
	// The personalized body was rendered server-side (product pages carry
	// the cart block; u1 has 2 items).
	if !strings.Contains(string(r1.Body), "2 items") {
		t.Fatalf("legacy page not personalized: %s", r1.Body)
	}
	// And the auditor caught the cookie crossing the CDN boundary.
	if svc.Auditor().Compliant() {
		t.Fatal("legacy flow did not register as non-compliant")
	}
	rep := svc.Auditor().Report(gdpr.BoundaryCDN)
	if rep.PIIFieldCount == 0 || rep.RequestsWithPII != 3 {
		t.Fatalf("cdn report = %+v", rep)
	}
}

func TestLoadDirectAlwaysOrigin(t *testing.T) {
	svc, _ := newTestStorefront(t)
	for i := 0; i < 3; i++ {
		r, err := svc.LoadDirect(testUser(), netsim.APAC, "/")
		if err != nil {
			t.Fatal(err)
		}
		if r.Source != proxy.SourceOrigin {
			t.Fatalf("direct load source = %v", r.Source)
		}
		// APAC → EU origin is expensive.
		if r.Latency < 200*time.Millisecond {
			t.Fatalf("APAC direct latency suspiciously low: %v", r.Latency)
		}
	}
}

func TestAdaptiveTTLShrinksForHotWrittenPage(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	hot := "/product/p00002"

	// Drive a write-heavy pattern on one product.
	for i := 0; i < 15; i++ {
		_ = svc.Docs().Patch("products", "p00002", map[string]any{"stock": int64(i)})
		_, _ = dev.Load(context.Background(), hot)
		clk.Advance(20 * time.Second)
	}
	est := svc.Estimator()
	if est == nil {
		t.Fatal("adaptive estimator not installed by default")
	}
	hotTTL := est.TTL(hot)
	coldTTL := est.TTL("/product/p00099")
	if hotTTL >= coldTTL {
		t.Fatalf("hot TTL %v not shorter than cold TTL %v", hotTTL, coldTTL)
	}
}

func TestStaticTTLSourceRespected(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	svc, err := NewStorefront(StorefrontConfig{
		Config:   Config{Clock: clk, Seed: 2, TTLSource: staticTTL(42 * time.Second)},
		Products: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Estimator() != nil {
		t.Fatal("estimator installed despite static source")
	}
	dev := svc.NewDevice(nil, netsim.EU)
	_, _ = dev.Load(context.Background(), "/product/p00001")
	e, ok := svc.CDN().Edge(netsim.EU).Lookup("/product/p00001", svc.SketchServer().Epoch())
	if !ok {
		t.Fatal("edge not filled")
	}
	if got := e.ExpiresAt.Sub(e.StoredAt); got != 42*time.Second {
		t.Fatalf("edge TTL = %v, want 42s", got)
	}
}

func TestFetchUnknownPathErrors(t *testing.T) {
	svc, _ := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	if _, err := dev.Load(context.Background(), "/no/such/page"); err == nil {
		t.Fatal("unknown path loaded")
	}
}

func TestServiceStatsProgress(t *testing.T) {
	svc, _ := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.US)
	_, _ = dev.Load(context.Background(), "/")
	_, _ = dev.Load(context.Background(), "/") // holds a copy: fetches the sketch
	_ = svc.Docs().Patch("products", "p00001", map[string]any{"price": 9.9})
	st := svc.Stats()
	if st.SketchFetches == 0 || st.OriginRenders == 0 || st.Invalidations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEraseUser(t *testing.T) {
	svc, clk := newTestStorefront(t)
	u := testUser()
	_ = svc.NewDevice(u, netsim.EU) // enrollment records consent
	if !svc.Consent().Allowed(u.ID, gdpr.PurposePersonalization) {
		t.Fatal("consent not recorded at enrollment")
	}
	// A server-side personal document exists for this user.
	_ = svc.Docs().Insert("orders", u.ID, map[string]any{"total": 99.0})
	_ = clk

	svc.EraseUser(u)
	if svc.Consent().Allowed(u.ID, gdpr.PurposePersonalization) {
		t.Fatal("consent survived erasure")
	}
	if _, _, err := svc.Docs().Get("orders", u.ID); err == nil {
		t.Fatal("order document survived erasure")
	}
	if u.CartSize() != 0 {
		t.Fatal("device cart survived erasure")
	}
	svc.EraseUser(nil) // must not panic
}

// staticTTL adapts a duration into a ttl.TTLSource for tests.
type staticTTL time.Duration

func (s staticTTL) TTL(string) time.Duration { return time.Duration(s) }
