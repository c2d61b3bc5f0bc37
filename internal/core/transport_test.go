package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

func TestServiceRevalidateNotModified(t *testing.T) {
	svc, _ := newTestStorefront(t)
	// Prime the version log and caches.
	if _, _, _, err := svc.Fetch(context.Background(), netsim.EU, "/product/p00001"); err != nil {
		t.Fatal(err)
	}
	rr, _, err := svc.Revalidate(context.Background(), netsim.EU, "/product/p00001", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.NotModified {
		t.Fatal("unchanged version not 304")
	}
	if len(rr.Entry.Body) != 0 {
		t.Fatal("304 carried a body")
	}
	if rr.Entry.ExpiresAt.IsZero() {
		t.Fatal("304 did not renew expiration")
	}
	// The renewed residency is visible to the sketch server: a write now
	// must track the resource until the renewed expiry.
	_ = svc.Docs().Patch("products", "p00001", map[string]any{"stock": int64(1)})
	if !svc.SketchServer().Contains("/product/p00001") {
		t.Fatal("renewed residency not reported to sketch server")
	}
}

func TestServiceRevalidateModifiedBypassesStaleEdge(t *testing.T) {
	svc, _ := newTestStorefront(t)
	if _, _, _, err := svc.Fetch(context.Background(), netsim.EU, "/product/p00002"); err != nil {
		t.Fatal(err)
	}
	// Write; do NOT advance the clock, so the CDN purge has not
	// propagated and the edge still holds v1.
	_ = svc.Docs().Patch("products", "p00002", map[string]any{"price": 3.33})
	if _, ok := svc.CDN().Edge(netsim.EU).Lookup("/product/p00002"); !ok {
		t.Skip("edge already purged; propagation-window scenario not reproducible")
	}
	rr, _, err := svc.Revalidate(context.Background(), netsim.EU, "/product/p00002", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.NotModified {
		t.Fatal("changed version reported unmodified")
	}
	if rr.Entry.Version != 2 {
		t.Fatalf("revalidation served v%d from the stale edge", rr.Entry.Version)
	}
	if !strings.Contains(string(rr.Entry.Body), "3.33") {
		t.Fatal("revalidation body stale")
	}
}

func TestRevalidationServedByFresherEdgeCopy(t *testing.T) {
	svc, clk := newTestStorefront(t)
	path := "/product/p00004"
	if _, _, _, err := svc.Fetch(context.Background(), netsim.EU, path); err != nil {
		t.Fatal(err)
	}
	_ = svc.Docs().Patch("products", "p00004", map[string]any{"price": 5.55})
	clk.Advance(20 * time.Millisecond) // purge propagates; edge empty

	// First revalidation falls through to the origin and refills the edge.
	rr, _, err := svc.Revalidate(context.Background(), netsim.EU, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Source != proxy.SourceOrigin || rr.Entry.Version != 2 {
		t.Fatalf("first revalidation: %+v", rr)
	}
	// Subsequent revalidations from clients still holding v1 are answered
	// by the purge-maintained edge at edge latency — the behaviour that
	// keeps flagged-path traffic off the origin.
	rr, _, err = svc.Revalidate(context.Background(), netsim.EU, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Source != proxy.SourceCDN || rr.Entry.Version != 2 {
		t.Fatalf("second revalidation: source=%v v%d, want CDN v2", rr.Source, rr.Entry.Version)
	}
}

func TestServiceRevalidateUnknownPath(t *testing.T) {
	svc, _ := newTestStorefront(t)
	if _, _, err := svc.Revalidate(context.Background(), netsim.EU, "/ghost", 1); err == nil {
		t.Fatal("unknown path revalidated")
	}
}

func TestServiceFetchBlocks(t *testing.T) {
	svc, _ := newTestStorefront(t)
	u := testUser()
	frs, lat, err := svc.FetchBlocks(context.Background(), netsim.APAC, []string{"cart", "greeting"}, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 2 {
		t.Fatalf("fragments = %v", frs)
	}
	if !strings.Contains(string(frs["cart"]), "2 items") {
		t.Fatalf("cart = %s", frs["cart"])
	}
	// First-party channel pays the client→origin RTT (APAC ≈ 260ms).
	if lat < 100_000_000 {
		t.Fatalf("APAC block fetch latency %v suspiciously low", lat)
	}
	if svc.Stats().BlockFetches != 1 {
		t.Fatal("block fetch not counted")
	}
}

func TestWarmFillsAllEdges(t *testing.T) {
	svc, _ := newTestStorefront(t)
	warmed, skipped, err := svc.Warm([]string{"/", "/product/p00001", "/ghost", "/category/shoes"})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 3 || len(skipped) != 1 || skipped[0] != "/ghost" {
		t.Fatalf("warmed=%d skipped=%v", warmed, skipped)
	}
	// Every region serves warmed paths from the edge now.
	for _, region := range netsim.Regions() {
		dev := svc.NewDevice(nil, region)
		res, err := dev.Load(context.Background(), "/product/p00001")
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != proxy.SourceCDN {
			t.Fatalf("%s: warmed path served from %v", region, res.Source)
		}
	}
	// Warmed copies are sketch-visible: a write must enter the sketch.
	_ = svc.Docs().Patch("products", "p00001", map[string]any{"stock": int64(0)})
	if !svc.SketchServer().Contains("/product/p00001") {
		t.Fatal("warm fill not reported to sketch server")
	}
}

func TestWarmRenderErrorAborts(t *testing.T) {
	svc, _ := newTestStorefront(t)
	// Routed but unrenderable: product route with missing document.
	if _, _, err := svc.Warm([]string{"/product/doesnotexist"}); err == nil {
		t.Fatal("render failure swallowed")
	}
}

// A revalidation is answered "not modified" only for a page the origin
// would render: the version of a path nobody wrote is 1, so without the
// existence check any client could mint tracked (and journaled) keys with
// a bodiless request.
func TestRevalidateGhostPathNotFound(t *testing.T) {
	svc, _ := newTestStorefront(t)
	ctx := context.Background()
	if _, _, _, err := svc.Fetch(ctx, netsim.EU, "/product/p00001"); err != nil {
		t.Fatal(err)
	}
	before := svc.SketchServer().Stats().TableSize
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("/product/ghost-%d", i)
		if res, _, err := svc.Revalidate(ctx, netsim.EU, path, 1); err == nil {
			t.Fatalf("Revalidate(%s, 1) = %+v, want an error", path, res)
		}
	}
	if got := svc.SketchServer().Stats().TableSize; got != before {
		t.Fatalf("expiry table %d → %d entries after ghost revalidations", before, got)
	}
	// A real page still gets its 304, and is (still) tracked.
	res, _, err := svc.Revalidate(ctx, netsim.EU, "/product/p00001", 1)
	if err != nil || !res.NotModified {
		t.Fatalf("real page: %+v, %v", res, err)
	}
}

// A page whose product is deleted between two revalidations of one device
// stops existing for that device too: the second answer is the 404.
func TestRevalidateDeletedProductNotFound(t *testing.T) {
	svc, _ := newTestStorefront(t)
	ctx := context.Background()
	const path = "/product/p00002"
	e, _, _, err := svc.Fetch(ctx, netsim.EU, path)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := svc.Revalidate(ctx, netsim.EU, path, e.Version); err != nil || !res.NotModified {
		t.Fatalf("first revalidation: %+v, %v", res, err)
	}
	if err := svc.Docs().Delete("products", "p00002"); err != nil {
		t.Fatal(err)
	}
	// Whatever version the device holds — the one it fetched, or the one
	// the delete moved the page to — there is no page to confirm.
	for _, known := range []uint64{e.Version, svc.Origin().Version(path)} {
		if res, _, err := svc.Revalidate(ctx, netsim.EU, path, known); err == nil {
			t.Fatalf("Revalidate(v%d) after delete = %+v, want an error", known, res)
		}
	}
}

func TestServiceAccessors(t *testing.T) {
	svc, clk := newTestStorefront(t)
	if svc.Engine() == nil || svc.Network() == nil || svc.Clock() != clk {
		t.Fatal("accessors broken")
	}
	if svc.Engine().Registered() == 0 {
		t.Fatal("no query pages registered with the engine")
	}
}

func TestLegacyKeyShapes(t *testing.T) {
	u := testUser()
	k1 := legacyKey(u, "/p")
	u.AddToCart("x", 1)
	k2 := legacyKey(u, "/p")
	if k1 == k2 {
		t.Fatal("cart change did not change the legacy cache key")
	}
	anon := legacyKey(nil, "/p")
	loggedOut := legacyKey(&session.User{ID: "u9"}, "/p")
	if anon != loggedOut {
		t.Fatal("anonymous and logged-out keys differ")
	}
	if !strings.Contains(anon, "anon") {
		t.Fatalf("anon key = %s", anon)
	}
	_ = proxy.SourceCDN // keep import for the transport-typed API surface
}
