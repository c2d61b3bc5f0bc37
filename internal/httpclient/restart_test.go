package httpclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/proxy"
)

// TestRestartedServerBehindEdgeAndDevice is the memory-only restart: the
// server comes back with an empty expiration table and a generation
// counting from zero, while an edge and a device still hold copies it
// served before. A write to such a page is one no cache holds, as far as
// the restarted server knows: it sends no purge, and its sketch never
// flags the page. Past Δ both holders must nonetheless read the new
// version — because the restarted server's sketch carries a new epoch,
// and neither holder trusts a copy it stored under another. That holds
// for a device that held the old epoch's sketch, and for one that stored
// its copy before it held any: the page answer stated the old epoch, and
// the device's first sketch, of the new one, does not vouch for it.
func TestRestartedServerBehindEdgeAndDevice(t *testing.T) {
	for _, row := range []struct {
		name string
		// sketched: the device revisits the page before the restart, so
		// it holds the old epoch's sketch.
		sketched bool
	}{
		{"device held the old sketch", true},
		{"device stored the page sketch-less", false},
	} {
		t.Run(row.name, func(t *testing.T) { restartBehindEdgeAndDevice(t, row.sketched) })
	}
}

func restartBehindEdgeAndDevice(t *testing.T, sketched bool) {
	const delta = 30 * time.Second
	const path = "/product/p00004"
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	storefront := func() *core.Service {
		svc, err := core.NewStorefront(core.StorefrontConfig{
			Config:   core.Config{Clock: clk, Delta: delta, Seed: 1},
			Products: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	// One listener for both incarnations, so the edge's upstream does not
	// move when the server restarts.
	var current atomic.Pointer[http.Handler]
	serve := func(svc *core.Service) {
		h := httpapi.New(svc, nil).Handler()
		current.Store(&h)
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	}))
	defer origin.Close()

	ed, _, err := edge.New(edge.Options{Upstream: origin.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	edgeSrv := httptest.NewServer(ed.Handler())
	defer edgeSrv.Close()
	// Purges reach the edge from the server's purge listener, as the load
	// harness wires it, counted: the write after the restart must send
	// none, so only the new epoch can bring the edge the new version.
	var purges atomic.Int64
	notify := func(svc *core.Service) {
		svc.OnPurge(func(p string) {
			purges.Add(1)
			ed.Purge(p)
		})
	}
	tr := NewDirect(edgeSrv.URL, edgeSrv.Client())
	tr.clk = clk
	device := proxy.NewSplit(proxy.Config{Delta: delta, Clock: clk}, tr, tr)
	ctx := context.Background()

	before := storefront()
	notify(before)
	serve(before)
	if err := ed.RefreshSketch(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := device.Load(ctx, path); err != nil || res.Version != 1 || res.SketchRefreshed {
		t.Fatalf("first load: v%d, sketch refreshed %v, %v; want v1 without a sketch", res.Version, res.SketchRefreshed, err)
	}
	if sketched {
		if res, err := device.Load(ctx, path); err != nil || !res.SketchRefreshed || res.Source != proxy.SourceDevice {
			t.Fatalf("revisit: %+v, %v; want the device under the old epoch's sketch", res, err)
		}
	}

	// The restart: nothing of the first incarnation survives.
	clk.Advance(time.Second)
	before.Close()
	after := storefront()
	defer after.Close()
	notify(after)
	serve(after)
	if err := ed.RefreshSketch(ctx); err != nil { // the edge's next poll
		t.Fatal(err)
	}
	if err := after.Docs().Patch("products", "p00004", map[string]any{"price": 3.33}); err != nil {
		t.Fatal(err)
	}
	if n := purges.Load(); n != 0 {
		t.Errorf("the write sent %d purges for a page the restarted server never saw cached", n)
	}

	clk.Advance(delta + time.Second)
	res, err := device.Load(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || !res.SketchRefreshed {
		t.Fatalf("device read v%d past Δ after the write, want 2 (source %v, revalidated %v, sketch refreshed %v)",
			res.Version, res.Source, res.Revalidated, res.SketchRefreshed)
	}
	resp, err := http.Get(edgeSrv.URL + "/v1/page?path=" + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if etag := resp.Header.Get("ETag"); etag != `"v2"` {
		t.Fatalf("edge served %s past Δ after the write (%s), want \"v2\"", etag, resp.Header.Get("X-Edge-Cache"))
	}
}

// TestMaxAgeZeroIsExpired: any max-age is the copy's freshness, zero
// included; only a response without one leaves the copy to the sketch.
func TestMaxAgeZeroIsExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	for cc, want := range map[string]time.Time{
		"public, max-age=5": now.Add(5 * time.Second),
		"max-age=0":         now,
		"public":            {},
		"":                  {},
	} {
		if got := expiresAt(http.Header{"Cache-Control": {cc}}, now); !got.Equal(want) {
			t.Errorf("Cache-Control %q: expires %v, want %v", cc, got, want)
		}
	}

	// Over the wire, both answers a page request gets: the 200 and the 304.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "public, max-age=0")
		w.Header().Set("ETag", `"v1"`)
		if r.Header.Get("If-None-Match") != "" {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte("page"))
	}))
	defer srv.Close()
	tr := NewDirect(srv.URL, srv.Client())
	e, _, err := tr.Fetch(context.Background(), "/p")
	if err != nil {
		t.Fatal(err)
	}
	if e.ExpiresAt.IsZero() || e.ExpiresAt.After(e.StoredAt) {
		t.Fatalf("a max-age=0 page stored at %v expires at %v", e.StoredAt, e.ExpiresAt)
	}
	rr, err := tr.Revalidate(context.Background(), "/p", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.NotModified || rr.Entry.ExpiresAt.IsZero() || rr.Entry.ExpiresAt.After(rr.Entry.StoredAt) {
		t.Fatalf("a max-age=0 304 renewed the copy to %v (stored %v)", rr.Entry.ExpiresAt, rr.Entry.StoredAt)
	}
}
