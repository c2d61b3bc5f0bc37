package httpclient

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/proxy"
)

// TestEdgeStaleServeIsDegraded: an edge cut off from its server stops
// trusting its sketch after Δ and revalidates; with the server down it
// answers from the copy it could not refresh and says so (X-Edge-Cache:
// stale). The transport names that answer SourceCDNStale, on a fetch and
// on a revalidation alike, and a device whose load it answers records the
// load as DegradeServeStale, served by the CDN.
func TestEdgeStaleServeIsDegraded(t *testing.T) {
	const delta = 30 * time.Second
	const path = "/product/p00004"
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clk, Delta: delta, Seed: 1},
		Products: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	origin := httptest.NewServer(httpapi.New(svc, nil).Handler())
	defer origin.Close()
	ed, _, err := edge.New(edge.Options{Upstream: origin.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	edgeSrv := httptest.NewServer(ed.Handler())
	defer edgeSrv.Close()
	ctx := context.Background()
	if err := ed.RefreshSketch(ctx); err != nil {
		t.Fatal(err)
	}
	tr := NewDirect(edgeSrv.URL, edgeSrv.Client())
	tr.clk = clk
	e, src, err := tr.Fetch(ctx, path)
	if err != nil || src == proxy.SourceCDNStale {
		t.Fatalf("filling the edge: source %v, %v", src, err)
	}

	origin.Close()
	clk.Advance(delta)
	if _, src, err := tr.Fetch(ctx, path); err != nil || src != proxy.SourceCDNStale {
		t.Fatalf("fetch from the cut-off edge: source %v, %v; want %v", src, err, proxy.SourceCDNStale)
	}
	if rr, err := tr.Revalidate(ctx, path, e.Version); err != nil || !rr.NotModified || rr.Source != proxy.SourceCDNStale {
		t.Fatalf("revalidation at the cut-off edge: %+v, %v; want a 304 from %v", rr, err, proxy.SourceCDNStale)
	}

	device := proxy.NewSplit(proxy.Config{Delta: delta, Clock: clk}, tr, tr)
	res, err := device.Load(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != proxy.DegradeServeStale || res.Source != proxy.SourceCDN || res.Version != e.Version {
		t.Fatalf("load through the cut-off edge: degraded %q, source %v, v%d; want %q from the CDN, v%d",
			res.Degraded, res.Source, res.Version, proxy.DegradeServeStale, e.Version)
	}
	if s := ed.Stats(); s.ServedStale != 3 || s.Degraded != 3 {
		t.Fatalf("edge stats %+v, want 3 stale serves, each a degraded hit", s)
	}
}
