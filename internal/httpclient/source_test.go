package httpclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/proxy"
)

// TestEdgeAnswerSource: through a real edge, a hit is the CDN's answer,
// though the edge states no X-Served-By on it, and so is a 304 the edge
// answers from its copy; a miss is whatever the origin's X-Served-By says
// it was, relayed: the origin's render on a cold server, the server's own
// cdn tier once that holds the page. A device counts its load by the same
// source.
func TestEdgeAnswerSource(t *testing.T) {
	const path = "/product/p00003"
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clk, Delta: 30 * time.Second, Seed: 1},
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
	if err != nil || src != proxy.SourceOrigin {
		t.Fatalf("cold fetch: source %v, %v; want %v relayed from the server", src, err, proxy.SourceOrigin)
	}
	if _, src, err := tr.Fetch(ctx, path); err != nil || src != proxy.SourceCDN {
		t.Fatalf("edge hit: source %v, %v; want %v", src, err, proxy.SourceCDN)
	}
	if rr, err := tr.Revalidate(ctx, path, e.Version); err != nil || !rr.NotModified || rr.Source != proxy.SourceCDN {
		t.Fatalf("revalidation the edge answers: %+v, %v; want a 304 from %v", rr, err, proxy.SourceCDN)
	}
	ed.Purge(path)
	if _, src, err := tr.Fetch(ctx, path); err != nil || src != proxy.SourceCDN {
		t.Fatalf("edge miss on a page the server's cdn tier holds: source %v, %v; want %v relayed", src, err, proxy.SourceCDN)
	}
	if s := ed.Stats(); s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("edge stats %+v, want 2 hits and 2 misses", s)
	}

	device := proxy.NewSplit(proxy.Config{Delta: 30 * time.Second, Clock: clk}, tr, tr)
	if res, err := device.Load(ctx, path); err != nil || res.Source != proxy.SourceCDN {
		t.Fatalf("a device's load of an edge hit: %+v, %v; want source %v", res, err, proxy.SourceCDN)
	}
}

func TestSourceFromHeader(t *testing.T) {
	for _, c := range []struct {
		edge, servedBy string
		want           proxy.Source
	}{
		{"", "cdn", proxy.SourceCDN},
		{"", "device", proxy.SourceDevice},
		{"", "origin", proxy.SourceOrigin},
		{"", "", proxy.SourceOrigin},
		{"hit", "", proxy.SourceCDN},
		{"revalidated", "", proxy.SourceCDN},
		{"stale", "", proxy.SourceCDNStale},
		{"miss", "origin", proxy.SourceOrigin},
		{"miss", "cdn", proxy.SourceCDN},
		{"coalesced", "origin", proxy.SourceOrigin},
	} {
		h := http.Header{}
		if c.edge != "" {
			h.Set("X-Edge-Cache", c.edge)
		}
		if c.servedBy != "" {
			h.Set("X-Served-By", c.servedBy)
		}
		if got := source(h); got != c.want {
			t.Errorf("X-Edge-Cache %q, X-Served-By %q: source %v, want %v", c.edge, c.servedBy, got, c.want)
		}
	}
}
