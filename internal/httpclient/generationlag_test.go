package httpclient

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
)

// TestEdgeStatesItsGenerationLag: the server's sketch generation less the
// one the edge's /metrics states is how far the edge's invalidations lag:
// a write's bump until the edge polls, 0 after. Its sketch age counts from
// the poll.
func TestEdgeStatesItsGenerationLag(t *testing.T) {
	const path = "/product/p00004"
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

	lag := func() (server, lag int64) {
		server = gauge(t, origin.URL, "speedkit_sketch_generation")
		return server, server - gauge(t, edgeSrv.URL, "speedkit_edge_sketch_generation")
	}
	if err := ed.RefreshSketch(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(edgeSrv.URL + "/v1/page?path=" + path) // the edge holds a copy
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	before, l := lag()
	if l != 0 {
		t.Fatalf("lag %d before any write, want 0", l)
	}

	if err := svc.Docs().Patch("products", "p00004", map[string]any{"price": 3.33}); err != nil {
		t.Fatal(err)
	}
	after, l := lag()
	if bump := after - before; bump == 0 || l != bump {
		t.Fatalf("lag %d after a write that bumped the generation by %d, want the bump", l, bump)
	}
	if err := ed.RefreshSketch(ctx); err != nil {
		t.Fatal(err)
	}
	if _, l := lag(); l != 0 {
		t.Fatalf("lag %d after the edge polled, want 0", l)
	}
	clk.Advance(5 * time.Second)
	if age := gauge(t, edgeSrv.URL, "speedkit_edge_sketch_age_seconds"); age != 5 {
		t.Fatalf("sketch age %d s five seconds after the poll", age)
	}
}

// gauge scrapes base's /metrics for the value of the unlabeled series name.
func gauge(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("%s/metrics states no %s", base, name)
	return 0
}
