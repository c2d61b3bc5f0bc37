package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/cluster"
	"speedkit/internal/core"
)

// TestSketchAndHealthOverACluster: a server whose kernel is a cluster
// serves the merged sketch the way it serves a lone node's — a device's
// or an edge's reader takes it unchanged, declared length included — under
// max-age Δ less the cluster's lag, stating the merged epoch; /healthz
// names the members.
func TestSketchAndHealthOverACluster(t *testing.T) {
	const delta = 30 * time.Second
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	nodes := []*cluster.Node{
		cluster.NewNode(cluster.NodeConfig{Member: "node-0", Clock: clk}),
		cluster.NewNode(cluster.NodeConfig{Member: "node-1", Clock: clk}),
	}
	c, err := cluster.New(cluster.Config{Seed: 1, Delta: delta}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clk, Seed: 1, Delta: delta, Kernel: c},
		Products: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(New(svc, nil).Handler())
	defer ts.Close()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A fill, then the write: it enters the sketch of the page's owner,
	// and the merge once the nodes exchange their frames.
	const path = "/product/p00001"
	get("/v1/page?path=" + path).Body.Close()
	resp, err := http.Post(ts.URL+"/v1/write?product=p00001&price=9.99", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "in sketch: true") {
		t.Fatalf("write answer %q: the owner's sketch does not track the write", body)
	}
	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}

	resp = get("/v1/sketch")
	defer resp.Body.Close()
	// One tracked key: the merged filter goes out compacted, not at the
	// size the shards exchange it in. Lag at Δ=30 s: 1 s + 2.5 s.
	if resp.ContentLength != 21 || resp.Header.Get("Cache-Control") != "public, max-age=26" || resp.Header.Get("Age") != "" {
		t.Fatalf("sketch: Content-Length %d, Cache-Control %q, Age %q; want 21, max-age=26, none",
			resp.ContentLength, resp.Header.Get("Cache-Control"), resp.Header.Get("Age"))
	}
	if got, want := resp.Header.Get(cachesketch.EpochHeader), fmt.Sprintf("%016x", c.Epoch()); got != want {
		t.Fatalf("sketch epoch %s, want the merged %s", got, want)
	}
	sn, err := cachesketch.ReadHTTP(resp, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != c.Generation() || !sn.MightBeStale(path) || sn.MightBeStale("/product/p00002") {
		t.Fatalf("sketch over HTTP: generation %d (merged %d), flags the write: %v",
			sn.Generation, c.Generation(), sn.MightBeStale(path))
	}

	var h Health
	resp = get("/healthz")
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || fmt.Sprint(h.Members) != "[node-0 node-1]" || h.SketchTracked != 1 ||
		h.SketchGeneration != c.Generation() || h.SketchEpoch != fmt.Sprintf("%016x", c.Epoch()) {
		t.Fatalf("healthz %+v; want both members, one tracked key, the merged generation and epoch", h)
	}
}
