package httpclient

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/cluster"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// TestEdgeInFrontOfACluster wires the whole deployment on one simulated
// clock: a 3-node memory-only cluster under core.Service, served by
// httpapi, an edge in front of it that learns of writes only from the
// sketch it polls, and a logged-in device behind the edge whose blocks go
// to the origin. Δ is 60 s, so the cluster exchanges frames every 2 s,
// degrades a frame older than 5 s, and /v1/sketch states max-age=53.
//
//   - (a) The worst case of the exchange: a write lands just after a sync
//     round and the edge polls just before the next one, so its sketch is
//     2 s behind the write for all the time it trusts it. Under max-age=Δ
//     the device would read the old version 2 s past Δ; under Δ − sync −
//     frame age it reads the write within Δ.
//   - (b) The written path's owner is killed before the write. The
//     document store took the write, so the server's CDN tier purges it as
//     held and never answers the old version again, and the device reads
//     the write within Δ from the merge the dead shard saturates.
//   - (c) The owner recovers under a new epoch: the merged sketch moves to
//     a new epoch of its own, and the device's next load of a copy stored
//     under the old one revalidates it, once.
func TestEdgeInFrontOfACluster(t *testing.T) {
	const delta = 60 * time.Second
	start := time.Unix(1_000_000, 0)
	clk := clock.NewSimulated(start)
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.NewNode(cluster.NodeConfig{Member: fmt.Sprintf("node-%d", i), Clock: clk})
	}
	c, err := cluster.New(cluster.Config{Seed: 1, Delta: delta}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if sync := c.SyncPeriod(); sync != 2*time.Second || c.Lag() != 7*time.Second {
		t.Fatalf("at Δ=%v the cluster syncs every %v with lag %v, want 2s and 7s", delta, sync, c.Lag())
	}
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clk, Delta: delta, Seed: 1, Kernel: c},
		Products: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	user := &session.User{ID: "u000042", LoggedIn: true, ConsentPersonalization: true}
	user.AddToCart("p00001", 2)
	origin := httptest.NewServer(httpapi.New(svc, []*session.User{user}).Handler())
	defer origin.Close()

	ed, _, err := edge.New(edge.Options{Upstream: origin.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	// Every request the edge takes, body included: none may name the user.
	var mu sync.Mutex
	var atEdge []string
	edgeSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		mu.Lock()
		atEdge = append(atEdge, r.Method+" "+r.URL.String()+" "+string(body))
		mu.Unlock()
		ed.Handler().ServeHTTP(w, r)
	}))
	defer edgeSrv.Close()
	tr := NewBehindEdge(edgeSrv.URL, origin.URL, edgeSrv.Client())
	tr.clk = clk
	device := proxy.NewSplit(proxy.Config{
		User: user, Delta: delta, Clock: clk,
		OriginBlocks: map[string]bool{"reco": true},
	}, tr, tr)
	ctx := context.Background()

	// advanceTo moves the clock to at (since start), running the exchange
	// round of every sync period it passes, as speedkit-server's loop does.
	advanceTo := func(at time.Duration) {
		t.Helper()
		for {
			now := clk.Now().Sub(start)
			next := (now/c.SyncPeriod() + 1) * c.SyncPeriod()
			if next > at {
				clk.Advance(at - now)
				return
			}
			clk.Advance(next - now)
			_ = c.SyncDeltas() // a down member's failed pull is the point
		}
	}
	load := func(path string) proxy.PageLoad {
		t.Helper()
		res, err := device.Load(ctx, path)
		if err != nil {
			t.Fatalf("load %s at +%v: %v", path, clk.Now().Sub(start), err)
		}
		return res
	}
	write := func(id string) time.Duration {
		t.Helper()
		if err := svc.Docs().Patch("products", id, map[string]any{"price": 1.23}); err != nil {
			t.Fatal(err)
		}
		return clk.Now().Sub(start)
	}
	// serverVersion reads path from the server's own CDN tier, as the edge
	// asks for it.
	serverVersion := func(path string) string {
		t.Helper()
		resp, err := http.Get(origin.URL + "/v1/page?path=" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("ETag")
	}
	sketchEpoch := func() string {
		t.Helper()
		resp, err := http.Get(origin.URL + "/v1/sketch")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=53" {
			t.Fatalf("the merged sketch goes out under %q, want max-age Δ − 7 s", cc)
		}
		return resp.Header.Get(cachesketch.EpochHeader)
	}

	if err := c.SyncDeltas(); err != nil {
		t.Fatal(err)
	}
	// pathA is written in (a), pathB in (b); pathC never is.
	const pathA, idA, pathC = "/product/p00004", "p00004", "/product/p00003"
	// The path of (b) lives on another node than the one of (a).
	idB := ""
	for i := 5; i < 20 && idB == ""; i++ {
		if id := fmt.Sprintf("p%05d", i); c.Ring().Owner("/product/"+id) != c.Ring().Owner(pathA) {
			idB = id
		}
	}
	pathB := "/product/" + idB
	// The cart block is checked where the edge relays the shell's block
	// list, on its misses: an edge answer from a stored copy names no
	// blocks (the X-Blocks defect, ROADMAP item 1).
	for _, p := range []string{pathA, pathB, pathC} {
		if res := load(p); res.Version != 1 || !strings.Contains(string(res.Body), `<div class="cart">2 items</div>`) {
			t.Fatalf("first load of %s: v%d, body %q; want v1 with the cart filled", p, res.Version, res.Body)
		}
	}
	oldEpoch := sketchEpoch()

	t.Run("a write is read within Δ", func(t *testing.T) {
		advanceTo(10 * time.Second) // a sync round
		clk.Advance(100 * time.Millisecond)
		wrote := write(idA)
		advanceTo(11900 * time.Millisecond)
		if err := ed.RefreshSketch(ctx); err != nil { // polls the merge of +10 s
			t.Fatal(err)
		}
		clk.Advance(50 * time.Millisecond)
		if res := load(pathA); res.Version != 1 || !res.SketchRefreshed {
			t.Fatalf("load under the edge's sketch: v%d, sketch refreshed %v; want v1 and the edge's sketch", res.Version, res.SketchRefreshed)
		}
		advanceTo(wrote + delta)
		if res := load(pathA); res.Version != 2 {
			t.Fatalf("device read v%d Δ after the write (source %v, revalidated %v), want 2", res.Version, res.Source, res.Revalidated)
		}
	})

	t.Run("the owner is down at the write", func(t *testing.T) {
		owner := c.Node(c.Ring().Owner(pathB))
		if err := owner.Kill(); err != nil {
			t.Fatal(err)
		}
		advanceTo(clk.Now().Sub(start) + time.Second)
		if v := serverVersion(pathB); v != `"v1"` {
			t.Fatalf("the server's CDN tier answers %s before the write", v)
		}
		wrote := write(idB)
		// From the purge's propagation delay (cdn, 10 ms) on.
		for at := wrote + 10*time.Millisecond; at <= wrote+delta; at += 5 * time.Second {
			advanceTo(at)
			if v := serverVersion(pathB); v != `"v2"` {
				t.Fatalf("the server's CDN tier answers %s %v after the write", v, at-wrote)
			}
		}
		if res := load(pathB); res.Version != 2 {
			t.Fatalf("device read v%d Δ after a write its owner missed (source %v, revalidated %v), want 2", res.Version, res.Source, res.Revalidated)
		}
	})

	t.Run("the owner recovers under a new epoch", func(t *testing.T) {
		owner := c.Node(c.Ring().Owner(pathB))
		if _, err := owner.Recover(); err != nil {
			t.Fatal(err)
		}
		advanceTo(clk.Now().Sub(start) + c.SyncPeriod())
		if e := sketchEpoch(); e == oldEpoch {
			t.Fatalf("the merged sketch kept epoch %s through the owner's recovery", e)
		}
		// Past the device's trust in its sketch of the old epoch.
		advanceTo(clk.Now().Sub(start) + delta)
		if res := load(pathC); !res.SketchRefreshed || !res.Revalidated || res.Version != 1 {
			t.Fatalf("first load of %s under the new epoch: refreshed %v, revalidated %v, v%d; want a refreshed sketch and a revalidation of v1",
				pathC, res.SketchRefreshed, res.Revalidated, res.Version)
		}
		if res := load(pathC); res.Revalidated || res.Source != proxy.SourceDevice {
			t.Fatalf("second load of %s under the new epoch: revalidated %v, source %v; want the device's copy as it is",
				pathC, res.Revalidated, res.Source)
		}
	})

	mu.Lock()
	defer mu.Unlock()
	for _, req := range atEdge {
		if strings.Contains(req, user.ID) {
			t.Fatalf("the edge saw the user ID: %s", req)
		}
	}
}
