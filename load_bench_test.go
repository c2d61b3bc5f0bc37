package speedkit_test

// Whole-load benchmarks tracked in BENCH_load.json (the load suite of
// cmd/speedkit-bent), at -cpu 1. Two families, so that a load's cost can
// be split into what net/http charges and what the product adds on top:
//
//   - BenchmarkHop/{hit,page,blocks,sketch}: one request and its answer
//     over one loopback keep-alive connection, from a canned handler that
//     states the headers and body of each answer shape the tiers send.
//     This is the floor no layer of the product can cut.
//   - BenchmarkLoad/{edge_hit,edge_miss,direct_personalized,revalidate}:
//     one proxy.Load through httpclient → edge → httpapi → core over
//     loopback, in one process, as cmd/speedkit-load wires the tiers.
//
// allocs/op counts every goroutine of the process: the client's, the
// listeners' and the handlers'. DESIGN.md, "Where a load goes", sums the
// rows into each topology's load.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpbody"
	"speedkit/internal/httpclient"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// serveLoopback starts h on a loopback port and returns its base URL; the
// listener closes when b ends.
func serveLoopback(b *testing.B, h http.Handler) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: h}}
	srv.Start()
	b.Cleanup(srv.Close)
	return srv.URL
}

// loopbackClient is a client on a transport of its own, so each benchmark
// holds its own keep-alive connections and drops them when it ends.
func loopbackClient(b *testing.B) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	b.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Timeout: 10 * time.Second, Transport: tr}
}

// cannedAnswer is one answer shape: the headers a tier states, each value
// a shared slice as the tiers share theirs, and the body.
type cannedAnswer struct {
	header http.Header
	body   []byte
}

func (c *cannedAnswer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		// A blocks request's body is read whole before it is answered.
		var buf [512]byte
		for {
			if _, err := r.Body.Read(buf[:]); err != nil {
				break
			}
		}
	}
	h := w.Header()
	for k, v := range c.header {
		h[k] = v
	}
	w.Write(c.body)
}

// hopAnswers builds the four answer shapes: an edge hit, the origin's
// page answer an edge or a device reads, the first-party blocks answer and
// the sketch. Page bodies are the size of the storefront's product page.
func hopAnswers(b *testing.B) map[string]*cannedAnswer {
	page := bytes.Repeat([]byte("<p>a storefront product page</p>"), 24)
	length := []string{fmt.Sprint(len(page))}
	epoch := []string{"00000000deadbeef"}
	blocks := httpbody.BlocksResponse([][]byte{[]byte(`<div class="reco">Recently viewed: /product/p00001</div>`)})
	sketch := httptest.NewRecorder()
	srv := cachesketch.NewServer(cachesketch.ServerConfig{Capacity: 1024})
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("/product/p%05d", i)
		srv.ReportCachedRead(k, time.Now().Add(time.Hour))
		srv.ReportWrite(k)
	}
	if err := srv.Snapshot().WriteHTTP(sketch, "public, max-age=30", 0); err != nil {
		b.Fatal(err)
	}
	return map[string]*cannedAnswer{
		"hit": {header: http.Header{
			"Content-Type": {"text/html; charset=utf-8"}, "Content-Length": length, "Etag": {`"v1"`},
			"Cache-Control": {"max-age=60"}, "Age": {"3"}, "X-Edge-Cache": {"hit"}, cachesketch.EpochHeader: epoch,
		}, body: page},
		"page": {header: http.Header{
			"Content-Type": {"text/html; charset=utf-8"}, "Content-Length": length, "Etag": {`"v1"`},
			"Cache-Control": {"public, max-age=60"}, "X-Served-By": {"origin"}, cachesketch.EpochHeader: epoch,
		}, body: page},
		"blocks": {header: http.Header{
			"Content-Type": {"application/octet-stream"}, "Content-Length": {fmt.Sprint(len(blocks))},
			"Cache-Control": {"private, no-store"},
		}, body: blocks},
		"sketch": {header: sketch.Header(), body: sketch.Body.Bytes()},
	}
}

// BenchmarkHop is one request and its answer over one loopback keep-alive
// connection, read as the device transport reads it: the net/http floor
// under every request a load sends.
func BenchmarkHop(b *testing.B) {
	answers := hopAnswers(b)
	blocksReq := httpbody.BlocksRequest("u000001", []string{"reco"})
	for _, shape := range []string{"hit", "page", "blocks", "sketch"} {
		b.Run(shape, func(b *testing.B) {
			base := serveLoopback(b, answers[shape])
			hc := loopbackClient(b)
			method, target := http.MethodGet, base+"/v1/page?path=/product/p00001"
			switch shape {
			case "blocks":
				method, target = http.MethodPost, base+"/v1/blocks"
			case "sketch":
				target = base + "/v1/sketch"
			}
			hop := func() {
				var body io.Reader
				if method == http.MethodPost {
					body = bytes.NewReader(blocksReq)
				}
				req, err := http.NewRequestWithContext(context.Background(), method, target, body)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := hc.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := httpbody.ReadAll(resp); err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("%s: %d, %v", shape, resp.StatusCode, err)
				}
				resp.Body.Close()
			}
			hop() // dial the connection every timed hop reuses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop()
			}
		})
	}
}

// loadTopology is the paper's deployment in one process over loopback, as
// cmd/speedkit-load builds it: a storefront service behind its API, an
// edge in front of that, and the device transports a load goes through.
type loadTopology struct {
	svc  *core.Service
	edge *edge.Proxy
	user *session.User
	// viaEdge sends pages and the sketch to the edge, blocks to the server;
	// direct sends everything to the server.
	viaEdge, direct *httpclient.Transport
}

func newLoadTopology(b *testing.B) *loadTopology {
	b.Helper()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clock.System, Delta: 30 * time.Second, Seed: 1, Obs: obs.NewRegistry()},
		Products: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	user := &session.User{ID: "u000001", Name: "User 1", Region: netsim.EU, Tier: "gold", LoggedIn: true, ConsentPersonalization: true}
	serverURL := serveLoopback(b, httpapi.New(svc, []*session.User{user}).Handler())
	ed, _, err := edge.New(edge.Options{Upstream: serverURL, Client: loopbackClient(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ed.Close() })
	cancel := svc.OnPurge(ed.Purge)
	b.Cleanup(cancel)
	if err := ed.RefreshSketch(context.Background()); err != nil {
		b.Fatal(err)
	}
	edgeURL := serveLoopback(b, ed.Handler())
	return &loadTopology{
		svc:     svc,
		edge:    ed,
		user:    user,
		viaEdge: httpclient.NewBehindEdge(edgeURL, serverURL, loopbackClient(b)),
		direct:  httpclient.NewDirect(serverURL, loopbackClient(b)),
	}
}

// device builds a device for t's user on tr, with the configuration
// cmd/speedkit-load gives each one.
func (t *loadTopology) device(tr *httpclient.Transport, originBlocks map[string]bool) *proxy.Proxy {
	return proxy.NewSplit(proxy.Config{
		User:         t.user,
		Delta:        30 * time.Second,
		Clock:        clock.System,
		OriginBlocks: originBlocks,
	}, tr, tr)
}

// load runs one load and fails b unless it crossed the network from the
// expected source.
func load(b *testing.B, dev *proxy.Proxy, path string, want proxy.Source) {
	res, err := dev.Load(context.Background(), path)
	if err != nil {
		b.Fatal(err)
	}
	if res.Source != want {
		b.Fatalf("load of %s served by %v, want %v", path, res.Source, want)
	}
}

// BenchmarkLoad is one whole page load, device to service, through real
// loopback hops:
//
//   - edge_hit: a fresh device's load of a page the edge holds (one hop);
//   - edge_miss: a fresh device's load of a page no tier holds: the edge
//     fills from the server, which renders it (two hops, one render); the
//     page is dropped from both tiers before each op, outside the timer;
//   - direct_personalized: a fresh device with no edge in front, a page
//     the server's cdn tier holds and its reco block from /v1/blocks (two
//     hops to the server);
//   - revalidate: a device holding a copy its sketch flags, revalidated
//     at the edge, which answers 304 from its own copy (one hop).
//
// Each op but a revalidation builds its device, as catalog_cold builds
// one per load.
func BenchmarkLoad(b *testing.B) {
	const path = "/product/p00001"
	b.Run("edge_hit", func(b *testing.B) {
		t := newLoadTopology(b)
		load(b, t.device(t.viaEdge, nil), path, proxy.SourceOrigin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, t.device(t.viaEdge, nil), path, proxy.SourceCDN)
		}
	})
	b.Run("edge_miss", func(b *testing.B) {
		t := newLoadTopology(b)
		load(b, t.device(t.viaEdge, nil), path, proxy.SourceOrigin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The server's cdn tier applies a purge after its modeled
			// propagation delay; dropping every copy is immediate.
			b.StopTimer()
			t.svc.CDN().PurgeAll()
			t.edge.Purge(path)
			b.StartTimer()
			load(b, t.device(t.viaEdge, nil), path, proxy.SourceOrigin)
		}
	})
	b.Run("direct_personalized", func(b *testing.B) {
		t := newLoadTopology(b)
		reco := map[string]bool{"reco": true}
		load(b, t.device(t.direct, reco), path, proxy.SourceOrigin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			load(b, t.device(t.direct, reco), path, proxy.SourceCDN)
		}
	})
	b.Run("revalidate", func(b *testing.B) {
		t := newLoadTopology(b)
		dev := t.device(t.viaEdge, nil)
		load(b, dev, path, proxy.SourceOrigin)
		// A write the sketch flags the page for, seen by the edge's next
		// poll. The device's first load after it fetches the sketch and
		// refills the edge; every load after that revalidates its copy, and
		// the edge, holding the copy from after the flag, answers 304.
		if err := t.svc.Docs().Patch("products", "p00001", map[string]any{"stock": int64(1)}); err != nil {
			b.Fatal(err)
		}
		if err := t.edge.RefreshSketch(context.Background()); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := dev.Load(context.Background(), path); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dev.Load(context.Background(), path)
			if err != nil || !res.Revalidated || res.Source != proxy.SourceCDN {
				b.Fatalf("revalidation: %+v, %v", res, err)
			}
		}
	})
}
