package speedkit_test

// Whole-load benchmarks tracked in BENCH_load.json (the load suite of
// cmd/speedkit-bent), at -cpu 1. Two families, so that a load's cost can
// be split into what net/http charges and what the product adds on top:
//
//   - BenchmarkHop/{hit,page,blocks,sketch}: one request and its answer
//     over one loopback keep-alive connection, from a canned handler that
//     states the headers and body of each answer shape the tiers send,
//     sent through httpbody.Sender as every tier's client sends it: the
//     net/http floor under each request a load sends.
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
	"sync"
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
// listener closes when tb ends.
func serveLoopback(tb testing.TB, h http.Handler) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: h}}
	srv.Start()
	tb.Cleanup(srv.Close)
	return srv.URL
}

// loopbackClient is a client on a transport of its own, so each benchmark
// holds its own keep-alive connections and drops them when it ends.
func loopbackClient(tb testing.TB) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tb.Cleanup(tr.CloseIdleConnections)
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
// connection, sent and read as the device transport sends and reads it:
// the net/http floor under every request a load sends.
func BenchmarkHop(b *testing.B) {
	answers := hopAnswers(b)
	blocksReq := httpbody.BlocksRequest("u000001", []string{"reco"})
	for _, shape := range []string{"hit", "page", "blocks", "sketch"} {
		b.Run(shape, func(b *testing.B) {
			base := serveLoopback(b, answers[shape])
			send := httpbody.NewSender(loopbackClient(b))
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
				resp, err := send.Send(context.Background(), method, target, body, nil)
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
	// edgeServed wraps the edge's handler, which stores a fill only after
	// the answer's body has reached the device.
	edgeServed *settledHandler
	user       *session.User
	// viaEdge sends pages and the sketch to the edge, blocks to the server;
	// direct sends everything to the server.
	viaEdge, direct *httpclient.Transport
}

func newLoadTopology(tb testing.TB) *loadTopology {
	tb.Helper()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clock.System, Delta: 30 * time.Second, Seed: 1, Obs: obs.NewRegistry()},
		Products: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	user := &session.User{ID: "u000001", Name: "User 1", Region: netsim.EU, Tier: "gold", LoggedIn: true, ConsentPersonalization: true}
	serverURL := serveLoopback(tb, httpapi.New(svc, []*session.User{user}).Handler())
	ed, _, err := edge.New(edge.Options{Upstream: serverURL, Client: loopbackClient(tb)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ed.Close() })
	cancel := svc.OnPurge(ed.Purge)
	tb.Cleanup(cancel)
	if err := ed.RefreshSketch(context.Background()); err != nil {
		tb.Fatal(err)
	}
	served := newSettledHandler(ed.Handler())
	edgeURL := serveLoopback(tb, served)
	return &loadTopology{
		svc:        svc,
		edge:       ed,
		edgeServed: served,
		user:       user,
		viaEdge:    httpclient.NewBehindEdge(edgeURL, serverURL, loopbackClient(tb)),
		direct:     httpclient.NewDirect(serverURL, loopbackClient(tb)),
	}
}

// settledHandler is a handler that can wait until every request it has
// started to serve has returned, whatever it does after its answer.
type settledHandler struct {
	h        http.Handler
	mu       sync.Mutex
	idle     sync.Cond
	inflight int // guarded by mu
}

func newSettledHandler(h http.Handler) *settledHandler {
	s := &settledHandler{h: h}
	s.idle.L = &s.mu
	return s
}

func (s *settledHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	defer s.done()
	s.h.ServeHTTP(w, r)
}

func (s *settledHandler) done() {
	s.mu.Lock()
	if s.inflight--; s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// wait returns once no request is being served.
func (s *settledHandler) wait() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
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

// load runs one load and fails tb unless it crossed the network from the
// expected source.
func load(tb testing.TB, dev *proxy.Proxy, path string, want proxy.Source) {
	res, err := dev.Load(context.Background(), path)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Source != want {
		tb.Fatalf("load of %s served by %v, want %v", path, res.Source, want)
	}
}

// loadOp is one op of a topology: run is the load, and prepare, when set,
// puts the topology back in the state every run starts from. prepare runs
// before each run and is no part of what a load costs.
type loadOp struct {
	prepare, run func()
}

// loadPath is the page every topology loads.
const loadPath = "/product/p00001"

// loadCases are the topologies of one whole page load, device to service,
// through real loopback hops:
//
//   - edge_hit: a fresh device's load of a page the edge holds (one hop);
//   - edge_miss: a fresh device's load of a page no tier holds: the edge
//     fills from the server, which renders it (two hops, one render); the
//     page is dropped from both tiers before each load;
//   - direct_personalized: a fresh device with no edge in front, a page
//     the server's cdn tier holds and its reco block from /v1/blocks (two
//     hops to the server);
//   - revalidate: a device holding a copy its sketch flags, revalidated
//     at the edge, which answers 304 from its own copy (one hop).
//
// Each builds its topology, warms it to the state every op starts from
// and returns the op. Each op but a revalidation builds its device, as
// catalog_cold builds one per load.
var loadCases = []struct {
	name  string
	build func(tb testing.TB) loadOp
}{
	{"edge_hit", func(tb testing.TB) loadOp {
		t := newLoadTopology(tb)
		load(tb, t.device(t.viaEdge, nil), loadPath, proxy.SourceOrigin)
		t.edgeServed.wait()
		return loadOp{run: func() { load(tb, t.device(t.viaEdge, nil), loadPath, proxy.SourceCDN) }}
	}},
	{"edge_miss", func(tb testing.TB) loadOp {
		t := newLoadTopology(tb)
		load(tb, t.device(t.viaEdge, nil), loadPath, proxy.SourceOrigin)
		return loadOp{
			prepare: func() {
				// The edge stores its fill after the device has read the
				// answer: a purge before that would miss it. The server's
				// cdn tier applies a purge after its modeled propagation
				// delay; dropping every copy is immediate.
				t.edgeServed.wait()
				t.svc.CDN().PurgeAll()
				t.edge.Purge(loadPath)
			},
			run: func() { load(tb, t.device(t.viaEdge, nil), loadPath, proxy.SourceOrigin) },
		}
	}},
	{"direct_personalized", func(tb testing.TB) loadOp {
		t := newLoadTopology(tb)
		reco := map[string]bool{"reco": true}
		load(tb, t.device(t.direct, reco), loadPath, proxy.SourceOrigin)
		return loadOp{run: func() { load(tb, t.device(t.direct, reco), loadPath, proxy.SourceCDN) }}
	}},
	{"revalidate", func(tb testing.TB) loadOp {
		t := newLoadTopology(tb)
		dev := t.device(t.viaEdge, nil)
		load(tb, dev, loadPath, proxy.SourceOrigin)
		// A write the sketch flags the page for, seen by the edge's next
		// poll. The device's first load after it fetches the sketch and
		// refills the edge; every load after that revalidates its copy, and
		// the edge, holding the copy from after the flag, answers 304.
		if err := t.svc.Docs().Patch("products", "p00001", map[string]any{"stock": int64(1)}); err != nil {
			tb.Fatal(err)
		}
		if err := t.edge.RefreshSketch(context.Background()); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := dev.Load(context.Background(), loadPath); err != nil {
				tb.Fatal(err)
			}
			t.edgeServed.wait()
		}
		return loadOp{run: func() {
			res, err := dev.Load(context.Background(), loadPath)
			if err != nil || !res.Revalidated || res.Source != proxy.SourceCDN {
				tb.Fatalf("revalidation: %+v, %v", res, err)
			}
		}}
	}},
}

// BenchmarkLoad is one whole page load per topology of loadCases.
func BenchmarkLoad(b *testing.B) {
	for _, c := range loadCases {
		b.Run(c.name, func(b *testing.B) {
			op := c.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if op.prepare != nil {
					b.StopTimer()
					op.prepare()
					b.StartTimer()
				}
				op.run()
			}
		})
	}
}
