package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/httpbody"
	"speedkit/internal/obs"
	"speedkit/internal/session"
)

func newTestAPI(t *testing.T) (*API, *httptest.Server, *clock.Simulated) {
	t.Helper()
	return newTestAPIWith(t, 50)
}

// newTestAPIWith is newTestAPI over a catalog of the given size.
func newTestAPIWith(t *testing.T, products int) (*API, *httptest.Server, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	api, ts := newTestAPIOn(t, clk, products)
	return api, ts, clk
}

// newTestAPIOn is newTestAPIWith on clk.
func newTestAPIOn(t *testing.T, clk clock.Clock, products int) (*API, *httptest.Server) {
	t.Helper()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: clk, Seed: 1, Delta: 30 * time.Second,
			// A private registry and an always-sample tracer, so tests can
			// assert on exact values without cross-test interference.
			Obs:    obs.NewRegistry(),
			Tracer: obs.NewTracer(clk, 1, 16),
		},
		Products: products,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	users := session.Population(1, 10)
	// Force one known, logged-in, consenting user.
	users[0].ID, users[0].Name, users[0].LoggedIn = "u-test", "Test User", true
	users[0].ConsentPersonalization = true
	users[0].AddToCart("p00001", 3)

	api := New(svc, users)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return api, ts
}

func get(t *testing.T, url string, headers ...string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestHealthz(t *testing.T) {
	api, ts, clk := newTestAPI(t)
	clk.Advance(90 * time.Second)

	// Put a key into the sketch so the generation is visibly non-zero.
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00002")
	if err := api.svc.Docs().Patch("products", "p00002", map[string]any{"stock": int64(2)}); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q", h.Status)
	}
	if h.Uptime != "1m30s" {
		t.Fatalf("uptime = %q, want 1m30s on the simulated clock", h.Uptime)
	}
	if h.SketchGeneration == 0 {
		t.Fatal("sketch_generation = 0 after a tracked write")
	}
	if h.SketchTracked != 1 {
		t.Fatalf("sketch_tracked = %d, want 1", h.SketchTracked)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00001") // origin render
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00001") // edge hit

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE speedkit_service_fetch_total counter",
		`speedkit_service_fetch_total{source="cdn"} 1`,
		`speedkit_service_fetch_total{source="origin"} 1`,
		"# TYPE speedkit_sketch_generation gauge",
		"# TYPE speedkit_sketch_bytes gauge",
		"# TYPE speedkit_service_fetch_latency_us summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// newDurableTestAPI is newTestAPI with the durability subsystem wired
// over a temp directory.
func newDurableTestAPI(t *testing.T) (*API, *httptest.Server, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	store := durable.New(durable.Config{Dir: t.TempDir(), Clock: clk})
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: clk, Seed: 1, Delta: 30 * time.Second,
			Obs:     obs.NewRegistry(),
			Tracer:  obs.NewTracer(clk, 1, 16),
			Durable: store,
		},
		Products: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	t.Cleanup(func() { _ = store.Close() })

	api := New(svc, session.Population(1, 10))
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return api, ts, clk
}

// TestMetricsDurability asserts the durability gauges reach the scrape
// exposition and /healthz reports the recovery mode — the wal/durable
// packages cannot register metrics themselves (obslabels boundary), so
// this pins the indirection through the HTTP surface.
func TestMetricsDurability(t *testing.T) {
	_, ts, _ := newDurableTestAPI(t)
	// A tracked read + a write journal some records.
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00003")

	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE speedkit_wal_appends gauge",
		"# TYPE speedkit_wal_fsyncs gauge",
		"# TYPE speedkit_wal_replayed_records gauge",
		"# TYPE speedkit_durable_snapshot_bytes gauge",
		`speedkit_recovery_mode{mode="fresh"} 1`,
		`speedkit_recovery_mode{mode="coldstart"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Recovery's open marker and epoch record, then the read's report.
	if !strings.Contains(body, "speedkit_wal_appends 2") &&
		!strings.Contains(body, "speedkit_wal_appends 3") {
		t.Errorf("wal appends gauge not reflecting journaled records:\n%s", body)
	}

	_, hbody := get(t, ts.URL+"/healthz")
	var h Health
	if err := json.Unmarshal([]byte(hbody), &h); err != nil {
		t.Fatal(err)
	}
	if h.RecoveryMode != "fresh" {
		t.Fatalf("recovery_mode = %q, want fresh", h.RecoveryMode)
	}
}

// TestMetricsMemoryOnlyOmitsDurability pins the memory-only shape: no
// durability series, no recovery_mode in /healthz.
func TestMetricsMemoryOnlyOmitsDurability(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	_, body := get(t, ts.URL+"/metrics")
	if strings.Contains(body, "speedkit_wal_") || strings.Contains(body, "speedkit_recovery_mode") {
		t.Errorf("memory-only service exposes durability series:\n%s", body)
	}
	_, hbody := get(t, ts.URL+"/healthz")
	if strings.Contains(hbody, "recovery_mode") {
		t.Errorf("memory-only healthz carries recovery_mode: %s", hbody)
	}
}

func TestTracesEndpoint(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00006")

	resp, body := get(t, ts.URL+"/debug/traces?n=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var traces []obs.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	var page *obs.Trace
	for i := range traces {
		if traces[i].Kind == "http.page" {
			page = &traces[i]
		}
	}
	if page == nil {
		t.Fatalf("no http.page trace in %s", body)
	}
	if page.Path != "/product/p00006" || page.Source != "origin" {
		t.Fatalf("trace = %+v", page)
	}
	if len(page.Spans) == 0 || page.Spans[0].Name != "core.fetch" {
		t.Fatalf("spans = %+v", page.Spans)
	}
	if page.TraceID.IsZero() || page.SpanID.IsZero() {
		t.Fatalf("trace lacks causal identity: %+v", page)
	}

	resp, _ = get(t, ts.URL+"/debug/traces?n=zero")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d", resp.StatusCode)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	resp, body := get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}

func TestPageServesShellWithCachingHeaders(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	resp, body := get(t, ts.URL+"/v1/page?path=/product/p00007")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "<!--block:") {
		t.Fatal("shell missing block placeholders (must be anonymous)")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.HasPrefix(cc, "public, max-age=") {
		t.Fatalf("Cache-Control = %q", cc)
	}
	if et := resp.Header.Get("ETag"); et != `"v1"` {
		t.Fatalf("ETag = %q", et)
	}
	if xb := resp.Header.Get("X-Blocks"); !strings.Contains(xb, "cart") {
		t.Fatalf("X-Blocks = %q", xb)
	}
	if resp.Header.Get("X-Served-By") != "origin" {
		t.Fatalf("X-Served-By = %q", resp.Header.Get("X-Served-By"))
	}
	// Second fetch comes from the edge.
	resp, _ = get(t, ts.URL+"/v1/page?path=/product/p00007")
	if resp.Header.Get("X-Served-By") != "cdn" {
		t.Fatalf("second fetch served by %q", resp.Header.Get("X-Served-By"))
	}
}

func TestPageMissingAndUnknown(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	resp, _ := get(t, ts.URL+"/v1/page")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing path: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/page?path=/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp.StatusCode)
	}
	// Only /v1 is the wire surface: the unversioned spelling of a real
	// route is no route, and says so in the envelope like any failure.
	resp, body := get(t, ts.URL+"/page?path=/")
	var eb httpbody.ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || resp.StatusCode != http.StatusNotFound || eb.Error.Code != httpbody.CodeNotFound {
		t.Fatalf("GET /page: %d %q (%v), want the envelope's 404", resp.StatusCode, body, err)
	}
}

func TestConditionalGet304(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	resp, _ := get(t, ts.URL+"/v1/page?path=/product/p00003")
	etag := resp.Header.Get("ETag")

	resp, body := get(t, ts.URL+"/v1/page?path=/product/p00003", "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
	if body != "" {
		t.Fatalf("304 carried a body: %q", body)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatal("304 lost the ETag")
	}
}

func TestConditionalGetAfterWriteReturnsNewVersion(t *testing.T) {
	api, ts, _ := newTestAPI(t)
	resp, _ := get(t, ts.URL+"/v1/page?path=/product/p00003")
	etag := resp.Header.Get("ETag")

	if err := api.svc.Docs().Patch("products", "p00003", map[string]any{"price": 1.23}); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts.URL+"/v1/page?path=/product/p00003", "If-None-Match", etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after write", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != `"v2"` {
		t.Fatalf("ETag = %q", resp.Header.Get("ETag"))
	}
	if !strings.Contains(body, "1.23") {
		t.Fatal("new body missing updated price")
	}
}

// TestParseETag: the page handler reads If-None-Match as the page's ETag
// spells it, weak or padded alike; a parseable stale version or a value
// that does not parse gets the full page back.
func TestParseETag(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	url := ts.URL + "/v1/page?path=/product/p00005"
	if resp, _ := get(t, url); resp.Header.Get("ETag") != `"v1"` {
		t.Fatalf("ETag = %q, want \"v1\"", resp.Header.Get("ETag"))
	}
	cases := []struct {
		inm  string
		want int
	}{
		{`"v1"`, http.StatusNotModified},
		{`W/"v1"`, http.StatusNotModified},
		{` "v1" `, http.StatusNotModified},
		{`"v123"`, http.StatusOK},
		{`"x1"`, http.StatusOK},
		{`"v"`, http.StatusOK},
		{`"vabc"`, http.StatusOK},
		{``, http.StatusOK},
	}
	for _, c := range cases {
		resp, body := get(t, url, "If-None-Match", c.inm)
		if resp.StatusCode != c.want {
			t.Errorf("If-None-Match %q: status %d, want %d", c.inm, resp.StatusCode, c.want)
		}
		if c.want == http.StatusOK && !strings.Contains(body, "p00005") {
			t.Errorf("If-None-Match %q: body %q lacks the page", c.inm, body)
		}
	}
}

func TestConditionalGetMalformedETagIgnored(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	resp, _ := get(t, ts.URL+"/v1/page?path=/product/p00004", "If-None-Match", `"garbage"`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 for unparseable ETag", resp.StatusCode)
	}
}

// A conditional request for a page that does not exist renders nothing, so
// it is the cheapest request a client can mint keys with: it must get the
// 404 a plain request gets, and leave nothing behind in the sketch server.
func TestConditionalGetGhostPath404(t *testing.T) {
	api, ts, _ := newTestAPI(t)
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00003") // one real tracked page
	before := api.svc.SketchServer().Stats()

	for i := 0; i < 20; i++ {
		resp, body := get(t, fmt.Sprintf("%s/v1/page?path=/product/ghost-%d", ts.URL, i), "If-None-Match", `"v1"`)
		var eb httpbody.ErrorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || resp.StatusCode != http.StatusNotFound || eb.Error.Code != httpbody.CodeNotFound {
			t.Fatalf("ghost %d: %d %q (%v), want the envelope's 404", i, resp.StatusCode, body, err)
		}
	}
	after := api.svc.SketchServer().Stats()
	if after.Tracked != before.Tracked || after.TableSize != before.TableSize {
		t.Fatalf("ghost revalidations left state: tracked %d → %d, table %d → %d",
			before.Tracked, after.Tracked, before.TableSize, after.TableSize)
	}
}

func TestSketchEndpoint(t *testing.T) {
	api, ts, _ := newTestAPI(t)
	// Put something in the sketch first.
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00005")
	if err := api.svc.Docs().Patch("products", "p00005", map[string]any{"stock": int64(1)}); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/v1/sketch")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=30" {
		t.Fatalf("Cache-Control = %q (Δ=30s)", cc)
	}
	if resp.Header.Get("X-Sketch-Generation") == "" {
		t.Fatal("generation header missing")
	}
	var f bloom.Filter
	if err := f.UnmarshalBinary([]byte(body)); err != nil {
		t.Fatalf("sketch not decodable: %v", err)
	}
	if !f.Contains("/product/p00005") {
		t.Fatal("decoded sketch missing the written path")
	}
}

// postBlocks POSTs a blocks request body and returns the answer.
func postBlocks(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/blocks", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestBlocksEndpoint: the user ID and names go in the POST body, and the
// fragments come back framed in request order with their length declared.
// A GET — the old spelling, with the user in the URL — is a 405.
func TestBlocksEndpoint(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	names := []string{"greeting", "ghost", "cart"}
	resp, body := postBlocks(t, ts.URL, httpbody.BlocksRequest("u-test", names))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatal("personalized response must be no-store")
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	frs, err := httpbody.ParseBlocksResponse(body, len(names))
	if err != nil {
		t.Fatal(err)
	}
	if string(frs[0]) != "<p>Welcome back, Test User!</p>" ||
		len(frs[1]) != 0 ||
		string(frs[2]) != `<div class="cart">3 items</div>` {
		t.Fatalf("fragments %q", frs)
	}

	// Unknown user → anonymous fragments, never an error.
	_, body = postBlocks(t, ts.URL, httpbody.BlocksRequest("ghost", []string{"greeting"}))
	if frs, err := httpbody.ParseBlocksResponse(body, 1); err != nil || string(frs[0]) != "<p>Welcome!</p>" {
		t.Fatalf("anonymous fragment %q, %v", body, err)
	}

	for _, bad := range [][]byte{
		nil,                                   // no user frame
		httpbody.BlocksRequest("u-test", nil), // no names
		[]byte("\x06u-test\x09cart"),          // a name past the end
		httpbody.BlocksRequest("u-test", make([]string, httpbody.MaxBlockNames+1)),
	} {
		resp, raw := postBlocks(t, ts.URL, bad)
		var eb httpbody.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Error.Code != httpbody.CodeBadRequest {
			t.Errorf("body %q: %d %q (%v), want the envelope's 400", bad, resp.StatusCode, raw, err)
		}
	}

	resp, raw := get(t, ts.URL+"/v1/blocks?names=cart&user=u-test")
	var eb httpbody.ErrorBody
	if err := json.Unmarshal([]byte(raw), &eb); err != nil || resp.StatusCode != http.StatusMethodNotAllowed ||
		eb.Error.Code != httpbody.CodeMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/blocks: %d Allow %q %q (%v), want the envelope's 405", resp.StatusCode, resp.Header.Get("Allow"), raw, err)
	}
}

func TestWriteEndpointDrivesPipeline(t *testing.T) {
	api, ts, _ := newTestAPI(t)
	_, _ = get(t, ts.URL+"/v1/page?path=/product/p00009") // cache a copy

	resp, err := http.Post(ts.URL+"/v1/write?product=p00009&price=7.77", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "v2") || !strings.Contains(string(body), "in sketch: true") {
		t.Fatalf("write response: %s", body)
	}
	doc, _, _ := api.svc.Docs().Get("products", "p00009")
	if price, _ := doc.Lookup("price"); price != 7.77 {
		t.Fatalf("price = %v", price)
	}
}

func TestWriteEndpointValidation(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/write", http.StatusBadRequest},
		{"/v1/write?product=p00001", http.StatusBadRequest},
		{"/v1/write?product=p00001&price=abc", http.StatusBadRequest},
		{"/v1/write?product=p00001&stock=abc", http.StatusBadRequest},
		{"/v1/write?product=ghost&price=1", http.StatusNotFound},
		{"/v1/write?product=p00001&stock=5", http.StatusOK},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}

// TestPurgeKeepsConnection: the operator purge route answers 204 with no
// body, so a sender that closes every response unread reuses one
// connection; a missing ?path= still gets the envelope's 400.
func TestPurgeKeepsConnection(t *testing.T) {
	api, ts, clk := newTestAPI(t)
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(api.Handler())
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()

	const purges = 200
	const path = "/product/p00009"
	for i := 0; i < purges; i++ {
		if resp, _ := get(t, ts.URL+"/v1/page?path="+path); resp.Header.Get("X-Served-By") != "origin" {
			t.Fatalf("read %d served by %q, want origin (purge %d not applied)", i, resp.Header.Get("X-Served-By"), i-1)
		}
		resp, err := hc.Post(srv.URL+"/v1/purge?path="+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent || resp.ContentLength != 0 {
			t.Fatalf("purge %d: status %d length %d, want 204 with no body", i, resp.StatusCode, resp.ContentLength)
		}
		clk.Advance(20 * time.Millisecond) // past the CDN's 10 ms purge propagation delay
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d purges opened %d connections, want 1", purges, n)
	}

	resp, err := http.Post(ts.URL+"/v1/purge", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb httpbody.ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Error.Code != httpbody.CodeBadRequest {
		t.Fatalf("purge without ?path=: %d %q (%v), want the envelope's 400", resp.StatusCode, raw, err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, _ := newTestAPI(t)
	_, _ = get(t, ts.URL+"/v1/page?path=/")
	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"service:", "sketch:", "cdn:", "gdpr:"} {
		if !strings.Contains(body, want) {
			t.Errorf("stats missing %q:\n%s", want, body)
		}
	}
}

// TestSkippedPurgesAndEpochAreObservable: one scrape tells purges sent from
// purges skipped — writes to pages no cache held — and the two add up to
// the invalidations; /healthz names the epoch beside the generation,
// spelled as the sketch response spells it.
func TestSkippedPurgesAndEpochAreObservable(t *testing.T) {
	api, ts, _ := newTestAPI(t)
	// p00003 is cached once; p00004 never is.
	get(t, ts.URL+"/v1/page?path=/product/p00003")
	for _, id := range []string{"p00003", "p00004"} {
		resp, err := http.Post(ts.URL+"/v1/write?product="+id+"&price=1.25", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sk := api.svc.SketchServer()
	reg := api.svc.Obs()
	skipped := reg.Counter("speedkit.cdn.purges.skipped.total").Value()
	if skipped == 0 {
		t.Fatal("no write was skipped")
	}
	if inv := reg.Counter("speedkit.invalidation.total").Value(); inv != skipped+1 {
		t.Fatalf("%d invalidations, want the %d skipped plus the 1 sent", inv, skipped)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"speedkit_cdn_purges_total 1\n",
		fmt.Sprintf("speedkit_cdn_purges_skipped_total %d\n", skipped),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	_, hbody := get(t, ts.URL+"/healthz")
	var h Health
	if err := json.Unmarshal([]byte(hbody), &h); err != nil {
		t.Fatal(err)
	}
	resp, _ := get(t, ts.URL+"/v1/sketch")
	if want := resp.Header.Get(cachesketch.EpochHeader); h.SketchEpoch != want || want != fmt.Sprintf("%016x", sk.Epoch()) {
		t.Fatalf("/healthz sketch_epoch %q, sketch response %q, server %x", h.SketchEpoch, want, sk.Epoch())
	}
}

// steppingClock moves a fixed step forward at every read.
type steppingClock struct {
	step time.Duration
	now  atomic.Int64
}

func (c *steppingClock) Now() time.Time { return time.Unix(0, c.now.Add(int64(c.step))) }

// TestServerMeasuresItsOwnTime: the server's calls time themselves on the
// service clock and model no network. On a frozen clock every
// fetch_latency_us sum, trace Total and span reads 0, where a modelled
// draw reads milliseconds. On a clock that steps at every read, each
// reads a positive multiple of the step, and a call's span lies inside its
// trace's Total.
func TestServerMeasuresItsOwnTime(t *testing.T) {
	const step = time.Millisecond
	for _, tc := range []struct {
		name string
		clk  clock.Clock
		step time.Duration
	}{
		{"frozen", clock.NewSimulated(time.Time{}), 0},
		{"stepping", &steppingClock{step: step}, step},
	} {
		t.Run(tc.name, func(t *testing.T) {
			api, ts := newTestAPIOn(t, tc.clk, 50)
			// measured checks one reading: 0 on the frozen clock, a
			// positive multiple of the step on the stepping one.
			measured := func(what string, d time.Duration) {
				t.Helper()
				if tc.step == 0 && d != 0 || tc.step > 0 && (d <= 0 || d%tc.step != 0) {
					t.Errorf("%s = %v on the %s clock", what, d, tc.name)
				}
			}

			page := ts.URL + "/v1/page?path=/product/p00001"
			for _, want := range []string{"origin", "cdn"} {
				if resp, _ := get(t, page); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Served-By") != want {
					t.Fatalf("page: %d from %q, want 200 from %s", resp.StatusCode, resp.Header.Get("X-Served-By"), want)
				}
			}
			if resp, _ := get(t, page, "If-None-Match", string(httpbody.AppendETag(nil, 1))); resp.StatusCode != http.StatusNotModified {
				t.Fatalf("conditional page: %d, want 304", resp.StatusCode)
			}
			if resp, _ := get(t, ts.URL+"/v1/sketch"); resp.StatusCode != http.StatusOK {
				t.Fatalf("sketch: %d", resp.StatusCode)
			}
			if resp, _ := postBlocks(t, ts.URL, httpbody.BlocksRequest("u-test", []string{"greeting", "cart"})); resp.StatusCode != http.StatusOK {
				t.Fatalf("blocks: %d", resp.StatusCode)
			}

			_, body := get(t, ts.URL+"/metrics")
			sums := 0
			for _, line := range strings.Split(body, "\n") {
				if !strings.HasPrefix(line, "speedkit_service_fetch_latency_us_sum") {
					continue
				}
				sums++
				us, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				measured(line, time.Duration(us)*time.Microsecond)
			}
			if sums != 2 {
				t.Fatalf("%d fetch_latency_us sums, want cdn and origin:\n%s", sums, body)
			}

			kinds := map[string]int{}
			for _, tr := range api.svc.Tracer().Recent(16) {
				kinds[tr.Kind]++
				measured(tr.Kind+" Total", tr.Total)
				if len(tr.Spans) != 1 {
					t.Fatalf("%s spans %+v, want the core call's", tr.Kind, tr.Spans)
				}
				for _, sp := range tr.Spans {
					measured(tr.Kind+" span "+sp.Name, sp.Duration)
					if tc.step > 0 && sp.Duration >= tr.Total {
						t.Errorf("%s span %s %v outside the trace's %v", tr.Kind, sp.Name, sp.Duration, tr.Total)
					}
				}
			}
			if kinds["http.page"] != 3 || kinds["http.sketch"] != 1 || kinds["http.blocks"] != 1 {
				t.Fatalf("traces by kind %v", kinds)
			}
		})
	}
}
