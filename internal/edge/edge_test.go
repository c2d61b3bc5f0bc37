package edge

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
)

// fakeUpstream is a minimal speedkit-server stand-in: /v1/page with
// versioned bodies and ETags, /v1/sketch with a marshaled Bloom filter
// under sketchMaxAge, and counters the tests assert against.
type fakeUpstream struct {
	mu       sync.Mutex
	bodies   map[string][]byte
	versions map[string]uint64
	maxAge   int
	noStore  bool
	gen      uint64
	epoch    uint64
	sketch   *bloom.Filter

	requests   atomic.Int64 // requests of any kind
	identified atomic.Int64 // requests carrying Cookie or Authorization
	fetches    atomic.Int64 // full-body /v1/page responses
	conds      atomic.Int64 // If-None-Match requests seen
	// hold, when non-nil, blocks page responses until closed — the
	// stampede test uses it to keep the fill in flight.
	hold chan struct{}

	srv *httptest.Server
}

func newFakeUpstream() *fakeUpstream {
	u := &fakeUpstream{
		bodies:   map[string][]byte{},
		versions: map[string]uint64{},
		maxAge:   60,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/page", func(w http.ResponseWriter, r *http.Request) { u.servePage(w, r) })
	mux.HandleFunc("GET /v1/sketch", func(w http.ResponseWriter, _ *http.Request) { u.serveSketch(w) })
	mux.HandleFunc("POST /v1/blocks", func(w http.ResponseWriter, r *http.Request) {
		_, names, err := httpbody.ReadBlocksRequest(r)
		if err != nil {
			httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, err.Error())
			return
		}
		// Personalized: never cacheable.
		w.Header().Set("Cache-Control", "no-store")
		frs := make([][]byte, len(names))
		for i, name := range names {
			if name == "cart" {
				frs[i] = []byte("3 items")
			}
		}
		w.Write(httpbody.BlocksResponse(frs))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such endpoint: "+r.URL.Path)
	})
	u.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u.requests.Add(1)
		if r.Header.Get("Cookie") != "" || r.Header.Get("Authorization") != "" {
			u.identified.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	return u
}

func (u *fakeUpstream) close() { u.srv.Close() }

func (u *fakeUpstream) set(path, body string, version uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.bodies[path] = []byte(body)
	u.versions[path] = version
}

func (u *fakeUpstream) servePage(w http.ResponseWriter, r *http.Request) {
	if u.hold != nil {
		<-u.hold
	}
	path := r.URL.Query().Get("path")
	u.mu.Lock()
	body, ok := u.bodies[path]
	version := u.versions[path]
	maxAge, noStore := u.maxAge, u.noStore
	u.mu.Unlock()
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found","message":"no route"}}`)
		return
	}
	etag := fmt.Sprintf("%q", "v"+strconv.FormatUint(version, 10))
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		u.conds.Add(1)
		if inm == etag {
			w.Header().Set("ETag", etag)
			w.Header().Set("Cache-Control", "max-age="+strconv.Itoa(maxAge))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	u.fetches.Add(1)
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "text/html")
	if noStore {
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Cache-Control", "max-age="+strconv.Itoa(maxAge))
	}
	w.Write(body)
}

func (u *fakeUpstream) serveSketch(w http.ResponseWriter) {
	u.mu.Lock()
	f, gen, epoch := u.sketch, u.gen, u.epoch
	u.mu.Unlock()
	if f == nil {
		f = bloom.NewFilterForCapacity(64, 0.01)
	}
	sn := &cachesketch.Snapshot{Filter: f, Generation: gen, Epoch: epoch}
	if err := sn.WriteHTTP(w, "public, max-age="+strconv.Itoa(int(sketchMaxAge/time.Second)), 0); err != nil {
		httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
	}
}

// snapshotWith builds a sketch snapshot flagging the given keys.
func snapshotWith(gen uint64, keys ...string) *cachesketch.Snapshot {
	return snapshotIn(0, gen, keys...)
}

// snapshotIn is snapshotWith in another epoch.
func snapshotIn(epoch, gen uint64, keys ...string) *cachesketch.Snapshot {
	f := bloom.NewFilterForCapacity(64, 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	return &cachesketch.Snapshot{Filter: f, Generation: gen, Epoch: epoch, TakenAt: time.Unix(0, 0), MaxAge: heldForever}
}

// heldForever is the max-age of a snapshot a test installs by hand. Those
// tests exercise the watermark and epoch rules, so the snapshot stays
// within Δ whatever the test's clock reads; the Δ rule has tests of its
// own.
const heldForever = time.Duration(math.MaxInt64)

// prime polls the upstream's sketch once, as speedkit-edge does before it
// serves: a hit needs a sketch within Δ to vouch for it.
func prime(t testing.TB, p *Proxy) {
	t.Helper()
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func newTestProxy(t *testing.T, u *fakeUpstream, opts Options) *Proxy {
	t.Helper()
	opts.Upstream = u.srv.URL
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	p, _, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func get(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestMissThenHit(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "hello page", 1)
	p := newTestProxy(t, u, Options{})
	prime(t, p)

	w := get(t, p, "/v1/page?path=/p", nil)
	if w.Code != http.StatusOK || w.Body.String() != "hello page" {
		t.Fatalf("miss: code=%d body=%q", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Edge-Cache"); got != "miss" {
		t.Fatalf("X-Edge-Cache = %q, want miss", got)
	}

	w = get(t, p, "/v1/page?path=/p", nil)
	if w.Body.String() != "hello page" || w.Header().Get("X-Edge-Cache") != "hit" {
		t.Fatalf("hit: body=%q state=%q", w.Body.String(), w.Header().Get("X-Edge-Cache"))
	}
	if n := u.fetches.Load(); n != 1 {
		t.Fatalf("origin fetches = %d, want 1", n)
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStampedeCoalescesToOneFetch(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/hot", "stampede body", 1)
	u.hold = make(chan struct{})
	p := newTestProxy(t, u, Options{})

	const n = 100
	var wg sync.WaitGroup
	bodies := make([]string, n)
	states := make([]string, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := get(t, p, "/v1/page?path=/hot", nil)
			bodies[i] = w.Body.String()
			states[i] = w.Header().Get("X-Edge-Cache")
		}(i)
	}
	close(start)
	// Let the wave pile onto the in-flight fill, then release the
	// upstream.
	time.Sleep(100 * time.Millisecond)
	close(u.hold)
	wg.Wait()

	if n := u.fetches.Load(); n != 1 {
		t.Fatalf("origin fetches = %d, want exactly 1", n)
	}
	for i := range bodies {
		if bodies[i] != "stampede body" {
			t.Fatalf("request %d body = %q", i, bodies[i])
		}
	}
	s := p.Stats()
	if s.CoalescedWaiters == 0 {
		t.Fatalf("no coalesced waiters recorded: %+v", s)
	}
}

func TestSketchDrivenRevalidation(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "v1 body", 1)
	p := newTestProxy(t, u, Options{})

	// Fill.
	get(t, p, "/v1/page?path=/p", nil)
	if n := u.fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d", n)
	}

	// Fresh generation NOT flagging the key: pure hit, no upstream trip.
	p.InstallSketch(snapshotWith(5, "/other"))
	w := get(t, p, "/v1/page?path=/p", nil)
	if w.Header().Get("X-Edge-Cache") != "hit" {
		t.Fatalf("unflagged key state = %q, want hit", w.Header().Get("X-Edge-Cache"))
	}
	if n := u.conds.Load(); n != 0 {
		t.Fatalf("conditional requests = %d, want 0", n)
	}

	// Newer generation flagging the key, body unchanged upstream: one
	// conditional request, 304 renews, then hits again.
	p.InstallSketch(snapshotWith(6, "/p"))
	w = get(t, p, "/v1/page?path=/p", nil)
	if w.Header().Get("X-Edge-Cache") != "revalidated" || w.Body.String() != "v1 body" {
		t.Fatalf("stale-flagged: state=%q body=%q", w.Header().Get("X-Edge-Cache"), w.Body.String())
	}
	if n := u.conds.Load(); n != 1 {
		t.Fatalf("conditional requests = %d, want 1", n)
	}
	w = get(t, p, "/v1/page?path=/p", nil)
	if w.Header().Get("X-Edge-Cache") != "hit" {
		t.Fatalf("renewed entry state = %q, want hit", w.Header().Get("X-Edge-Cache"))
	}

	// Body actually changed: the conditional turns into a 200 refresh.
	u.set("/p", "v2 body", 2)
	p.InstallSketch(snapshotWith(7, "/p"))
	w = get(t, p, "/v1/page?path=/p", nil)
	if w.Body.String() != "v2 body" || w.Header().Get("X-Edge-Cache") != "miss" {
		t.Fatalf("changed body: state=%q body=%q", w.Header().Get("X-Edge-Cache"), w.Body.String())
	}
}

// TestUnvouchedHitsRevalidate: a hit needs a sketch within Δ. An edge that
// holds none revalidates every TTL-fresh hit, and so does one whose sketch
// is Δ old, as an edge cut off from its server's polls holds; /metrics
// counts each as degraded. A poll makes them hits again.
func TestUnvouchedHitsRevalidate(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	clk := clock.NewSimulated(time.Unix(1000, 0))
	p := newTestProxy(t, u, Options{Clock: clk})
	h := p.Handler()
	expect := func(step, want string) {
		t.Helper()
		if got := get(t, h, "/v1/page?path=/p", nil).Header().Get("X-Edge-Cache"); got != want {
			t.Fatalf("%s: served as %q, want %q", step, got, want)
		}
	}

	expect("fill", "miss")
	expect("no sketch", "revalidated")
	expect("still no sketch", "revalidated")
	prime(t, p)
	expect("sketch within Δ", "hit")
	clk.Advance(sketchMaxAge - time.Nanosecond)
	expect("sketch just short of Δ", "hit")
	clk.Advance(time.Nanosecond)
	expect("sketch Δ old", "revalidated")
	expect("sketch still Δ old", "revalidated")
	prime(t, p)
	expect("polled again", "hit")

	if n := u.conds.Load(); n != 4 {
		t.Fatalf("%d conditional requests, want one per unvouched hit", n)
	}
	if s := p.Stats(); s.Degraded != 4 || s.Hits != 3 {
		t.Fatalf("stats %+v, want 4 degraded and 3 hits", s)
	}
	if out := get(t, h, "/metrics", nil).Body.String(); !contains(out, "speedkit_edge_degraded_total 4\n") {
		t.Fatalf("exposition does not count the degraded hits:\n%s", out)
	}
}

func TestClientIfNoneMatch(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 3)
	p := newTestProxy(t, u, Options{})
	get(t, p, "/v1/page?path=/p", nil)

	w := get(t, p, "/v1/page?path=/p", map[string]string{"If-None-Match": `"v3"`})
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("matching INM: code=%d len=%d", w.Code, w.Body.Len())
	}
	w = get(t, p, "/v1/page?path=/p", map[string]string{"If-None-Match": `"v2"`})
	if w.Code != http.StatusOK || w.Body.String() != "body" {
		t.Fatalf("stale INM: code=%d body=%q", w.Code, w.Body.String())
	}
}

func TestPurgeEvicts(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	p := newTestProxy(t, u, Options{})
	get(t, p, "/v1/page?path=/p", nil)

	r := httptest.NewRequest(http.MethodPost, "/v1/purge?path=/p", nil)
	w := httptest.NewRecorder()
	p.ServeHTTP(w, r)
	if w.Code != http.StatusNoContent || w.Body.Len() != 0 {
		t.Fatalf("purge: code = %d body = %q, want 204 and no body", w.Code, w.Body.String())
	}

	get(t, p, "/v1/page?path=/p", nil)
	if n := u.fetches.Load(); n != 2 {
		t.Fatalf("fetches after purge = %d, want 2", n)
	}

	w = httptest.NewRecorder()
	p.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/purge", nil))
	var eb httpbody.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusBadRequest || eb.Error.Code != httpbody.CodeBadRequest {
		t.Fatalf("purge without ?path=: %d %q, want the envelope's 400", w.Code, w.Body.String())
	}
}

// TestPurgeKeepsConnection: a best-effort sender that closes every purge
// response unread still reuses one connection, because the answer has no
// body left to discard.
func TestPurgeKeepsConnection(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	p := newTestProxy(t, u, Options{})
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(p.Handler())
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
	for i := 0; i < purges; i++ {
		get(t, p, "/v1/page?path=/p", nil)
		resp, err := hc.Post(srv.URL+"/v1/purge?path=/p", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent || resp.ContentLength != 0 {
			t.Fatalf("purge %d: status %d length %d, want 204 with no body", i, resp.StatusCode, resp.ContentLength)
		}
	}
	if n := u.fetches.Load(); n != purges {
		t.Fatalf("%d upstream fetches for %d purged reads, want one each", n, purges)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d purges opened %d connections, want 1", purges, n)
	}
}

func TestNoStoreNotCached(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "private-ish", 1)
	u.noStore = true
	p := newTestProxy(t, u, Options{})

	get(t, p, "/v1/page?path=/p", nil)
	get(t, p, "/v1/page?path=/p", nil)
	if n := u.fetches.Load(); n != 2 {
		t.Fatalf("no-store fetches = %d, want 2 (never cached)", n)
	}
}

// TestUnversionedPathsAreNotRoutes: the edge's surface is closed. Only
// GET /v1/page, GET /v1/sketch and POST /v1/purge are routes; the old
// unversioned spellings, the origin's own routes (the personalized blocks
// API above all) and a known path under another method are the edge's own
// 404 in the JSON envelope. That answer reaches no upstream and repeats
// nothing the request carried. A page fetch that carries identity reaches
// the upstream without it.
func TestUnversionedPathsAreNotRoutes(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	u.set("/q", "other", 1)
	p := newTestProxy(t, u, Options{})
	prime(t, p)
	get(t, p, "/v1/page?path=/p", nil)

	const user = "u-4711"
	identity := map[string]string{"Cookie": "session=" + user, "Authorization": "Bearer " + user}
	for _, row := range []struct {
		method, target string
		body           []byte
		hdr            map[string]string
		upstream       int64 // requests that may reach the upstream
	}{
		{method: http.MethodGet, target: "/page?path=/p"},
		{method: http.MethodPost, target: "/purge?path=/p"},
		{method: http.MethodPost, target: "/v1/blocks", body: httpbody.BlocksRequest(user, []string{"cart"}), hdr: identity},
		{method: http.MethodPost, target: "/v1/write", body: []byte(`{"collection":"products","id":"` + user + `"}`)},
		{method: http.MethodGet, target: "/v1/stats"},
		{method: http.MethodGet, target: "/v1/purge?path=/p"},
		{method: http.MethodPost, target: "/v1/page?path=/p"},
		{method: http.MethodPut, target: "/v1/sketch"},
		{method: http.MethodGet, target: "/v1/page?path=/q", hdr: identity, upstream: 1},
	} {
		r := httptest.NewRequest(row.method, row.target, bytes.NewReader(row.body))
		for k, v := range row.hdr {
			r.Header.Set(k, v)
		}
		before := u.requests.Load()
		w := httptest.NewRecorder()
		p.ServeHTTP(w, r)
		if n := u.requests.Load() - before; n != row.upstream {
			t.Errorf("%s %s: %d upstream requests, want %d", row.method, row.target, n, row.upstream)
		}
		if row.upstream > 0 {
			if w.Code != http.StatusOK || w.Body.String() != "other" {
				t.Errorf("%s %s: %d %q, want the page", row.method, row.target, w.Code, w.Body.String())
			}
			continue
		}
		var eb httpbody.ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusNotFound || eb.Error.Code != httpbody.CodeNotFound {
			t.Errorf("%s %s: %d %q (%v), want the envelope's 404", row.method, row.target, w.Code, w.Body.String(), err)
		}
		if strings.Contains(w.Body.String(), user) || strings.Contains(w.Body.String(), r.URL.Path) {
			t.Errorf("%s %s: the 404 repeats the request: %q", row.method, row.target, w.Body.String())
		}
	}
	if n := u.identified.Load(); n != 0 {
		t.Fatalf("%d upstream requests carried Cookie or Authorization, want none", n)
	}
	if w := get(t, p, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != "hit" {
		t.Fatalf("POST /purge evicted the entry: state %q", w.Header().Get("X-Edge-Cache"))
	}
	if s := p.Stats(); s.Purges != 0 {
		t.Fatalf("%d purges applied, want none", s.Purges)
	}
}

// TestRevalidationAnswerKeepsToTheAllowList: an upstream answer the edge
// hands on from a revalidation reaches the device through the same header
// allow-list as a miss. A 404 for a path that is gone carries its status,
// body and protocol headers, and nothing else the upstream set.
func TestRevalidationAnswerKeepsToTheAllowList(t *testing.T) {
	var gone atomic.Bool
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gone.Load() {
			w.Header().Set("Set-Cookie", "session=u-4711")
			w.Header().Set("X-Foo", "bar")
			httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "gone")
			return
		}
		w.Header().Set("Cache-Control", "max-age=60")
		w.Header().Set("ETag", `"v1"`)
		io.WriteString(w, "body")
	}))
	defer upstream.Close()
	p, _, err := New(Options{Upstream: upstream.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	get(t, p, "/v1/page?path=/p", nil)
	gone.Store(true)
	p.InstallSketch(snapshotWith(1, "/p"))

	w := get(t, p, "/v1/page?path=/p", nil)
	var eb httpbody.ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusNotFound || eb.Error.Code != httpbody.CodeNotFound {
		t.Fatalf("revalidation of a gone path: %d %q (%v), want the upstream's 404", w.Code, w.Body.String(), err)
	}
	for _, k := range []string{"Set-Cookie", "X-Foo"} {
		if v := w.Header().Get(k); v != "" {
			t.Errorf("the edge relayed %s: %q", k, v)
		}
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want the upstream's application/json", ct)
	}
	if _, ok := p.mem.PeekAny("/p"); ok {
		t.Fatal("the copy of a gone path is still held")
	}
}

func TestServeStaleOnUpstreamFailure(t *testing.T) {
	u := newFakeUpstream()
	u.set("/p", "survivor", 1)
	clk := clock.NewSimulated(time.Unix(1000, 0))
	p := newTestProxy(t, u, Options{Clock: clk})
	u.mu.Lock()
	u.maxAge = 1
	u.mu.Unlock()
	get(t, p, "/v1/page?path=/p", nil)

	// Expire the entry, then kill the upstream: the edge serves the
	// stale copy instead of failing the request.
	clk.Advance(5 * time.Second)
	u.close()
	w := get(t, p, "/v1/page?path=/p", nil)
	if w.Code != http.StatusOK || w.Body.String() != "survivor" {
		t.Fatalf("stale serve: code=%d body=%q", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Edge-Cache") != "stale" {
		t.Fatalf("state = %q, want stale", w.Header().Get("X-Edge-Cache"))
	}
}

func TestMetricsExposition(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	p := newTestProxy(t, u, Options{})
	prime(t, p)
	h := p.Handler()
	get(t, h, "/v1/page?path=/p", nil)
	get(t, h, "/v1/page?path=/p", nil)

	w := get(t, h, "/metrics", nil)
	out := w.Body.String()
	for _, want := range []string{
		"speedkit_edge_hits_total 1\n",
		"speedkit_edge_misses_total 1\n",
	} {
		if !contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if contains(out, "bypass") || contains(out, "range") {
		t.Fatalf("exposition counts what the edge no longer does:\n%s", out)
	}
}

// TestEdgesCountApart: each Proxy counts into a registry of its own, so
// two edges in one process report only their own traffic.
func TestEdgesCountApart(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	a := newTestProxy(t, u, Options{})
	b := newTestProxy(t, u, Options{})
	prime(t, a)
	get(t, a.Handler(), "/v1/page?path=/p", nil)
	get(t, a.Handler(), "/v1/page?path=/p", nil)
	if s := a.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("edge a: %+v, want 1 miss and 1 hit", s)
	}
	if s := b.Stats(); s != (Stats{}) {
		t.Fatalf("edge b served nothing and counts %+v", s)
	}
	if out := get(t, b.Handler(), "/metrics", nil).Body.String(); !contains(out, "speedkit_edge_misses_total 0\n") {
		t.Fatalf("edge b's scrape counts edge a's traffic:\n%s", out)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
