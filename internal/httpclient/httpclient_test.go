package httpclient

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/core"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpbody"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
)

// newStack spins a full HTTP stack: storefront service (REAL clock, since
// HTTP clients measure wall time), httpapi server, and a device proxy
// driving the protocol over the wire.
func newStack(t *testing.T, u *session.User) (*proxy.Proxy, *core.Service, *httptest.Server) {
	t.Helper()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: realClock{},
			Delta: 30 * time.Second,
			Seed:  1,
		},
		Products: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	var users []*session.User
	if u != nil {
		users = []*session.User{u}
	}
	ts := httptest.NewServer(httpapi.New(svc, users).Handler())
	t.Cleanup(ts.Close)

	tr := NewDirect(ts.URL, ts.Client())
	dev := proxy.NewSplit(proxy.Config{
		User:  u,
		Delta: 30 * time.Second,
	}, tr, tr)
	return dev, svc, ts
}

// realClock avoids importing clock in every call site.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func loggedInUser() *session.User {
	u := &session.User{ID: "u-wire", Name: "Wire", LoggedIn: true,
		Tier: "gold", ConsentPersonalization: true}
	u.AddToCart("p00001", 4)
	return u
}

func TestEndToEndOverHTTP(t *testing.T) {
	u := loggedInUser()
	dev, _, _ := newStack(t, u)

	res, err := dev.Load(context.Background(), "/product/p00003")
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchRefreshed {
		t.Fatal("cold load pulled a sketch with no copy for it to vouch for")
	}
	if res.Source != proxy.SourceOrigin {
		t.Fatalf("cold source = %v", res.Source)
	}
	body := string(res.Body)
	if !strings.Contains(body, "4 items") {
		t.Fatalf("personalization lost over the wire: %s", body)
	}
	if strings.Contains(body, "<!--block:") {
		t.Fatal("placeholders survived")
	}

	// Second load: the sketch over HTTP, then the device cache.
	res, err = dev.Load(context.Background(), "/product/p00003")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != proxy.SourceDevice || !res.SketchRefreshed {
		t.Fatalf("warm source = %v, sketch refreshed %v", res.Source, res.SketchRefreshed)
	}
}

func TestWriteInvalidationVisibleOverHTTP(t *testing.T) {
	dev, svc, _ := newStack(t, nil)
	path := "/product/p00007"
	if _, err := dev.Load(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if err := svc.Docs().Patch("products", "p00007", map[string]any{"price": 2.22}); err != nil {
		t.Fatal(err)
	}
	// Let the CDN purge propagate (10 ms wall clock — this stack runs on
	// the real clock); inside that window a revalidation may legally be
	// answered by the pre-purge edge copy, with staleness bounded by the
	// propagation delay.
	time.Sleep(25 * time.Millisecond)

	// A brand-new device holds no copy → fetches the page, which the purge
	// has taken from the CDN → sees v2 with the new price.
	tr := transportOf(t, svc)
	dev2 := proxy.NewSplit(proxy.Config{Delta: 30 * time.Second}, tr, tr)
	res, err := dev2.Load(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || !strings.Contains(string(res.Body), "2.22") {
		t.Fatalf("post-write load over HTTP: v%d", res.Version)
	}
}

// serverURLs memoizes one httptest server per service for helper use.
var serverURLs = map[*core.Service]string{}

func mustServerURL(t *testing.T, svc *core.Service) string {
	t.Helper()
	if u, ok := serverURLs[svc]; ok {
		return u
	}
	ts := httptest.NewServer(httpapi.New(svc, nil).Handler())
	t.Cleanup(ts.Close)
	serverURLs[svc] = ts.URL
	return ts.URL
}

func transportOf(t *testing.T, svc *core.Service) *Transport {
	return NewDirect(mustServerURL(t, svc), nil)
}

func TestConditionalRevalidationOverHTTP(t *testing.T) {
	u := loggedInUser()
	dev, svc, _ := newStack(t, u)
	path := "/product/p00009"
	if _, err := dev.Load(context.Background(), path); err != nil {
		t.Fatal(err)
	}

	// Flag the page WITHOUT a version change (false-positive scenario):
	// report + write on an unrelated colliding key is hard to force, so
	// report a cached copy and write, then revert the version by checking
	// the 304 directly through the transport.
	tr := transportOf(t, svc)
	rr, err := tr.Revalidate(context.Background(), path, svc.Origin().Version(path))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.NotModified {
		t.Fatal("matching version not answered with 304 over HTTP")
	}
	if rr.Entry.ExpiresAt.IsZero() {
		t.Fatal("304 did not carry a renewed max-age")
	}

	// And a stale version gets the full new body.
	_ = svc.Docs().Patch("products", "p00009", map[string]any{"price": 8.88})
	rr, err = tr.Revalidate(context.Background(), path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.NotModified || rr.Entry.Version != 2 {
		t.Fatalf("stale revalidation: %+v", rr)
	}
}

func TestOfflineWithFreshSketchNeedsNoNetwork(t *testing.T) {
	// Within Δ, a cached page is served entirely from the device — the
	// network may be down without the load even noticing.
	u := loggedInUser()
	dev, _, ts := newStack(t, u)
	if _, err := dev.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	res, err := dev.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("cached load failed after server shutdown: %v", err)
	}
	if res.Source != proxy.SourceDevice || res.Offline {
		t.Fatalf("expected silent device hit, got %+v", res)
	}
}

func TestOfflineModeOverHTTP(t *testing.T) {
	u := loggedInUser()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: realClock{}, Seed: 1},
		Products: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.New(svc, []*session.User{u}).Handler())
	defer ts.Close()

	// Δ of one nanosecond: every load must contact the sketch endpoint,
	// so a dead network is always noticed.
	tr := NewDirect(ts.URL, ts.Client())
	dev := proxy.NewSplit(proxy.Config{User: u, Delta: time.Nanosecond}, tr, tr)

	if _, err := dev.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	ts.Close() // network gone

	res, err := dev.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("offline load failed: %v", err)
	}
	if !res.Offline {
		t.Fatal("load not marked offline")
	}
	if !strings.Contains(string(res.Body), "Wire") {
		t.Fatal("offline page lost personalization")
	}
}

func TestFetchUnknownPathOverHTTP(t *testing.T) {
	dev, _, _ := newStack(t, nil)
	if _, err := dev.Load(context.Background(), "/no/such/page"); err == nil {
		t.Fatal("unknown path loaded")
	}
}

func TestBlocksOverHTTPAnonymous(t *testing.T) {
	_, svc, _ := newStack(t, nil)
	tr := transportOf(t, svc)
	frs, err := tr.FetchBlocks(context.Background(), []string{"greeting"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 1 || !strings.Contains(string(frs[0]), "Welcome!") {
		t.Fatalf("fragments %q, want one greeting", frs)
	}
}

// TestBlocksUserLeavesTheURL: the user ID travels in the framed POST
// body; the URL, which intermediaries log and key on, carries nothing.
func TestBlocksUserLeavesTheURL(t *testing.T) {
	var method, target string
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method, target = r.Method, r.URL.RequestURI()
		body, _ = io.ReadAll(r.Body)
		w.Write(httpbody.BlocksResponse([][]byte{[]byte("4 items"), nil}))
	}))
	t.Cleanup(ts.Close)
	frs, err := NewDirect(ts.URL, ts.Client()).FetchBlocks(context.Background(), []string{"cart", "tier"}, loggedInUser())
	if err != nil {
		t.Fatal(err)
	}
	if method != http.MethodPost || target != "/v1/blocks" || !bytes.Equal(body, httpbody.BlocksRequest("u-wire", []string{"cart", "tier"})) {
		t.Fatalf("sent %s %s with body %q", method, target, body)
	}
	if len(frs) != 2 || string(frs[0]) != "4 items" || len(frs[1]) != 0 {
		t.Fatalf("fragments %q", frs)
	}
}

// TestParseVersionETag: a page answer's entry carries the version its
// ETag names, weak or strong; an ETag that names none reads version 0.
func TestParseVersionETag(t *testing.T) {
	tr := NewDirect("http://unused", nil)
	for tag, want := range map[string]uint64{`"v42"`: 42, `W/"v7"`: 7, `"x"`: 0, "": 0} {
		resp := &http.Response{Header: http.Header{"Etag": {tag}}}
		if got := tr.entryFromResponse("/p", resp, nil).Version; got != want {
			t.Errorf("ETag %q: version %d, want %d", tag, got, want)
		}
	}
}

// TestEntryFromResponseAllocations pins what reading a page answer's
// headers into an entry costs on the device: nothing for the ETag, the
// max-age and the epoch; only the metadata map an X-Blocks value is kept
// in.
func TestEntryFromResponseAllocations(t *testing.T) {
	tr := NewDirect("http://unused", nil)
	resp := &http.Response{Header: http.Header{
		"Etag":                  {`"v42"`},
		"Cache-Control":         {"public, max-age=60"},
		cachesketch.EpochHeader: {"00000000000000aa"},
		"X-Blocks":              {"cart,tier"},
	}}
	body := []byte("<html>shell</html>")
	var e cache.Entry
	withBlocks := testing.AllocsPerRun(100, func() { e = tr.entryFromResponse("/p", resp, body) })
	if e.Version != 42 || e.Epoch != 0xaa || e.Metadata["blocks"] != "cart,tier" || e.ExpiresAt.IsZero() {
		t.Fatalf("entry %+v", e)
	}
	delete(resp.Header, "X-Blocks")
	without := testing.AllocsPerRun(100, func() { e = tr.entryFromResponse("/p", resp, body) })
	if without != 0 || withBlocks > 2 {
		t.Fatalf("entryFromResponse allocates %.0f, %.0f with X-Blocks; want 0 and at most 2", without, withBlocks)
	}
}

// TestIfNoneMatchIsOneAllocation: a revalidation states the ETag of the
// version it holds, the value and the slice holding it in one
// allocation.
func TestIfNoneMatchIsOneAllocation(t *testing.T) {
	for _, v := range []uint64{0, 7, 1<<64 - 1} {
		if got := ifNoneMatch(v); len(got) != 1 || got[0] != httpbody.ETag(v) {
			t.Fatalf("ifNoneMatch(%d) = %q, want [%s]", v, got, httpbody.ETag(v))
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = ifNoneMatch(1<<64 - 1) }); n != 1 {
		t.Fatalf("ifNoneMatch allocates %.0f, want 1", n)
	}
}
