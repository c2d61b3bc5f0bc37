package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
	"unsafe"

	"speedkit/internal/cachesketch"
	"speedkit/internal/netsim"
)

// headerWriter is a ResponseWriter that keeps only its header map, so
// what a handler allocates is the handler's own.
type headerWriter struct{ h http.Header }

func (d headerWriter) Header() http.Header         { return d.h }
func (d headerWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d headerWriter) WriteHeader(int)             {}

// TestWritePageAllocations pins what writing a page answer costs: one
// string holding the Cache-Control, ETag and Content-Length values, one
// array holding every value of its own the answer states, and the fresh
// header map. The Content-Type and the sketch epoch are shared slices,
// formatted once.
func TestWritePageAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, _, _ := newTestAPI(t)
	entry, _, src, err := a.svc.Fetch(context.Background(), netsim.EU, "/product/p00001")
	if err != nil {
		t.Fatal(err)
	}
	var w headerWriter
	n := testing.AllocsPerRun(200, func() {
		w = headerWriter{h: http.Header{}} // fresh, as net/http's is
		a.writePage(w, entry, src.String())
	})
	if n > writePageAllocs {
		t.Fatalf("writePage allocates %.0f, want at most %d", n, writePageAllocs)
	}
	if cachesketch.PageEpoch(w.h) != a.svc.SketchServer().Epoch() {
		t.Fatalf("the page answer states epoch %v, want the server's %x", w.h[cachesketch.EpochHeader], a.svc.SketchServer().Epoch())
	}
}

// writePageAllocs is what writePage allocates, its fresh header map
// included (14 while each header was Set and the numbers Sprintf'd).
const writePageAllocs = 4

// TestPageAnswerAllocations pins a whole page answer through the routed
// handler, the revalidation a device or an edge sends most: a 304 for a
// version the CDN tier still holds. Beside the answer's own headers
// (setPageHeaders: one string, one array) it costs what the request's
// trace, the path the service keeps and the service's revalidation cost:
// the path is one allocation whether it was sent as it is written (a copy
// off the request line) or escaped (the unescaping). The routing, the
// query parsing, the traceparent lookup and the simulated link's node
// names add nothing of their own.
func TestPageAnswerAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, _, _ := newTestAPI(t)
	a.svc.Tracer().SetSampleEvery(0)
	h := a.Handler()
	for _, target := range []string{"/v1/page?path=/product/p00001", "/v1/page?path=%2Fproduct%2Fp00001"} {
		warm := httptest.NewRecorder()
		h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, target, nil))
		r := httptest.NewRequest(http.MethodGet, target, nil)
		r.Header.Set("If-None-Match", warm.Header().Get("ETag"))
		var w headerWriter
		n := testing.AllocsPerRun(200, func() {
			w = headerWriter{h: http.Header{}}
			h.ServeHTTP(w, r)
		})
		if w.h.Get("ETag") != warm.Header().Get("ETag") || w.h.Get("Cache-Control") == "" {
			t.Fatalf("revalidation of %s answered %v", target, w.h)
		}
		if n > pageAnswerAllocs {
			t.Fatalf("a 304 page answer for %s allocates %.0f, want at most %d", target, n, pageAnswerAllocs)
		}
	}
}

// pageAnswerAllocs is what a routed 304 page answer allocates (12 while
// the traceparent lookup canonicalized its key and node names were
// formatted per request).
const pageAnswerAllocs = 5

// raceEnabled reports whether the test binary was built with the race
// detector: its instrumentation adds allocations (sync.Pool drops items at
// random), so allocation pins hold only without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestStoredPathIsOwned: a path sent as it is written reaches the service
// as a window onto the request line. What the service keeps of it — the
// cdn tier's copy of a page it rendered — is a copy, so no stored key
// keeps a request line alive.
func TestStoredPathIsOwned(t *testing.T) {
	a, _, _ := newTestAPI(t)
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=/product/p00002", nil)
	w := httptest.NewRecorder()
	a.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("page: %d", w.Code)
	}
	e, ok := a.svc.CDN().Edge(netsim.EU).Lookup("/product/p00002")
	if !ok {
		t.Fatal("the cdn tier holds no copy of the page it rendered")
	}
	q := r.URL.RawQuery
	start, at := uintptr(unsafe.Pointer(unsafe.StringData(q))), uintptr(unsafe.Pointer(unsafe.StringData(e.Key)))
	if at >= start && at < start+uintptr(len(q)) {
		t.Fatalf("the cdn tier keeps %q as a window onto the request's query %q", e.Key, q)
	}
}
