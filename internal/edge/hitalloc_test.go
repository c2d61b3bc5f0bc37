package edge

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"speedkit/internal/cachesketch"
)

// TestHitServeAllocations pins what an edge hit costs, routed as a
// listener routes it (Handler) for the path a device sends (escaped): the
// path's unescaping, one values array, one string holding the Cache-Control
// and Age numbers, and the fresh header map. The routing, the query, the
// ETag, the Content-Length, the X-Edge-Cache state and the epoch (the held
// sketch's header value, shared as received) add nothing.
func TestHitServeAllocations(t *testing.T) {
	srv := cachesketch.NewServer(cachesketch.ServerConfig{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sketch" {
			if err := srv.Snapshot().WriteHTTP(w, "public, max-age=3600", 0); err != nil {
				t.Error(err)
			}
			return
		}
		w.Header().Set("Cache-Control", "public, max-age=3600")
		w.Header().Set("ETag", `"v3"`)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, "the warm body the POP serves all day")
	}))
	defer upstream.Close()
	p, _, err := New(Options{Upstream: upstream.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := p.Handler()
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=%2Fp", nil)
	if w := get(t, h, "/v1/page?path=%2Fp", nil); w.Header().Get("X-Edge-Cache") != "miss" {
		t.Fatalf("warming fetch: %s", w.Header().Get("X-Edge-Cache"))
	}
	var w discardWriter
	n := testing.AllocsPerRun(200, func() {
		w = discardWriter{h: http.Header{}} // fresh, as net/http's is
		h.ServeHTTP(w, r)
	})
	if n > hitServeAllocs {
		t.Fatalf("a hit allocates %.0f, want at most %d", n, hitServeAllocs)
	}
	if w.h.Get("X-Edge-Cache") != "hit" || cachesketch.PageEpoch(w.h) != srv.Epoch() {
		t.Fatalf("hit answered %s stating epoch %v, want a hit stating %x", w.h.Get("X-Edge-Cache"), w.h[cachesketch.EpochHeader], srv.Epoch())
	}
}

// hitServeAllocs is what a hit allocates, its fresh header map included.
const hitServeAllocs = 6
