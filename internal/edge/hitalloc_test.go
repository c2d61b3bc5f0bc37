package edge

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"speedkit/internal/cachesketch"
)

// TestHitServeAllocations pins what an edge hit costs: the epoch it
// states is the held sketch's header value, shared as received, so it adds
// nothing to what a hit cost without it.
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
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=/p", nil)
	if w := get(t, p, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != "miss" {
		t.Fatalf("warming fetch: %s", w.Header().Get("X-Edge-Cache"))
	}
	var w discardWriter
	n := testing.AllocsPerRun(200, func() {
		w = discardWriter{h: http.Header{}} // fresh, as net/http's is
		p.ServeHTTP(w, r)
	})
	if n > hitServeAllocs {
		t.Fatalf("a hit allocates %.0f, want at most %d", n, hitServeAllocs)
	}
	if w.h.Get("X-Edge-Cache") != "hit" || cachesketch.PageEpoch(w.h) != srv.Epoch() {
		t.Fatalf("hit answered %s stating epoch %v, want a hit stating %x", w.h.Get("X-Edge-Cache"), w.h[cachesketch.EpochHeader], srv.Epoch())
	}
}

// hitServeAllocs is what a hit allocates, its fresh header map included.
const hitServeAllocs = 16
