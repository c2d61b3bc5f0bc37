package edge

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"speedkit/internal/cachesketch"
	"speedkit/internal/tracectx"
)

// TestHitServeAllocations pins what an edge hit costs, routed as a
// listener routes it (Handler): one values array, one string holding the
// Cache-Control and Age numbers, and the fresh header map, for the path a
// device sends (as it is written); a sender that escapes the path's '/'
// adds its unescaping. The routing, the query, the key, the ETag, the
// Content-Length, the X-Edge-Cache state and the epoch (the held sketch's
// header value, shared as received) add nothing.
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
	if w := get(t, h, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != "miss" {
		t.Fatalf("warming fetch: %s", w.Header().Get("X-Edge-Cache"))
	}
	for _, c := range []struct {
		target string
		want   int
	}{
		{"/v1/page?path=/p", hitServeAllocs},
		{"/v1/page?path=%2Fp", hitServeAllocs + 1},
	} {
		r := httptest.NewRequest(http.MethodGet, c.target, nil)
		var w discardWriter
		n := testing.AllocsPerRun(200, func() {
			w = discardWriter{h: http.Header{}} // fresh, as net/http's is
			h.ServeHTTP(w, r)
		})
		if n > float64(c.want) {
			t.Fatalf("a hit for %s allocates %.0f, want at most %d", c.target, n, c.want)
		}
		if w.h.Get("X-Edge-Cache") != "hit" || cachesketch.PageEpoch(w.h) != srv.Epoch() {
			t.Fatalf("hit answered %s stating epoch %v, want a hit stating %x", w.h.Get("X-Edge-Cache"), w.h[cachesketch.EpochHeader], srv.Epoch())
		}
	}
}

// hitServeAllocs is what a hit allocates, its fresh header map included
// (6 while a device sent the path escaped).
const hitServeAllocs = 5

// TestCopyTraceparent: a valid traceparent is forwarded under the key a
// received header map holds it by, sharing the request's value, so the
// lookup and the copy allocate nothing; a malformed one is dropped.
func TestCopyTraceparent(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=%2Fp", nil)
	r.Header.Set(tracectx.Header, tp) // stored as a server stores it received
	dst := http.Header{}
	n := testing.AllocsPerRun(100, func() { copyTraceparent(r, dst) })
	if got := dst.Get(tracectx.Header); got != tp {
		t.Fatalf("forwarded traceparent %q, want %q", got, tp)
	}
	if n != 0 {
		t.Fatalf("copying the traceparent allocates %.0f, want 0", n)
	}
	r.Header.Set(tracectx.Header, "00-zz")
	dst = http.Header{}
	if copyTraceparent(r, dst); len(dst) != 0 {
		t.Fatalf("a malformed traceparent was forwarded: %v", dst)
	}
}
