package edge

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"speedkit/internal/cachesketch"
)

// BenchmarkEdgeHit measures the steady-state serving path: an in-memory
// hit answered without touching the upstream, under a sketch within Δ —
// the latency every POP request pays once the working set is warm. The
// request is routed as a listener routes it (Handler) and names its path
// escaped, the form whose unescaping costs the hit an allocation (a device
// sends it as it is written: see TestHitServeAllocations).
func BenchmarkEdgeHit(b *testing.B) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "the warm body the POP serves all day", 1)
	p, _, err := New(Options{Upstream: u.srv.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	prime(b, p)
	h := p.Handler()
	// Warm the entry; every timed iteration is a pure hit.
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=%2Fp", nil)
	if w := httptest.NewRecorder(); true {
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("warmup: %d", w.Code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("hit: %d", w.Code)
		}
	}
	b.StopTimer()
	if s := p.Stats(); s.Hits != uint64(b.N) {
		b.Fatalf("%d hits in %d iterations: the sketch stopped vouching", s.Hits, b.N)
	}
}

// BenchmarkEdgeCoalescedMiss measures the stampede path: 8 concurrent
// requests race one cold key, the leader fetches from the upstream over
// real loopback HTTP, and the waiters stream from its in-flight fill.
// ns/op is the cost of one whole coalesced group, upstream round trip
// included.
func BenchmarkEdgeCoalescedMiss(b *testing.B) {
	u := newFakeUpstream()
	defer u.close()
	p, _, err := New(Options{Upstream: u.srv.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// A racer that arrives after the fill committed is a hit, as behind a
	// polling edge, not a revalidation for want of a sketch.
	prime(b, p)
	const racers = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := fmt.Sprintf("/cold/%d", i)
		u.set(path, "a cold body fetched once and fanned out", 1)
		target := "/v1/page?path=" + path
		b.StartTimer()
		var wg sync.WaitGroup
		for r := 0; r < racers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
				if w.Code != http.StatusOK {
					b.Error("miss:", w.Code)
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkEdgeSketchServe measures a device's sketch fetch answered from
// the edge's own copy: the request every device makes once per Δ, which
// used to be a relay to the server and back.
func BenchmarkEdgeSketchServe(b *testing.B) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		sn := cachesketch.NewServer(cachesketch.ServerConfig{}).Snapshot()
		if err := sn.WriteHTTP(w, "public, max-age=3600", 0); err != nil {
			b.Error(err)
		}
	}))
	defer upstream.Close()
	p, _, err := New(Options{Upstream: upstream.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if err := p.RefreshSketch(context.Background()); err != nil {
		b.Fatal(err)
	}
	h := p.Handler()
	r := httptest.NewRequest(http.MethodGet, "/v1/sketch", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get("X-Edge-Cache") != "sketch" {
			b.Fatalf("sketch serve: %d %q", w.Code, w.Header().Get("X-Edge-Cache"))
		}
	}
	b.StopTimer()
	if s := p.Stats(); s.SketchRefreshes != 1 {
		b.Fatalf("%d upstream sketch fetches, want the one that warmed the copy", s.SketchRefreshes)
	}
}

// BenchmarkEdgePurge measures one purge the way the invalidation
// pipeline sends it: a POST over real loopback HTTP from a client that
// closes the response unread. ns/op and allocs are the sender's and the
// edge's together, so a purge answer that costs the sender its
// connection shows up here as a dial per op.
func BenchmarkEdgePurge(b *testing.B) {
	u := newFakeUpstream()
	defer u.close()
	p, _, err := New(Options{Upstream: u.srv.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	target := srv.URL + "/v1/purge?path=/p"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(target, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			b.Fatalf("purge: %d", resp.StatusCode)
		}
	}
}
