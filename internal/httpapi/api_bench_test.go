package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/httpbody"
	"speedkit/internal/obs"
	"speedkit/internal/session"
	"speedkit/internal/workload"
)

// newBenchAPI builds the server a benchmark sends to: the storefront over
// listingProducts products, untraced, on a simulated clock that never
// advances, so the in-process cdn tier holds every page it has served.
// users[0] is a logged-in, consenting user.
func newBenchAPI(b *testing.B) (*API, []*session.User) {
	b.Helper()
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: clock.NewSimulated(time.Time{}), Seed: 1, Delta: 30 * time.Second,
			Obs: obs.NewRegistry(),
		},
		Products: listingProducts,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	users := session.Population(1, 10)
	users[0].LoggedIn, users[0].ConsentPersonalization = true, true
	return New(svc, users), users
}

// BenchmarkAPIPage measures the origin's page answer for a shell its cdn
// tier already holds, routed through Handler as a listener routes it:
// the path's parsing, the service's cdn hit and the answer's headers and
// body. The listing is the ≈4.3 KB shell a category page sends, twice
// net/http's chunking threshold.
func BenchmarkAPIPage(b *testing.B) {
	for _, c := range []struct{ name, path string }{
		{"product", "/product/p00001"},
		{"listing", workload.CategoryPath(workload.Categories[0])},
	} {
		b.Run(c.name, func(b *testing.B) {
			a, _ := newBenchAPI(b)
			h := a.Handler()
			r := httptest.NewRequest(http.MethodGet, "/v1/page?path="+c.path, nil)
			h.ServeHTTP(httptest.NewRecorder(), r) // the render the cdn then holds
			renders := a.svc.Stats().OriginRenders
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("page: %d", w.Code)
				}
			}
			b.StopTimer()
			if n := a.svc.Stats().OriginRenders - renders; n != 0 {
				b.Fatalf("%d origin renders in %d iterations: the cdn stopped holding the page", n, b.N)
			}
		})
	}
}

// BenchmarkAPIBlocks measures the first-party blocks answer a logged-in
// device sends for its recommendations: the framed body's reading, the
// fragment's render and the framed answer.
func BenchmarkAPIBlocks(b *testing.B) {
	a, users := newBenchAPI(b)
	h := a.Handler()
	body := httpbody.BlocksRequest(users[0].ID, []string{"reco"})
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/blocks", rd)
	r.Body = io.NopCloser(rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("blocks: %d %s", w.Code, w.Body)
		}
	}
}
