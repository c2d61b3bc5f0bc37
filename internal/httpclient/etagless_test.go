package httpclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/edge"
	"speedkit/internal/proxy"
)

// TestETaglessUpstreamNeverYieldsAnEmptyPage: an edge fills its copy from
// an upstream answer without an ETag, so the copy counts as version 0, and
// the upstream serves no sketch. A device that holds no copy must fetch
// the page. A conditional request for version 0 would be answered by that
// edge with a 304 and no page to keep.
func TestETaglessUpstreamNeverYieldsAnEmptyPage(t *testing.T) {
	const body = "<html>no etag</html>"
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/page" {
			http.Error(w, "no sketch here", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Cache-Control", "public, max-age=600")
		io.WriteString(w, body)
	}))
	defer upstream.Close()
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	ed, _, err := edge.New(edge.Options{Upstream: upstream.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	edgeSrv := httptest.NewServer(ed.Handler())
	defer edgeSrv.Close()

	// The first device fills the edge; the second finds its version-0 copy.
	for _, name := range []string{"filling device", "second device"} {
		tr := NewDirect(edgeSrv.URL, edgeSrv.Client())
		tr.clk = clk
		dev := proxy.NewSplit(proxy.Config{Delta: 30 * time.Second, Clock: clk}, tr, tr)
		res, err := dev.Load(context.Background(), "/p")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(res.Body) != body {
			t.Fatalf("%s: page %q, want %q", name, res.Body, body)
		}
	}
}
