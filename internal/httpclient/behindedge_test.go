package httpclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/httpbody"
	"speedkit/internal/netsim"
)

// tierRecorder is one host of the split topology: it answers every /v1
// route and keeps the method and path of each request it saw.
type tierRecorder struct {
	mu   sync.Mutex
	seen []string
	srv  *httptest.Server
}

func newTierRecorder(t *testing.T) *tierRecorder {
	rec := &tierRecorder{}
	rec.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.mu.Lock()
		rec.seen = append(rec.seen, r.Method+" "+r.URL.Path)
		rec.mu.Unlock()
		switch r.URL.Path {
		case "/v1/sketch":
			sn := &cachesketch.Snapshot{Filter: bloom.NewFilterForCapacity(64, 0.01)}
			if err := sn.WriteHTTP(w, "public, max-age=30", 0); err != nil {
				t.Error(err)
			}
		case "/v1/page":
			w.Header().Set("ETag", `"v1"`)
			w.Header().Set("Cache-Control", "max-age=60")
			if r.Header.Get("If-None-Match") == `"v1"` {
				w.WriteHeader(http.StatusNotModified)
				return
			}
			io.WriteString(w, "<html>shell</html>")
		case "/v1/blocks":
			_, names, err := httpbody.ReadBlocksRequest(r)
			if err != nil {
				httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, err.Error())
				return
			}
			w.Write(httpbody.BlocksResponse(names, map[string][]byte{"reco": []byte("for you")}))
		default:
			httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such endpoint")
		}
	}))
	t.Cleanup(rec.srv.Close)
	return rec
}

func (rec *tierRecorder) take() []string {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	seen := rec.seen
	rec.seen = nil
	return seen
}

// TestBehindEdgeSendsBlocksToTheOrigin: the split transport sends the
// anonymous requests — sketch, page, revalidation — to the edge, and the
// one request that carries a user ID to the origin alone.
func TestBehindEdgeSendsBlocksToTheOrigin(t *testing.T) {
	edgeTier, originTier := newTierRecorder(t), newTierRecorder(t)
	tr := NewBehindEdge(edgeTier.srv.URL+"/", originTier.srv.URL, nil)
	ctx := context.Background()
	for _, row := range []struct {
		call                 string
		do                   func() error
		wantEdge, wantOrigin string
	}{
		{"FetchSketch", func() error {
			_, _, err := tr.FetchSketch(ctx, netsim.EU)
			return err
		}, "GET /v1/sketch", ""},
		{"Fetch", func() error {
			_, _, _, err := tr.Fetch(ctx, netsim.EU, "/p")
			return err
		}, "GET /v1/page", ""},
		{"Revalidate", func() error {
			res, err := tr.Revalidate(ctx, netsim.EU, "/p", 1)
			if err == nil && !res.NotModified {
				t.Errorf("Revalidate: %+v, want not modified", res)
			}
			return err
		}, "GET /v1/page", ""},
		{"FetchBlocks", func() error {
			frs, _, err := tr.FetchBlocks(ctx, netsim.EU, []string{"reco"}, loggedInUser())
			if err == nil && string(frs["reco"]) != "for you" {
				t.Errorf("FetchBlocks: fragments %q", frs)
			}
			return err
		}, "", "POST /v1/blocks"},
	} {
		if err := row.do(); err != nil {
			t.Fatalf("%s: %v", row.call, err)
		}
		gotEdge, gotOrigin := edgeTier.take(), originTier.take()
		if !sameRequests(gotEdge, row.wantEdge) || !sameRequests(gotOrigin, row.wantOrigin) {
			t.Errorf("%s: edge saw %q, origin saw %q; want edge %q, origin %q", row.call, gotEdge, gotOrigin, row.wantEdge, row.wantOrigin)
		}
	}
}

// sameRequests reports whether seen is exactly want, one request or none.
func sameRequests(seen []string, want string) bool {
	if want == "" {
		return len(seen) == 0
	}
	return len(seen) == 1 && seen[0] == want
}
