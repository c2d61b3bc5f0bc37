package httpapi

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPageAnswersOnTheWire pins the page answers a device or an edge
// reads, header by header (Date aside), under the simulated clock: the
// first fetch, a CDN hit, a conditional fetch answered 304 and one that
// names an older version, the 404 and 400 envelopes, and a purge. What
// the answers state is the wire contract; how the server formats it is
// not. Nothing reads a simulated latency off the wire, so none is stated.
func TestPageAnswersOnTheWire(t *testing.T) {
	a, ts, clk := newTestAPI(t)
	epoch := fmt.Sprintf("%016x", a.svc.SketchServer().Epoch())
	const page = "/v1/page?path=%2Fproduct%2Fp00001"
	answer := func(method, target string, headers ...string) []string {
		t.Helper()
		var resp *http.Response
		if method == http.MethodGet {
			resp, _ = get(t, ts.URL+target, headers...)
		} else {
			var err error
			if resp, err = http.Post(ts.URL+target, "", nil); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		out := []string{"status " + strconv.Itoa(resp.StatusCode)}
		for k, vs := range resp.Header {
			if k != "Date" {
				for _, v := range vs {
					out = append(out, k+": "+strings.ReplaceAll(v, epoch, "<epoch>"))
				}
			}
		}
		sort.Strings(out[1:])
		return out
	}
	got := map[string][]string{}
	got["first"] = answer(http.MethodGet, page)
	clk.Advance(7 * time.Second)
	got["cdn"] = answer(http.MethodGet, page)
	got["not modified"] = answer(http.MethodGet, page, "If-None-Match", `"v1"`)
	got["older version"] = answer(http.MethodGet, page, "If-None-Match", `W/"v0"`)
	got["unknown"] = answer(http.MethodGet, "/v1/page?path=%2Fnope")
	got["no path"] = answer(http.MethodGet, "/v1/page?x=1")
	got["purge"] = answer(http.MethodPost, "/v1/purge?path=%2Fproduct%2Fp00001")

	for name, want := range pageWireGolden {
		if g := strings.Join(got[name], "\n"); g != strings.Join(want, "\n") {
			t.Errorf("%s answered\n%s\nwant\n%s", name, g, strings.Join(want, "\n"))
		}
	}
	if len(got) != len(pageWireGolden) {
		t.Errorf("%d answers, %d pinned", len(got), len(pageWireGolden))
	}
}

// pageWireGolden is what each answer of TestPageAnswersOnTheWire states,
// the server's epoch written <epoch>: every answer before this change
// stated the same, and an X-Simulated-Latency besides.
var pageWireGolden = map[string][]string{
	"cdn": {
		"status 200",
		"Cache-Control: public, max-age=86393",
		"Content-Length: 410",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Blocks: cart,reco,tier",
		"X-Served-By: cdn",
		"X-Sketch-Epoch: <epoch>",
	},
	"first": {
		"status 200",
		"Cache-Control: public, max-age=86400",
		"Content-Length: 410",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Blocks: cart,reco,tier",
		"X-Served-By: origin",
		"X-Sketch-Epoch: <epoch>",
	},
	"no path": {
		"status 400",
		"Content-Length: 60",
		"Content-Type: application/json",
		"X-Content-Type-Options: nosniff",
	},
	"not modified": {
		"status 304",
		"Cache-Control: public, max-age=86400",
		"Etag: \"v1\"",
		"X-Sketch-Epoch: <epoch>",
	},
	"older version": {
		"status 200",
		"Cache-Control: public, max-age=86393",
		"Content-Length: 410",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Blocks: cart,reco,tier",
		"X-Served-By: cdn",
		"X-Sketch-Epoch: <epoch>",
	},
	"purge": {
		"status 204",
	},
	"unknown": {
		"status 404",
		"Content-Length: 67",
		"Content-Type: application/json",
		"X-Content-Type-Options: nosniff",
	},
}
