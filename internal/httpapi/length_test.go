package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"speedkit/internal/edge"
	"speedkit/internal/httpbody"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
	"speedkit/internal/workload"
)

// chunkThreshold is the size of net/http's response buffer: a handler
// that states no length and writes more than this is sent chunked.
const chunkThreshold = 2048

// listingPath is a category listing, the largest kind of shell: over
// listingProducts products it lists a full page of them.
var listingPath = workload.CategoryPath(workload.Categories[0])

const listingProducts = 1000

// newEdge starts an edge in front of upstream and returns its URL.
func newEdge(t *testing.T, upstream string) string {
	t.Helper()
	p, _, err := edge.New(edge.Options{Upstream: upstream})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	es := httptest.NewServer(p.Handler())
	t.Cleanup(es.Close)
	return es.URL
}

// getSized fetches target and checks the answer states its length and is
// not chunked.
func getSized(t *testing.T, target string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	return doSized(t, req)
}

// doSized sends req and checks the answer is a 200 that states its length
// and is not chunked.
func doSized(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	target := req.Method + " " + req.URL.String()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) || resp.TransferEncoding != nil {
		t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body, want its length and no chunking",
			target, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return resp, body
}

// TestPageAnswerStatesLength: a listing shell larger than net/http's
// buffer goes out whole, with its length, and the 304 that revalidates it
// states none.
func TestPageAnswerStatesLength(t *testing.T) {
	_, ts, _ := newTestAPIWith(t, listingProducts)
	target := ts.URL + "/v1/page?path=" + listingPath
	resp, body := getSized(t, target, nil)
	if len(body) <= chunkThreshold {
		t.Fatalf("the listing shell is %d bytes, want more than %d", len(body), chunkThreshold)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, want %d", got, len(body))
	}

	nm, _ := get(t, target, "If-None-Match", resp.Header.Get("ETag"))
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation answered %d, want 304", nm.StatusCode)
	}
	if _, ok := nm.Header["Content-Length"]; ok {
		t.Fatalf("the 304 states Content-Length %q, want none", nm.Header.Get("Content-Length"))
	}
}

// TestBlocksAnswerStatesLength: a blocks answer states its length and is
// not chunked, on either side of net/http's buffer. The handler states
// the length only past the buffer and leaves a shorter answer's to
// net/http, so a release of Go that shrank the buffer would fail the rows
// at its edge here rather than chunk answers on the wire.
func TestBlocksAnswerStatesLength(t *testing.T) {
	a, ts, _ := newTestAPI(t)
	// pad renders a block of n bytes, framed behind a two-byte length.
	pad := func(n int) string {
		name := "pad" + strconv.Itoa(n)
		fr := bytes.Repeat([]byte{'x'}, n)
		a.svc.Origin().RegisterBlock(name, func(*session.User) []byte { return fr })
		return name
	}
	many := make([]string, httpbody.MaxBlockNames)
	for i := range many {
		many[i] = []string{"greeting", "cart", "reco", "tier"}[i%4]
	}
	for _, c := range []struct {
		name  string
		names []string
		size  int // the answer's length, when the row pins it
	}{
		{"one name", []string{"cart"}, len(`<div class="cart">3 items</div>`) + 1},
		{"the buffer's size", []string{pad(chunkThreshold - 2)}, chunkThreshold},
		{"one byte past the buffer", []string{pad(chunkThreshold - 1)}, chunkThreshold + 1},
		{"the most names", many, 0},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/blocks", bytes.NewReader(httpbody.BlocksRequest("u-test", c.names)))
		if err != nil {
			t.Fatal(err)
		}
		_, body := doSized(t, req)
		if c.size != 0 && len(body) != c.size {
			t.Errorf("%s: a %d-byte answer, want %d", c.name, len(body), c.size)
		}
		if _, err := httpbody.ParseBlocksResponse(body, len(c.names)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestEdgeMissStatesLength: an edge in front of the server relays the
// page's length on a miss, so neither hop is chunked.
func TestEdgeMissStatesLength(t *testing.T) {
	_, ts, _ := newTestAPIWith(t, listingProducts)
	resp, body := getSized(t, newEdge(t, ts.URL)+"/v1/page?path="+listingPath, nil)
	if state := resp.Header.Get("X-Edge-Cache"); state != "miss" {
		t.Fatalf("X-Edge-Cache %q, want miss", state)
	}
	if len(body) <= chunkThreshold {
		t.Fatalf("the listing shell is %d bytes, want more than %d", len(body), chunkThreshold)
	}
}

// TestLowercaseTraceparentJoins: a traceparent sent under its lower-case
// name, as the W3C spells it, reaches the server through an edge and is
// adopted there.
func TestLowercaseTraceparentJoins(t *testing.T) {
	a, ts, _ := newTestAPIWith(t, listingProducts)
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	hdr := http.Header{tracectx.Header: {"00-" + id + "-00f067aa0ba902b7-01"}}
	getSized(t, newEdge(t, ts.URL)+"/v1/page?path="+listingPath, hdr)
	tid, _ := tracectx.ParseTraceID(id)
	if got := a.svc.Tracer().ByTraceID(tid); len(got) != 1 {
		t.Fatalf("the server holds %d traces with the propagated ID, want 1", len(got))
	}
}

// TestTraceparentLookupAllocations: reading the traceparent a request
// carries costs nothing. With an unsampled parent the server keeps no
// trace, so what joining it allocates is the lookup's alone.
func TestTraceparentLookupAllocations(t *testing.T) {
	a, _, _ := newTestAPI(t)
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=%2Fp", nil)
	r.Header.Set(tracectx.Header, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	n := testing.AllocsPerRun(100, func() {
		if tr, _ := a.startRemote(r, "http.page", "/p"); tr != nil {
			t.Fatal("an unsampled parent started a server trace")
		}
	})
	if n != 0 {
		t.Fatalf("joining a traceparent allocates %.0f, want 0", n)
	}
}
