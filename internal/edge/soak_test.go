package edge

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// upstreamFunc stands in for the upstream without a socket.
type upstreamFunc func(*http.Request) (*http.Response, error)

func (f upstreamFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSoakMintedPathsLeaveNothing is the edge half of core's soak: 200 000
// distinct paths the upstream answers 404 for, between loads of more real
// pages than the store holds. A 404 is relayed, never stored, and its
// fill leaves the table when the leader returns — so the store stays at
// its capacity, fills ends empty and the live heap does not move.
func TestSoakMintedPathsLeaveNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 200 000 requests")
	}
	const (
		minted   = 200_000
		capacity = 4096 // Options.MaxEntries' default
		real     = 2 * capacity
	)
	body := strings.Repeat("x", 512)
	upstream := upstreamFunc(func(r *http.Request) (*http.Response, error) {
		resp := &http.Response{StatusCode: http.StatusNotFound, Header: http.Header{}, Request: r}
		payload := `{"error":{"code":"not_found","message":"no route"}}`
		if strings.HasPrefix(r.URL.Query().Get("path"), "/real/") {
			resp.StatusCode = http.StatusOK
			resp.Header.Set("Cache-Control", "public, max-age=3600")
			resp.Header.Set("ETag", `"v1"`)
			payload = body
		}
		resp.ContentLength = int64(len(payload))
		resp.Body = io.NopCloser(strings.NewReader(payload))
		return resp, nil
	})
	p, _, err := New(Options{
		Upstream: "http://upstream.test",
		Client:   &http.Client{Transport: upstream},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	request := func(path string, want int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/page?path="+path, nil))
		if w.Code != want {
			t.Fatalf("GET %s: %d, want %d", path, w.Code, want)
		}
	}
	heapMB := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	var first float64
	for i := 1; i <= minted; i++ {
		request("/minted/"+strconv.Itoa(i), http.StatusNotFound)
		if i%4 == 0 {
			request("/real/"+strconv.Itoa(i/4%real), http.StatusOK)
		}
		if i == minted/5 {
			first = heapMB()
		}
	}
	last := heapMB()
	t.Logf("heap %.2f MB at 20%%, %.2f MB at 100%%; store %d of %d", first, last, p.mem.Len(), capacity)
	if last > first*1.05 || last < first*0.95 {
		t.Errorf("live heap %.2f MB at 20%%, %.2f MB at 100%%: not within 5%%", first, last)
	}
	if n := p.mem.Len(); n > capacity {
		t.Errorf("store holds %d entries, capacity %d", n, capacity)
	}
	p.fillsMu.Lock()
	inFlight := len(p.fills)
	p.fillsMu.Unlock()
	if inFlight != 0 {
		t.Errorf("%d fills left in the table with nothing in flight", inFlight)
	}
}
