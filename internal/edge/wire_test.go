package edge

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
)

// wireUpstream is a speedkit-server stand-in that states every header the
// edge relays and some it must not: a cookie, the simulator's latency and
// an unnamed one.
type wireUpstream struct {
	mu      sync.Mutex
	version uint64
	mode    string        // "ok", "fail" (500) or "gone" (404)
	hold    chan struct{} // non-nil: page answers wait for it
	arrived chan struct{} // signalled once per held page request

	srv *httptest.Server
}

const wireEpoch = "00000000000000aa"

func newWireUpstream() *wireUpstream {
	u := &wireUpstream{version: 1, mode: "ok", arrived: make(chan struct{}, 4)}
	u.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u.mu.Lock()
		version, mode, hold := u.version, u.mode, u.hold
		u.mu.Unlock()
		if hold != nil {
			u.arrived <- struct{}{}
			<-hold
		}
		h := w.Header()
		h.Set("Set-Cookie", "session=u-4711")
		h.Set("X-Simulated-Latency", "12ms")
		h.Set("X-Foo", "bar")
		h.Set(cachesketch.EpochHeader, wireEpoch)
		switch mode {
		case "fail":
			httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, "down")
			return
		case "gone":
			httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "gone")
			return
		}
		etag := httpbody.ETag(version)
		h.Set("ETag", etag)
		h.Set("Cache-Control", "public, max-age=60")
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h.Set("Content-Type", "text/html; charset=utf-8")
		h.Set("X-Served-By", "origin")
		h.Set("X-Blocks", "cart,tier")
		h.Set("X-Sketch-Generation", "7")
		io.WriteString(w, "<html>page v"+strconv.FormatUint(version, 10)+"</html>")
	}))
	return u
}

func (u *wireUpstream) set(f func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	f()
}

// wireSketch is a sketch in the upstream's epoch at generation gen,
// flagging keys, taken now and good for 30 s.
func wireSketch(clk clock.Clock, gen uint64, keys ...string) *cachesketch.Snapshot {
	f := bloom.NewFilterForCapacity(64, 0.01)
	for _, k := range keys {
		f.Add(k)
	}
	return &cachesketch.Snapshot{Filter: f, Generation: gen, Epoch: 0xaa, TakenAt: clk.Now(), MaxAge: 30 * time.Second}
}

// wireHeader is an answer as it crossed the wire: its status and every
// header but Date, one "Name: value" line each, sorted.
func wireHeader(resp *http.Response) []string {
	out := []string{"status " + strconv.Itoa(resp.StatusCode)}
	for k, vs := range resp.Header {
		if k == "Date" {
			continue
		}
		for _, v := range vs {
			out = append(out, k+": "+v)
		}
	}
	sort.Strings(out[1:])
	return out
}

// TestAnswersOnTheWire pins every answer the edge's surface gives, header
// by header, over a real connection and under a simulated clock: hit,
// miss, coalesced, revalidated (200 and 304), stale, disowned, purge,
// the 404 and 400 envelopes, the sketch and the operational endpoints.
// Which headers an answer states, and their values, are the wire
// contract; how the edge formats them is not.
func TestAnswersOnTheWire(t *testing.T) {
	u := newWireUpstream()
	defer u.srv.Close()
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	p, _, err := New(Options{Upstream: u.srv.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()

	answer := func(method, target, inm string) []string {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return wireHeader(resp)
	}
	page := func(inm string) []string { return answer(http.MethodGet, "/v1/page?path=%2Fp", inm) }
	gen := uint64(1)
	flag := func() { // the next hit on /p revalidates
		gen++
		p.InstallSketch(wireSketch(clk, gen, "/p"))
	}

	got := map[string][]string{}
	p.InstallSketch(wireSketch(clk, gen))
	got["miss"] = page("")
	clk.Advance(5 * time.Second)
	got["hit"] = page("")
	got["hit 304"] = page(`W/"v1"`)
	clk.Advance(time.Second)
	flag()
	got["revalidated"] = page("")
	flag()
	got["revalidated 304"] = page(`"v1"`)
	u.set(func() { u.version = 2 })
	flag()
	got["refreshed"] = page("")
	u.set(func() { u.mode = "fail" })
	flag()
	clk.Advance(2 * time.Second)
	got["stale"] = page("")
	u.set(func() { u.mode = "gone" })
	flag()
	got["disowned"] = page("")

	// Coalesced: a follower joins the leader's fill while the upstream
	// holds its answer.
	hold := make(chan struct{})
	u.set(func() { u.mode, u.hold = "ok", hold })
	leader := make(chan []string)
	go func() { leader <- answer(http.MethodGet, "/v1/page?path=%2Fc", "") }()
	<-u.arrived
	follower := make(chan []string)
	waiters := p.Stats().CoalescedWaiters
	go func() { follower <- answer(http.MethodGet, "/v1/page?path=%2Fc", "") }()
	for p.Stats().CoalescedWaiters == waiters {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	got["coalesced leader"], got["coalesced follower"] = <-leader, <-follower
	u.set(func() { u.hold = nil })

	got["purge"] = answer(http.MethodPost, "/v1/purge?path=%2Fc", "")
	got["not found"] = answer(http.MethodGet, "/v1/nope", "")
	got["no path"] = answer(http.MethodGet, "/v1/page", "")
	got["sketch"] = answer(http.MethodGet, "/v1/sketch", "")
	got["healthz"] = answer(http.MethodGet, "/healthz", "")
	got["healthz head"] = answer(http.MethodHead, "/healthz", "")
	// A scrape's length moves with the runtime gauges' digits; its
	// counters are pinned below.
	got["metrics"] = slices.DeleteFunc(answer(http.MethodGet, "/metrics", ""), func(h string) bool {
		return strings.HasPrefix(h, "Content-Length:")
	})
	if g := scrapeCounters(t, hc, srv.URL); g != wireCounters {
		t.Errorf("metrics scraped\n%swant\n%s", g, wireCounters)
	}

	for name, want := range wireGolden {
		if g := strings.Join(got[name], "\n"); g != strings.Join(want, "\n") {
			t.Errorf("%s answered\n%s\nwant\n%s", name, g, strings.Join(want, "\n"))
		}
	}
	if len(got) != len(wireGolden) {
		t.Errorf("%d answers, %d pinned", len(got), len(wireGolden))
	}
}

// scrapeCounters is the edge's /metrics body less the lines of the
// runtime gauges and of the held sketch's generation and age, which move
// with the process and the clock.
func scrapeCounters(t *testing.T, hc *http.Client, base string) string {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(body), "\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
		switch {
		case strings.HasPrefix(name, "speedkit_runtime_"),
			name == "speedkit_edge_sketch_generation",
			name == "speedkit_edge_sketch_age_seconds":
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// wireCounters is what the scrape of TestAnswersOnTheWire states of the
// edge's 15 counters: the lines, 1 211 bytes, that the edge's own writer
// stated before it counted through obs, sorted by name.
const wireCounters = `# TYPE speedkit_edge_bytes_served_total counter
speedkit_edge_bytes_served_total 188
# TYPE speedkit_edge_coalesced_waiters_total counter
speedkit_edge_coalesced_waiters_total 1
# TYPE speedkit_edge_degraded_total counter
speedkit_edge_degraded_total 0
# TYPE speedkit_edge_disk_fills_total counter
speedkit_edge_disk_fills_total 0
# TYPE speedkit_edge_disk_purges_total counter
speedkit_edge_disk_purges_total 0
# TYPE speedkit_edge_hits_total counter
speedkit_edge_hits_total 2
# TYPE speedkit_edge_misses_total counter
speedkit_edge_misses_total 3
# TYPE speedkit_edge_not_modified_total counter
speedkit_edge_not_modified_total 2
# TYPE speedkit_edge_purges_total counter
speedkit_edge_purges_total 2
# TYPE speedkit_edge_revalidated_total counter
speedkit_edge_revalidated_total 2
# TYPE speedkit_edge_served_stale_total counter
speedkit_edge_served_stale_total 1
# TYPE speedkit_edge_sketch_refreshes_total counter
speedkit_edge_sketch_refreshes_total 0
# TYPE speedkit_edge_sketch_serves_total counter
speedkit_edge_sketch_serves_total 1
# TYPE speedkit_edge_snapshots_total counter
speedkit_edge_snapshots_total 0
# TYPE speedkit_edge_upstream_errors_total counter
speedkit_edge_upstream_errors_total 1
`

// wireGolden is what each answer of TestAnswersOnTheWire states.
var wireGolden = map[string][]string{
	"coalesced follower": {
		"status 200",
		"Cache-Control: public, max-age=60",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v2\"",
		"X-Blocks: cart,tier",
		"X-Edge-Cache: coalesced",
		"X-Served-By: origin",
		"X-Sketch-Epoch: 00000000000000aa",
		"X-Sketch-Generation: 7",
	},
	"coalesced leader": {
		"status 200",
		"Cache-Control: public, max-age=60",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v2\"",
		"X-Blocks: cart,tier",
		"X-Edge-Cache: miss",
		"X-Served-By: origin",
		"X-Sketch-Epoch: 00000000000000aa",
		"X-Sketch-Generation: 7",
	},
	"disowned": {
		"status 404",
		"Content-Length: 48",
		"Content-Type: application/json",
		"X-Edge-Cache: miss",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"healthz": {
		"status 200",
		"Content-Length: 3",
		"Content-Type: text/plain; charset=utf-8",
	},
	"healthz head": {
		"status 200",
		"Content-Length: 3",
		"Content-Type: text/plain; charset=utf-8",
	},
	"hit": {
		"status 200",
		"Age: 5",
		"Cache-Control: max-age=55",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Edge-Cache: hit",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"hit 304": {
		"status 304",
		"Age: 5",
		"Cache-Control: max-age=55",
		"Etag: \"v1\"",
		"X-Edge-Cache: hit",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"metrics": {
		"status 200",
		"Content-Type: text/plain; version=0.0.4",
	},
	"miss": {
		"status 200",
		"Cache-Control: public, max-age=60",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Blocks: cart,tier",
		"X-Edge-Cache: miss",
		"X-Served-By: origin",
		"X-Sketch-Epoch: 00000000000000aa",
		"X-Sketch-Generation: 7",
	},
	"no path": {
		"status 400",
		"Content-Length: 60",
		"Content-Type: application/json",
		"X-Content-Type-Options: nosniff",
	},
	"not found": {
		"status 404",
		"Content-Length: 60",
		"Content-Type: application/json",
		"X-Content-Type-Options: nosniff",
	},
	"purge": {
		"status 204",
	},
	"refreshed": {
		"status 200",
		"Cache-Control: max-age=60",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v2\"",
		"X-Edge-Cache: miss",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"revalidated": {
		"status 200",
		"Cache-Control: max-age=60",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v1\"",
		"X-Edge-Cache: revalidated",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"revalidated 304": {
		"status 304",
		"Cache-Control: max-age=60",
		"Etag: \"v1\"",
		"X-Edge-Cache: revalidated",
		"X-Sketch-Epoch: 00000000000000aa",
	},
	"sketch": {
		"status 200",
		"Cache-Control: public, max-age=30",
		"Content-Length: 93",
		"Content-Type: application/octet-stream",
		"X-Edge-Cache: sketch",
		"X-Sketch-Epoch: 00000000000000aa",
		"X-Sketch-Generation: 6",
	},
	"stale": {
		"status 200",
		"Age: 2",
		"Cache-Control: max-age=58",
		"Content-Length: 20",
		"Content-Type: text/html; charset=utf-8",
		"Etag: \"v2\"",
		"X-Edge-Cache: stale",
		"X-Sketch-Epoch: 00000000000000aa",
	},
}

// TestSharedHeaderValuesStayPut: an answer's header values are shared
// between answers (the X-Edge-Cache states, the epoch) or with the rest of
// the same answer (one values array) only as slices whose len is their
// cap. A handler that adds to one answer's headers so reallocates: the rest
// of its own answer, and another answer on another goroutine, are
// unchanged. Run it under -race.
func TestSharedHeaderValuesStayPut(t *testing.T) {
	u := newWireUpstream()
	defer u.srv.Close()
	clk := clock.NewSimulated(time.Unix(1_000_000, 0))
	p, _, err := New(Options{Upstream: u.srv.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.InstallSketch(wireSketch(clk, 1))
	h := p.Handler()
	serve := func() http.Header {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/page?path=%2Fp", nil))
		return w.Header()
	}
	for _, state := range []string{"miss", "hit"} {
		hdr := serve()
		if hdr.Get("X-Edge-Cache") != state {
			t.Fatalf("answer %v, want a %s", hdr, state)
		}
		for k, vs := range hdr {
			if len(vs) != cap(vs) {
				t.Errorf("%s answer: %s has len %d, cap %d", state, k, len(vs), cap(vs))
			}
		}
	}
	want := strings.Join(headerLines(serve()), "\n")

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a handler that adds to every header of its answer
		defer wg.Done()
		for !stop.Load() {
			hdr := serve()
			for k := range hdr {
				hdr.Add(k, "tampered")
			}
			var kept []string
			for _, l := range headerLines(hdr) {
				if !strings.HasSuffix(l, ": tampered") {
					kept = append(kept, l)
				}
			}
			if got := strings.Join(kept, "\n"); got != want {
				t.Errorf("adding to an answer changed its own values:\n%s\nwant\n%s", got, want)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if got := strings.Join(headerLines(serve()), "\n"); got != want {
			t.Errorf("an answer changed under another's handler:\n%s\nwant\n%s", got, want)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// headerLines is h as sorted "Name: value" lines.
func headerLines(h http.Header) []string {
	var out []string
	for k, vs := range h {
		for _, v := range vs {
			out = append(out, k+": "+v)
		}
	}
	sort.Strings(out)
	return out
}
