package edge

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
)

// sketchMaxAge is the Δ the sketch upstream of these tests announces.
const sketchMaxAge = 30 * time.Second

// sketchUpstream serves /v1/sketch the way speedkit-server does — through
// cachesketch.WriteHTTP, with a Cache-Control and no Age — and counts the
// requests that reach it.
type sketchUpstream struct {
	srv     *httptest.Server
	fetches atomic.Int64

	mu      sync.Mutex
	gen     uint64
	epoch   uint64
	filter  *bloom.Filter
	down    bool
	respond func(w http.ResponseWriter, n int64) bool // non-nil: may answer request n itself
}

func newSketchUpstream(t *testing.T) *sketchUpstream {
	u := &sketchUpstream{gen: 7, epoch: 1, filter: bloom.NewFilter(64, 4)}
	u.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sketch" {
			httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such endpoint: "+r.URL.Path)
			return
		}
		n := u.fetches.Add(1)
		u.mu.Lock()
		sn := &cachesketch.Snapshot{Filter: u.filter, Generation: u.gen, Epoch: u.epoch}
		down, respond := u.down, u.respond
		u.mu.Unlock()
		if down {
			httpbody.WriteError(w, http.StatusServiceUnavailable, httpbody.CodeUnavailable, "down")
			return
		}
		if respond != nil && respond(w, n) {
			return
		}
		if err := sn.WriteHTTP(w, "public, max-age="+strconv.Itoa(int(sketchMaxAge/time.Second)), 0); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(u.srv.Close)
	return u
}

func (u *sketchUpstream) set(f func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	f()
}

func sketchProxy(t *testing.T, u *sketchUpstream) (*Proxy, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	p, _, err := New(Options{Upstream: u.srv.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, clk
}

// TestServeSketch is the table of what a device's GET /v1/sketch gets from
// the edge: which bytes, from where, under which Age, on which counters.
func TestServeSketch(t *testing.T) {
	type step struct {
		// advance moves the clock before the request.
		advance time.Duration
		// wantCode, wantAge ("" = no header) and wantFetches (upstream
		// requests so far) describe the answer.
		wantCode    int
		wantAge     string
		wantFetches int64
	}
	saturated := bloom.NewFilter(64<<10, 4)
	saturated.Saturate()
	for _, row := range []struct {
		name string
		// primed polls once before the first request, as speedkit-edge
		// does at start-up and on every tick.
		primed bool
		// before runs after priming.
		before func(u *sketchUpstream)
		steps  []step
		// wantStale: the served filter must flag a key nobody wrote.
		wantStale bool
		wantStats Stats
	}{
		{
			name:      "no copy: fetched on demand, then served from the copy",
			steps:     []step{{0, 200, "", 1}, {400 * time.Millisecond, 200, "1", 1}},
			wantStats: Stats{SketchServes: 2, SketchRefreshes: 1},
		},
		{
			name:   "fresh copy: served with the age it has, rounded up",
			primed: true,
			steps: []step{
				{0, 200, "", 1},
				{time.Millisecond, 200, "1", 1},
				{time.Second, 200, "2", 1},
				{sketchMaxAge - 3*time.Second, 200, "29", 1},
			},
			wantStats: Stats{SketchServes: 4, SketchRefreshes: 1},
		},
		{
			// One millisecond short of max-age the age to state is already
			// max-age: handed out, the copy would be dead on arrival.
			name:      "copy at max-age: refreshed first, never served",
			primed:    true,
			steps:     []step{{sketchMaxAge - time.Millisecond, 200, "", 2}, {sketchMaxAge, 200, "", 3}},
			wantStats: Stats{SketchServes: 2, SketchRefreshes: 3},
		},
		{
			name:      "copy at max-age, upstream down: 502, not the expired copy",
			primed:    true,
			before:    func(u *sketchUpstream) { u.set(func() { u.down = true }) },
			steps:     []step{{sketchMaxAge - time.Second, 200, "29", 1}, {time.Second, 502, "", 2}, {time.Hour, 502, "", 3}},
			wantStats: Stats{SketchServes: 1, SketchRefreshes: 1, UpstreamErrors: 2},
		},
		{
			// -sketch-refresh 0: nothing polls, every Δ one device request
			// pays the upstream fetch.
			name: "poller disabled: one fetch per max-age",
			steps: []step{
				{0, 200, "", 1},
				{sketchMaxAge - 1500*time.Millisecond, 200, "29", 1},
				{1500 * time.Millisecond, 200, "", 2},
				{time.Second, 200, "1", 2},
			},
			wantStats: Stats{SketchServes: 4, SketchRefreshes: 2},
		},
		{
			name:      "saturated cold-start copy: 21 bytes that flag everything",
			before:    func(u *sketchUpstream) { u.set(func() { u.filter = saturated }) },
			steps:     []step{{0, 200, "", 1}, {2 * time.Second, 200, "2", 1}},
			wantStale: true,
			wantStats: Stats{SketchServes: 2, SketchRefreshes: 1},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			u := newSketchUpstream(t)
			p, clk := sketchProxy(t, u)
			if row.primed {
				if err := p.RefreshSketch(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if row.before != nil {
				row.before(u)
			}
			for i, st := range row.steps {
				clk.Advance(st.advance)
				sent := clk.Now()
				w := get(t, p.Handler(), "/v1/sketch", nil)
				if w.Code != st.wantCode || u.fetches.Load() != st.wantFetches {
					t.Fatalf("step %d: status %d after %d upstream fetches, want %d after %d", i, w.Code, u.fetches.Load(), st.wantCode, st.wantFetches)
				}
				if w.Code != http.StatusOK {
					var eb httpbody.ErrorBody
					if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code != httpbody.CodeUnavailable {
						t.Fatalf("step %d: %d %q, want the envelope's unavailable", i, w.Code, w.Body.String())
					}
					continue
				}
				h := w.Header()
				if h.Get("X-Edge-Cache") != "sketch" || h.Get("Age") != st.wantAge ||
					h.Get("Cache-Control") != "public, max-age=30" || h.Get(cachesketch.GenerationHeader) != "7" {
					t.Fatalf("step %d: headers %v, want X-Edge-Cache sketch, Age %q, the upstream's Cache-Control and generation", i, h, st.wantAge)
				}
				sn, err := cachesketch.ReadHTTP(w.Result(), sent)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				// What a device makes of it: a copy it may still use, taken
				// no later than the edge's own.
				if held := p.sketch.Snapshot(); sn.TakenAt.After(held.TakenAt) || !sn.TakenAt.After(sent.Add(-sketchMaxAge)) {
					t.Fatalf("step %d: device dates the copy %v; the edge took it %v, and Δ before the request is %v", i, sn.TakenAt, held.TakenAt, sent.Add(-sketchMaxAge))
				}
				if w.Body.Len() != 21 || sn.MightBeStale("/never/written") != row.wantStale {
					t.Fatalf("step %d: %d-byte sketch, flags an unwritten key: %v", i, w.Body.Len(), sn.MightBeStale("/never/written"))
				}
			}
			if got := p.Stats(); got != row.wantStats {
				t.Fatalf("stats %+v, want %+v (a sketch serve is no page hit)", got, row.wantStats)
			}
		})
	}
}

// TestServeSketchSharesOneOnDemandFetch: twenty devices ask an edge whose
// copy has expired; one request goes upstream and all twenty are answered
// from what it brought back.
func TestServeSketchSharesOneOnDemandFetch(t *testing.T) {
	const devices = 20
	u := newSketchUpstream(t)
	p, clk := sketchProxy(t, u)
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	clk.Advance(sketchMaxAge)
	u.set(func() { u.gen = 8 })

	// The upstream holds its answer until every device has asked, so the
	// rest queue behind the first instead of finding its result.
	var asked sync.WaitGroup
	asked.Add(devices)
	u.set(func() {
		u.respond = func(http.ResponseWriter, int64) bool { asked.Wait(); return false }
	})
	var done sync.WaitGroup
	gens := make([]string, devices)
	for i := 0; i < devices; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			r := httptest.NewRequest(http.MethodGet, "/v1/sketch", nil)
			w := httptest.NewRecorder()
			asked.Done()
			p.ServeHTTP(w, r)
			gens[i] = strconv.Itoa(w.Code) + "/" + w.Header().Get(cachesketch.GenerationHeader)
		}(i)
	}
	done.Wait()
	for i, g := range gens {
		if g != "200/8" {
			t.Fatalf("device %d got %s, want 200 with generation 8", i, g)
		}
	}
	if n := u.fetches.Load(); n != 2 {
		t.Fatalf("%d upstream fetches (the priming poll included), want 2: the on-demand refresh was not shared", n)
	}
}

// TestInstallSketchInOrder: a slow poll that lands after a faster one must
// not put the older generation back — the watermark comparison in
// servePage would then ignore every flag of the newer one.
func TestInstallSketchInOrder(t *testing.T) {
	u := newSketchUpstream(t)
	p, clk := sketchProxy(t, u)

	// The first request is answered with generation 7, but only once the
	// second, answered with generation 8, has been installed.
	secondInstalled := make(chan struct{})
	firstArrived := make(chan struct{})
	u.set(func() {
		u.respond = func(w http.ResponseWriter, n int64) bool {
			if n != 1 {
				return false
			}
			old := &cachesketch.Snapshot{Filter: bloom.NewFilter(64, 4), Generation: 7, Epoch: 1}
			close(firstArrived)
			<-secondInstalled
			if err := old.WriteHTTP(w, "public, max-age=30", 0); err != nil {
				t.Error(err)
			}
			return true
		}
	})
	slow := make(chan error, 1)
	go func() { slow <- p.RefreshSketch(context.Background()) }()
	<-firstArrived
	u.set(func() { u.gen = 8 })
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(secondInstalled)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if got := p.sketch.Generation(); got != 8 {
		t.Fatalf("edge holds generation %d after the slow poll landed, want 8", got)
	}

	// Same generation, later snapshot: replaces (an idle server's polls).
	clk.Advance(time.Second)
	before := p.sketch.Snapshot()
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := p.sketch.Snapshot(); after == before || !after.TakenAt.After(before.TakenAt) {
		t.Fatal("a later snapshot of the same generation did not replace the held one")
	}

	// A lower generation of the held epoch is a straggler, and stays out.
	u.set(func() { u.gen = 2 })
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.sketch.Generation(); got != 8 || !p.sketch.EpochSince().IsZero() {
		t.Fatalf("generation %d (mark %v) replaced generation 8 of the same epoch", got, p.sketch.EpochSince())
	}
	// An upstream that restarted without its history counts from zero
	// again, under a new epoch: that replaces the held copy at once — an
	// edge that waited for generation 8 to come round again would ignore
	// every flag until then — and every entry stored so far is revalidated
	// once.
	u.set(func() { u.epoch = 2 })
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.sketch.Generation(); got != 2 || !p.sketch.EpochSince().Equal(clk.Now()) {
		t.Fatalf("after the upstream's restart: generation %d, mark %v; want 2 and %v", got, p.sketch.EpochSince(), clk.Now())
	}
	if w := get(t, p, "/v1/sketch", nil); w.Code != http.StatusOK || w.Header().Get(cachesketch.EpochHeader) != "0000000000000002" {
		t.Fatalf("after the upstream's restart: %d, epoch %q; want the new epoch", w.Code, w.Header().Get(cachesketch.EpochHeader))
	}
}

// TestServeSketchRefusesACopyExpiredUpstream: a cache between edge and
// server that hands out a sketch at its max-age has handed out nothing.
func TestServeSketchRefusesACopyExpiredUpstream(t *testing.T) {
	u := newSketchUpstream(t)
	p, _ := sketchProxy(t, u)
	u.set(func() {
		u.respond = func(w http.ResponseWriter, _ int64) bool {
			sn := &cachesketch.Snapshot{Filter: bloom.NewFilter(64, 4), Generation: 7}
			if err := sn.WriteHTTP(w, "public, max-age=30", sketchMaxAge); err != nil {
				t.Error(err)
			}
			return true
		}
	})
	if w := get(t, p, "/v1/sketch", nil); w.Code != http.StatusBadGateway {
		t.Fatalf("a sketch that arrived with Age = max-age was served: %d, Age %q", w.Code, w.Header().Get("Age"))
	}
}
