package edge

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestOneEntryForEitherSpelling: a path sent as it is written and the same
// path with its '/' escaped name one key, so the edge holds one entry for
// both, whichever arrives first.
func TestOneEntryForEitherSpelling(t *testing.T) {
	for _, order := range [][2]string{
		{"/v1/page?path=/product/p1", "/v1/page?path=%2Fproduct%2Fp1"},
		{"/v1/page?path=%2Fproduct%2Fp1", "/v1/page?path=/product/p1"},
	} {
		u := newFakeUpstream()
		u.set("/product/p1", "one page", 1)
		p := newTestProxy(t, u, Options{})
		prime(t, p)
		if w := get(t, p, order[0], nil); w.Header().Get("X-Edge-Cache") != "miss" || w.Body.String() != "one page" {
			t.Fatalf("%s: %s %q, want a miss", order[0], w.Header().Get("X-Edge-Cache"), w.Body.String())
		}
		if w := get(t, p, order[1], nil); w.Header().Get("X-Edge-Cache") != "hit" || w.Body.String() != "one page" {
			t.Fatalf("%s after %s: %s %q, want a hit", order[1], order[0], w.Header().Get("X-Edge-Cache"), w.Body.String())
		}
		if n := p.mem.Len(); n != 1 || u.fetches.Load() != 1 {
			t.Fatalf("%d entries after %d upstream fetches, want 1 and 1", n, u.fetches.Load())
		}
		u.close()
	}
}

// TestCommittedKeyIsOwned: the key a fill stores is a copy, not a window
// onto the request that filled it, so an entry does not keep its request
// line alive; a hit reads its key without one.
func TestCommittedKeyIsOwned(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/product/p1", "one page", 1)
	p := newTestProxy(t, u, Options{})
	prime(t, p)
	r := httptest.NewRequest(http.MethodGet, "/v1/page?path=/product/p1", nil)
	p.ServeHTTP(httptest.NewRecorder(), r)
	e, ok := p.mem.PeekAny("/product/p1")
	if !ok {
		t.Fatal("the fill committed nothing")
	}
	q := r.URL.RawQuery
	start, at := uintptr(unsafe.Pointer(unsafe.StringData(q))), uintptr(unsafe.Pointer(unsafe.StringData(e.Key)))
	if at >= start && at < start+uintptr(len(q)) {
		t.Fatalf("the stored key %q is a window onto the request's query %q", e.Key, q)
	}
}

// TestHungUpstreamReleasesTheFill: the upstream client's Timeout is a
// fill's one deadline. Against an upstream that never answers, the leader
// and every follower of the fill get a 502 within it.
func TestHungUpstreamReleasesTheFill(t *testing.T) {
	const timeout = 50 * time.Millisecond
	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer upstream.Close()
	defer close(release)
	p, _, err := New(Options{Upstream: upstream.URL, Client: &http.Client{Timeout: timeout}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const followers = 4
	codes := make([]int, followers+1)
	var wg sync.WaitGroup
	request := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = get(t, p, "/v1/page?path=/hung", nil).Code
		}()
	}
	start := time.Now()
	request(0)
	waitFor(t, "the leader's fill", func() bool {
		p.fillsMu.Lock()
		defer p.fillsMu.Unlock()
		return len(p.fills) == 1
	})
	for i := 1; i <= followers; i++ {
		request(i)
	}
	wg.Wait()
	if took := time.Since(start); took > 20*timeout {
		t.Fatalf("the fill was released after %v, want about the client's %v", took, timeout)
	}
	for i, c := range codes {
		if c != http.StatusBadGateway {
			t.Fatalf("request %d answered %d, want %d", i, c, http.StatusBadGateway)
		}
	}
	// A follower slow enough to miss the fill leads one of its own; every
	// fill fails once.
	if s := p.Stats(); s.Misses == 0 || s.UpstreamErrors != s.Misses || s.Misses+s.CoalescedWaiters != followers+1 {
		t.Fatalf("stats %+v, want every request a fill's leader or follower, and every fill failed once", s)
	}
}

// TestNewBoundsTheClient: a client with no Timeout, or one past
// fillTimeout, is used through a copy bounded at fillTimeout; a shorter
// Timeout is the client's own, and the client passed in is never changed.
func TestNewBoundsTheClient(t *testing.T) {
	for _, c := range []struct {
		timeout, want time.Duration
	}{
		{0, fillTimeout},
		{2 * fillTimeout, fillTimeout},
		{time.Second, time.Second},
	} {
		hc := &http.Client{Timeout: c.timeout}
		p, _, err := New(Options{Upstream: "http://127.0.0.1:1", Client: hc})
		if err != nil {
			t.Fatal(err)
		}
		if p.hc.Timeout != c.want {
			t.Errorf("a client with Timeout %v is used with %v, want %v", c.timeout, p.hc.Timeout, c.want)
		}
		if hc.Timeout != c.timeout {
			t.Errorf("New changed the caller's client: Timeout %v, was %v", hc.Timeout, c.timeout)
		}
		p.Close()
	}
	p, _, err := New(Options{Upstream: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.hc.Timeout != 10*time.Second {
		t.Fatalf("the default client's Timeout is %v, want 10s", p.hc.Timeout)
	}
}
