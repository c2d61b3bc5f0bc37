package edge

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpbody"
)

// raceUpstream serves one page, /p, at a version a test moves, and holds
// an armed request after it has chosen its answer: a 200 with the first
// half of its body sent, or before its status line if the hold says so, a
// 304 before its status line.
type raceUpstream struct {
	mu      sync.Mutex
	version uint64
	hold    atomic.Pointer[holdPoint]
	srv     *httptest.Server
}

// holdPoint is one armed hold: the upstream closes reached once the
// request is held and answers the rest once release is closed.
type holdPoint struct {
	reached, release chan struct{}
	// beforeStatus holds a 200 before its status line too.
	beforeStatus bool
}

// wait is the hold itself.
func (hp *holdPoint) wait() {
	close(hp.reached)
	<-hp.release
}

func newRaceUpstream(version uint64) *raceUpstream {
	u := &raceUpstream{version: version}
	u.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		u.mu.Lock()
		v := u.version
		u.mu.Unlock()
		hp := u.hold.Swap(nil)
		etag := httpbody.ETag(v)
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "max-age=60")
		if r.Header.Get("If-None-Match") == etag {
			if hp != nil {
				hp.wait()
			}
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if hp != nil && hp.beforeStatus {
			hp.wait()
			hp = nil
		}
		body := "the page at version " + strconv.FormatUint(v, 10)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write([]byte(body[:len(body)/2]))
		if hp != nil {
			w.(http.Flusher).Flush()
			hp.wait()
		}
		w.Write([]byte(body[len(body)/2:]))
	}))
	return u
}

func (u *raceUpstream) set(version uint64) {
	u.mu.Lock()
	u.version = version
	u.mu.Unlock()
}

// TestWatermarkPredatesTheRequest: a copy is validated at the generation
// the edge held when it asked for it, not at the one it holds when the
// copy commits. Each row sends one request the upstream answers with the
// old version and then holds — a fill through lead, a 200 refetch and a
// 304 renewal through revalidatePath. While it is held the page is
// written and the edge installs a sketch that flags it: a newer
// generation, or another epoch whose generations are lower than the one
// held. The next request must not be a hit on the old version. The clock
// stands still, so the epoch mark (EpochSince) cannot tell the copy from
// one stored after the install: the watermark alone must.
//
// In the last install the clock moves 1 s first, the upstream holds a
// 200 before its status line, and the sketch of the other epoch flags
// nothing, as the sketch of an incarnation that never served the copy
// does not. The copy then arrives after the epoch mark, and no watermark
// can stop the hit: the answer states no epoch, and one that is not the
// held sketch's must not be stored.
func TestWatermarkPredatesTheRequest(t *testing.T) {
	installs := []struct {
		name    string
		sn      *cachesketch.Snapshot
		advance time.Duration
	}{
		{"newer generation", snapshotIn(1, 6, "/p"), 0},
		{"another epoch", snapshotIn(2, 2, "/p"), 0},
		{"another epoch flagging nothing, 1 s later", snapshotIn(2, 2), time.Second},
	}
	for _, path := range []struct {
		name string
		// setup brings the edge to the point where the next request for /p
		// takes this path to the upstream, which then holds /p at version
		// 1; it returns the X-Edge-Cache state that request answers with.
		setup func(t *testing.T, p *Proxy, u *raceUpstream) string
	}{
		{"200 fill through lead", func(t *testing.T, p *Proxy, u *raceUpstream) string {
			u.set(1)
			return "miss"
		}},
		{"200 refetch through revalidatePath", func(t *testing.T, p *Proxy, u *raceUpstream) string {
			u.set(0)
			mustState(t, p, "miss")
			u.set(1)
			p.InstallSketch(snapshotIn(1, 5, "/p"))
			return "miss"
		}},
		{"304 renewal through revalidatePath", func(t *testing.T, p *Proxy, u *raceUpstream) string {
			u.set(1)
			mustState(t, p, "miss")
			p.InstallSketch(snapshotIn(1, 5, "/p"))
			return "revalidated"
		}},
	} {
		for _, in := range installs {
			t.Run(path.name+"/"+in.name, func(t *testing.T) {
				u := newRaceUpstream(0)
				defer u.srv.Close()
				clk := clock.NewSimulated(time.Unix(1000, 0))
				p, _, err := New(Options{Upstream: u.srv.URL, Clock: clk})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				p.InstallSketch(snapshotIn(1, 4))
				want := path.setup(t, p, u)

				hp := &holdPoint{reached: make(chan struct{}), release: make(chan struct{}), beforeStatus: in.advance > 0}
				u.hold.Store(hp)
				done := make(chan *httptest.ResponseRecorder)
				go func() { done <- get(t, p, "/v1/page?path=/p", nil) }()
				<-hp.reached
				u.set(2)
				clk.Advance(in.advance)
				p.InstallSketch(in.sn)
				close(hp.release)
				if w := <-done; w.Header().Get("X-Edge-Cache") != want || w.Header().Get("Etag") != httpbody.ETag(1) {
					t.Fatalf("held request answered %s %s, want %s %s",
						w.Header().Get("X-Edge-Cache"), w.Header().Get("Etag"), want, httpbody.ETag(1))
				}

				w := get(t, p, "/v1/page?path=/p", nil)
				if state, etag := w.Header().Get("X-Edge-Cache"), w.Header().Get("Etag"); etag != httpbody.ETag(2) {
					t.Fatalf("after the write the edge answered %s %s, want version 2", state, etag)
				}
			})
		}
	}
}

// mustState requests /p and fails unless the edge answers with state.
func mustState(t *testing.T, p *Proxy, state string) {
	t.Helper()
	if w := get(t, p, "/v1/page?path=/p", nil); w.Code != http.StatusOK || w.Header().Get("X-Edge-Cache") != state {
		t.Fatalf("GET /p: %d %s, want 200 %s", w.Code, w.Header().Get("X-Edge-Cache"), state)
	}
}
