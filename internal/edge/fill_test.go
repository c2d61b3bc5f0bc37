package edge

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
)

// waitFor polls cond until it holds; the conditions here are counters the
// proxy bumps, which offer nothing to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeadStreamsIntoTheFillBuffer sends a body through a coalesced miss
// in two parts, with two followers attaching between them: leader and
// followers must deliver the upstream's bytes, and the committed entry
// must hold them with no spare capacity — whether the length was declared
// (one reserved buffer) or not (a buffer that grew under the followers).
func TestLeadStreamsIntoTheFillBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		sized bool
	}{
		{"5MB declared", 5 << 20, true},
		{"1MB chunked", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := make([]byte, tc.size)
			rand.New(rand.NewSource(int64(tc.size))).Read(body)
			release := make(chan struct{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.sized {
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				}
				w.Header().Set("Cache-Control", "max-age=60")
				w.Header().Set("ETag", `"v1"`)
				w.Write(body[:len(body)/3])
				w.(http.Flusher).Flush()
				<-release
				w.Write(body[len(body)/3:])
			}))
			defer srv.Close()
			p, _, err := New(Options{Upstream: srv.URL})
			if err != nil {
				t.Fatal(err)
			}

			got := make([]*httptest.ResponseRecorder, 3)
			var wg sync.WaitGroup
			request := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = get(t, p, "/v1/page?path=/big", nil)
				}()
			}
			request(0)
			waitFor(t, "the leader's first bytes", func() bool { return p.Stats().BytesServed > 0 })
			request(1)
			request(2)
			waitFor(t, "two followers", func() bool { return p.Stats().CoalescedWaiters == 2 })
			close(release)
			wg.Wait()

			for i, w := range got {
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), body) {
					t.Errorf("request %d (%s): code %d, %d bytes, want the upstream's %d",
						i, w.Header().Get("X-Edge-Cache"), w.Code, w.Body.Len(), len(body))
				}
			}
			if st := p.Stats(); st.Misses != 1 {
				t.Errorf("misses = %d, want one upstream fetch", st.Misses)
			}
			e, ok := p.mem.PeekAny("/big")
			if !ok || !bytes.Equal(e.Body, body) {
				t.Fatalf("committed entry: present=%v, %d bytes", ok, len(e.Body))
			}
			if cap(e.Body) != len(e.Body) {
				t.Errorf("committed body has cap %d over len %d", cap(e.Body), len(e.Body))
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what a relay
// allocates is the relay's own.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestRefreshSketchStampsTheSend: the snapshot an edge holds was taken
// while its request was in flight, so its age counts from the send. An
// upstream that takes five seconds to answer must not buy the snapshot
// five more seconds of trust.
func TestRefreshSketchStampsTheSend(t *testing.T) {
	sent := time.Unix(1000, 0)
	clk := clock.NewSimulated(sent)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		clk.Advance(5 * time.Second)
		data, _ := bloom.NewFilterForCapacity(64, 0.01).MarshalBinary()
		w.Header().Set(cachesketch.GenerationHeader, "7")
		w.Header().Set(cachesketch.EpochHeader, "1")
		w.Write(data)
	}))
	defer srv.Close()
	p, _, err := New(Options{Upstream: srv.URL, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sn := p.sketch.Snapshot(); sn.Generation != 7 || !sn.TakenAt.Equal(sent) {
		t.Fatalf("snapshot generation %d taken at %v, want 7 at the send, %v", sn.Generation, sn.TakenAt, sent)
	}
}
