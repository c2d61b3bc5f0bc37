package httpclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
)

// TestFetchSketchStampsTheSend: a sketch that took five seconds to arrive
// was taken up to five seconds ago. A device holding it must ask for the
// next one no later than Δ after it sent the request — stamping the
// arrival would let it trust the snapshot for Δ plus the transfer.
func TestFetchSketchStampsTheSend(t *testing.T) {
	const delta = 30 * time.Second
	const transfer = 5 * time.Second
	sent := time.Unix(1000, 0)
	clk := clock.NewSimulated(sent)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		clk.Advance(transfer)
		data, _ := bloom.NewFilterForCapacity(64, 0.01).MarshalBinary()
		w.Header().Set(cachesketch.GenerationHeader, "3")
		w.Header().Set(cachesketch.EpochHeader, "1")
		w.Write(data)
	}))
	defer srv.Close()
	tr := New(srv.URL, srv.Client())
	tr.clk = clk

	sn, lat, err := tr.FetchSketch(context.Background(), netsim.EU)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.TakenAt.Equal(sent) || lat != transfer {
		t.Fatalf("TakenAt = %v, latency = %v; want the send %v and %v", sn.TakenAt, lat, sent, transfer)
	}

	device := cachesketch.NewClient(clk, delta)
	device.Install(sn)
	clk.Set(sent.Add(delta - time.Second))
	if device.NeedsRefresh() {
		t.Fatal("sketch stale before Δ had passed since the send")
	}
	clk.Set(sent.Add(delta))
	if !device.NeedsRefresh() {
		t.Fatalf("Δ after the send the device still trusts its sketch (age %v)", device.Age())
	}
}

// TestFetchSketchThroughACacheKeepsDelta: the sketch goes out under
// "Cache-Control: public, max-age=Δ", an invitation any shared cache on the
// path may accept. One that does holds the response for up to Δ and says
// so in Age; a device that did not read it would trust the snapshot for Δ
// more — 2Δ−1 s after the server took it. Three clocks that disagree by
// hours: only durations cross the wire.
func TestFetchSketchThroughACacheKeepsDelta(t *testing.T) {
	const delta = 30 * time.Second
	start := time.Unix(100000, 0)
	serverClk := clock.NewSimulated(start)
	cacheClk := clock.NewSimulated(start.Add(5 * time.Hour))
	deviceClk := clock.NewSimulated(start.Add(-7 * time.Hour))
	pass := func(d time.Duration) {
		serverClk.Advance(d)
		cacheClk.Advance(d)
		deviceClk.Advance(d)
	}

	// The server, as httpapi answers: the snapshot as of now, no Age.
	sketch := cachesketch.NewServer(cachesketch.ServerConfig{Clock: serverClk})
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := sketch.Snapshot().WriteHTTP(w, "public, max-age="+strconv.Itoa(int(delta/time.Second)), 0); err != nil {
			t.Error(err)
		}
	}))
	defer server.Close()

	// A shared cache that knows nothing of sketches: it keeps the first
	// response and replays it with the standard Age, whole seconds since
	// it asked, rounded up (RFC 9111 §4.2.3 has it no younger than that).
	var (
		held   *http.Response
		body   []byte
		asked  time.Time
		shared = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if held == nil {
				asked = cacheClk.Now()
				resp, err := http.Get(server.URL + r.URL.Path)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				held = resp
				body, _ = io.ReadAll(resp.Body)
			}
			for _, k := range []string{"Cache-Control", cachesketch.GenerationHeader, cachesketch.EpochHeader} {
				w.Header().Set(k, held.Header.Get(k))
			}
			if age := cacheClk.Now().Sub(asked); age > 0 {
				w.Header().Set("Age", strconv.Itoa(int((age+time.Second-1)/time.Second)))
			}
			w.Write(body)
		}))
	)
	defer shared.Close()

	fetch := func() *cachesketch.Client {
		tr := New(shared.URL, shared.Client())
		tr.clk = deviceClk
		sn, _, err := tr.FetchSketch(context.Background(), netsim.EU)
		if err != nil {
			t.Fatal(err)
		}
		device := cachesketch.NewClient(deviceClk, delta)
		device.Install(sn)
		return device
	}

	// t = 0: the cache fills; the server takes the snapshot now. A device
	// that asks at once gets the full Δ.
	taken := deviceClk.Now()
	first := fetch()
	// t = Δ − 1.3 s: the cache has held it 28.7 s and says "Age: 29".
	pass(delta - 1300*time.Millisecond)
	second := fetch()
	if second.NeedsRefresh() {
		t.Fatal("a copy the cache may still serve was dead on arrival")
	}
	// t = Δ: both devices hold a snapshot Δ old, whenever they got it.
	pass(1300 * time.Millisecond)
	if !deviceClk.Now().Equal(taken.Add(delta)) {
		t.Fatal("test clock arithmetic")
	}
	if !first.NeedsRefresh() {
		t.Fatalf("Δ after the snapshot was taken the first device still trusts it (age %v)", first.Age())
	}
	if !second.NeedsRefresh() {
		t.Fatalf("Δ after the server took the snapshot a device behind the cache still trusts it: it counts %v, having ignored the %v the cache held it", second.Age(), delta-1300*time.Millisecond)
	}
}
