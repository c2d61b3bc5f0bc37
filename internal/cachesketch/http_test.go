package cachesketch

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"speedkit/internal/clock"
)

func TestSketchHTTPRoundTrip(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	srv := NewServer(ServerConfig{Clock: clk})
	srv.ReportCachedRead("/written", clk.Now().Add(time.Hour))
	srv.ReportWrite("/written")
	sn := srv.Snapshot()

	w := httptest.NewRecorder()
	if err := sn.WriteHTTP(w, "public, max-age=30"); err != nil {
		t.Fatal(err)
	}
	resp := w.Result()
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) || w.Body.Len() == 0 {
		t.Fatalf("Content-Length %q for a body of %d bytes", got, w.Body.Len())
	}
	if cc, ct := resp.Header.Get("Cache-Control"), resp.Header.Get("Content-Type"); cc != "public, max-age=30" || ct != "application/octet-stream" {
		t.Fatalf("Cache-Control %q, Content-Type %q", cc, ct)
	}

	sent := time.Unix(990, 0)
	got, err := ReadHTTP(resp, sent)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != sn.Generation || !got.TakenAt.Equal(sent) {
		t.Fatalf("generation %d, TakenAt %v; want %d and the send time %v", got.Generation, got.TakenAt, sn.Generation, sent)
	}
	if !got.MightBeStale("/written") || got.MightBeStale("/untouched") {
		t.Fatal("decoded filter does not answer like the one sent")
	}
}

func TestReadHTTPRefuses(t *testing.T) {
	sn := NewServer(ServerConfig{}).Snapshot()
	respond := func(mutate func(h http.Header, body []byte) []byte) *http.Response {
		w := httptest.NewRecorder()
		if err := sn.WriteHTTP(w, "public, max-age=30"); err != nil {
			t.Fatal(err)
		}
		resp := w.Result()
		body := mutate(resp.Header, w.Body.Bytes())
		rw := httptest.NewRecorder()
		rw.Body.Write(body)
		out := rw.Result()
		out.Header = resp.Header
		if n, err := strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64); err == nil {
			out.ContentLength = n
		}
		return out
	}
	for name, mutate := range map[string]func(http.Header, []byte) []byte{
		// Install orders snapshots by generation; inventing one would let
		// an older sketch displace a newer.
		"no generation":  func(h http.Header, b []byte) []byte { h.Del(GenerationHeader); return b },
		"bad generation": func(h http.Header, b []byte) []byte { h.Set(GenerationHeader, "seven"); return b },
		"short body":     func(_ http.Header, b []byte) []byte { return b[:len(b)/2] },
		"not a filter":   func(h http.Header, _ []byte) []byte { h.Set("Content-Length", "5"); return []byte("hello") },
	} {
		if got, err := ReadHTTP(respond(mutate), time.Now()); err == nil {
			t.Errorf("%s: decoded %+v", name, got)
		}
	}
}
