package cachesketch

import (
	"bytes"
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
	if err := sn.WriteHTTP(w, "public, max-age=30", 0); err != nil {
		t.Fatal(err)
	}
	resp := w.Result()
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) || w.Body.Len() == 0 {
		t.Fatalf("Content-Length %q for a body of %d bytes", got, w.Body.Len())
	}
	if cc, ct := resp.Header.Get("Cache-Control"), resp.Header.Get("Content-Type"); cc != "public, max-age=30" || ct != "application/octet-stream" {
		t.Fatalf("Cache-Control %q, Content-Type %q", cc, ct)
	}
	if _, stated := resp.Header["Age"]; stated {
		t.Fatalf("the server that just took the snapshot states an Age: %q", resp.Header.Get("Age"))
	}
	body := append([]byte(nil), w.Body.Bytes()...)

	sent := time.Unix(990, 0)
	got, err := ReadHTTP(resp, sent)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != sn.Generation || got.Epoch != sn.Epoch || !got.TakenAt.Equal(sent) || got.MaxAge != 30*time.Second {
		t.Fatalf("generation %d, epoch %x, TakenAt %v, MaxAge %v; want %d, %x, the send time %v and 30s",
			got.Generation, got.Epoch, got.TakenAt, got.MaxAge, sn.Generation, sn.Epoch, sent)
	}
	if !got.MightBeStale("/written") || got.MightBeStale("/untouched") {
		t.Fatal("decoded filter does not answer like the one sent")
	}

	// The next holder hands on the bytes it received, and says how long
	// it has had them: 2.1 s is "Age: 3", never 2.
	kept, err := got.Marshal()
	if err != nil || !bytes.Equal(kept, body) {
		t.Fatalf("a decoded snapshot marshals to other bytes than it arrived as (err %v)", err)
	}
	held := 2100 * time.Millisecond
	if age := got.Age(sent.Add(held)); age != 3*time.Second {
		t.Fatalf("Age after %v = %v, want it rounded up to 3s", held, age)
	}
	w2 := httptest.NewRecorder()
	if err := got.WriteHTTP(w2, "public, max-age=30", held); err != nil {
		t.Fatal(err)
	}
	if age := w2.Header().Get("Age"); age != "3" || !bytes.Equal(w2.Body.Bytes(), body) {
		t.Fatalf("second hop: Age %q (want 3), body equal: %v", age, bytes.Equal(w2.Body.Bytes(), body))
	}
	sent2 := time.Unix(5000, 0) // another clock altogether
	got2, err := ReadHTTP(w2.Result(), sent2)
	if err != nil {
		t.Fatal(err)
	}
	if want := sent2.Add(-3 * time.Second); !got2.TakenAt.Equal(want) || got2.Generation != sn.Generation {
		t.Fatalf("second hop: TakenAt %v, want the send less the stated Age, %v", got2.TakenAt, want)
	}
}

func TestReadHTTPRefuses(t *testing.T) {
	sn := NewServer(ServerConfig{}).Snapshot()
	respond := func(mutate func(h http.Header, body []byte) []byte) *http.Response {
		w := httptest.NewRecorder()
		if err := sn.WriteHTTP(w, "public, max-age=30", 0); err != nil {
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
		// Nor orders it a generation without the epoch it counts in.
		"no epoch":        func(h http.Header, b []byte) []byte { h.Del(EpochHeader); return b },
		"empty epoch":     func(h http.Header, b []byte) []byte { h.Set(EpochHeader, ""); return b },
		"worded epoch":    func(h http.Header, b []byte) []byte { h.Set(EpochHeader, "restart"); return b },
		"signed epoch":    func(h http.Header, b []byte) []byte { h.Set(EpochHeader, "-1"); return b },
		"epoch past 2^64": func(h http.Header, b []byte) []byte { h.Set(EpochHeader, "10000000000000000"); return b },
		"prefixed epoch":  func(h http.Header, b []byte) []byte { h.Set(EpochHeader, "0x1f"); return b },
		"short body":      func(_ http.Header, b []byte) []byte { return b[:len(b)/2] },
		"not a filter":    func(h http.Header, _ []byte) []byte { h.Set("Content-Length", "5"); return []byte("hello") },
		// A tier that cannot prove freshness does not guess: an Age that
		// does not parse is not an Age of zero.
		"worded age":     func(h http.Header, b []byte) []byte { h.Set("Age", "soon"); return b },
		"negative age":   func(h http.Header, b []byte) []byte { h.Set("Age", "-1"); return b },
		"fractional age": func(h http.Header, b []byte) []byte { h.Set("Age", "1.5"); return b },
		"age past 2^32":  func(h http.Header, b []byte) []byte { h.Set("Age", "99999999999"); return b },
	} {
		if got, err := ReadHTTP(respond(mutate), time.Now()); err == nil {
			t.Errorf("%s: decoded %+v", name, got)
		}
	}
}
