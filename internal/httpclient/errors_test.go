package httpclient

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cachesketch"
	"speedkit/internal/edge"
	"speedkit/internal/httpbody"
	"speedkit/internal/proxy"
)

// brokenServer returns a server that answers every request with status
// and body.
func brokenServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchServerErrorIsRetryableNotOffline(t *testing.T) {
	ts := brokenServer(t, http.StatusInternalServerError, "boom")
	tr := NewDirect(ts.URL, ts.Client())
	_, _, err := tr.Fetch(context.Background(), "/x")
	if err == nil {
		t.Fatal("500 swallowed")
	}
	if errors.Is(err, proxy.ErrOffline) {
		t.Fatal("application error classified as offline")
	}
	if !errors.Is(err, proxy.ErrUpstream) {
		t.Fatalf("5xx not retryable: %v", err)
	}
}

func TestFetchClientErrorIsNotRetryable(t *testing.T) {
	ts := brokenServer(t, http.StatusNotFound, "no such page")
	tr := NewDirect(ts.URL, ts.Client())
	_, _, err := tr.Fetch(context.Background(), "/x")
	if err == nil {
		t.Fatal("404 swallowed")
	}
	if errors.Is(err, proxy.ErrUpstream) || errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("4xx misclassified: %v", err)
	}
}

// TestRedirectIsAStatusError: a device follows no redirect. An upstream
// 302 is an application error, neither offline nor retryable, and the
// page Location names is never fetched.
func TestRedirectIsAStatusError(t *testing.T) {
	target := brokenServer(t, http.StatusOK, "a page from elsewhere")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, target.URL+"/v1/page?path=/x", http.StatusFound)
	}))
	defer ts.Close()
	tr := NewDirect(ts.URL, nil)
	_, _, err := tr.Fetch(context.Background(), "/x")
	if err == nil || !strings.Contains(err.Error(), "302") {
		t.Fatalf("err = %v, want the 302 as a status error", err)
	}
	if errors.Is(err, proxy.ErrOffline) || errors.Is(err, proxy.ErrUpstream) {
		t.Fatalf("a redirect misclassified: %v", err)
	}
}

// gzipUpstream answers every page request with page gzip-compressed,
// whatever the request accepts, and the sketch plain; pages counts the
// page requests.
func gzipUpstream(t *testing.T, page string) (srv *httptest.Server, pages *atomic.Int64) {
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	io.WriteString(zw, page)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	pages = new(atomic.Int64)
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sketch" {
			sn := &cachesketch.Snapshot{Filter: bloom.NewFilterForCapacity(64, 0.01)}
			if err := sn.WriteHTTP(w, "public, max-age=30", 0); err != nil {
				t.Error(err)
			}
			return
		}
		pages.Add(1)
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("ETag", `"v1"`)
		w.Header().Set("Cache-Control", "public, max-age=60")
		w.Write(zipped.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv, pages
}

// TestEncodedAnswerIsRefused: every request states Accept-Encoding:
// identity and no tier decodes a body, so an upstream that gzips anyway
// is refused rather than kept and served as the page. A device straight
// at it reads an error that is neither offline nor retryable. Behind an
// edge, the edge answers each fill 502 and stores nothing: the device's
// load fails, and every page request the edge saw went upstream.
func TestEncodedAnswerIsRefused(t *testing.T) {
	upstream, pages := gzipUpstream(t, "<html>page</html>")
	ctx := context.Background()

	direct := NewDirect(upstream.URL, nil)
	_, _, ferr := direct.Fetch(ctx, "/p")
	_, rerr := direct.Revalidate(ctx, "/p", 7)
	for _, err := range []error{ferr, rerr} {
		if !errors.Is(err, httpbody.ErrEncoded) || errors.Is(err, proxy.ErrOffline) || errors.Is(err, proxy.ErrUpstream) {
			t.Fatalf("a device straight at the upstream: err = %v, want httpbody.ErrEncoded, neither offline nor retryable", err)
		}
	}

	ed, _, err := edge.New(edge.Options{Upstream: upstream.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()
	if err := ed.RefreshSketch(ctx); err != nil {
		t.Fatal(err)
	}
	edgeSrv := httptest.NewServer(ed.Handler())
	defer edgeSrv.Close()
	tr := NewBehindEdge(edgeSrv.URL, upstream.URL, nil)
	device := proxy.NewSplit(proxy.Config{}, tr, tr)
	before := pages.Load()
	if res, err := device.Load(ctx, "/p"); err == nil {
		t.Fatalf("the device loaded %q", res.Body)
	}
	fills := uint64(pages.Load() - before)
	if s := ed.Stats(); fills == 0 || s.Hits != 0 || s.Misses != fills || s.UpstreamErrors != fills {
		t.Fatalf("edge stats %+v after %d upstream page requests; want each a miss and an upstream error, no hit", s, fills)
	}
}

func TestFetchConnectionRefusedIsOffline(t *testing.T) {
	tr := NewDirect("http://127.0.0.1:1", nil) // nothing listens on port 1
	_, _, err := tr.Fetch(context.Background(), "/x")
	if !errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("err = %v, want ErrOffline", err)
	}
	_, rerr := tr.Revalidate(context.Background(), "/x", 1)
	if !errors.Is(rerr, proxy.ErrOffline) {
		t.Fatalf("revalidate err = %v, want ErrOffline", rerr)
	}
}

// Cancellation is the caller abandoning the request, not connectivity
// loss: it must NOT engage offline mode. http.Client wraps ctx errors in
// *url.Error, which the blanket url.Error→ErrOffline mapping used to
// swallow.
func TestCancellationIsNotOffline(t *testing.T) {
	blocked := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold until the client gives up
		close(blocked)
	}))
	t.Cleanup(ts.Close)
	tr := NewDirect(ts.URL, ts.Client())

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _, err := tr.Fetch(ctx, "/x")
	<-blocked
	if err == nil {
		t.Fatal("cancelled fetch succeeded")
	}
	if errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("cancellation classified as offline: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled lost: %v", err)
	}
}

// TestDeadlineIsNotOffline: a fetch cut by a deadline is not offline
// mode, whether the deadline is the caller's or the client's Timeout. The
// Timeout of a load under a context that cannot end (the shared deadline)
// cuts it no sooner than the Timeout and within 9/8 of it plus
// scheduling slack.
func TestDeadlineIsNotOffline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	const timeout = 120 * time.Millisecond
	for _, c := range []struct {
		name                      string
		ctxTimeout, clientTimeout time.Duration
	}{
		{"caller's deadline", 10 * time.Millisecond, 0},
		{"client's Timeout", 0, timeout},
	} {
		tr := NewDirect(ts.URL, &http.Client{Timeout: c.clientTimeout})
		ctx := context.Background()
		if c.ctxTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.ctxTimeout)
			defer cancel()
		}
		start := time.Now()
		_, _, err := tr.Fetch(ctx, "/x")
		took := time.Since(start)
		if err == nil {
			t.Fatalf("%s: deadline-bound fetch succeeded", c.name)
		}
		if errors.Is(err, proxy.ErrOffline) {
			t.Fatalf("%s: deadline classified as offline: %v", c.name, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: context.DeadlineExceeded lost: %v", c.name, err)
		}
		if ct := c.clientTimeout; ct > 0 && (took < ct || took > ct*9/8+500*time.Millisecond) {
			t.Fatalf("%s: the fetch was cut after %v, want [%v, %v + 500ms]", c.name, took, ct, ct*9/8)
		}
	}
}

func TestFetchSketchErrors(t *testing.T) {
	// Unreachable server → offline.
	tr := NewDirect("http://127.0.0.1:1", nil)
	if _, err := tr.FetchSketch(context.Background()); !errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("dead server: %v, want ErrOffline", err)
	}
	// Server up but returning garbage → decode error, not offline.
	ts := brokenServer(t, http.StatusOK, "not-a-bloom-filter")
	tr2 := NewDirect(ts.URL, ts.Client())
	if sn, err := tr2.FetchSketch(context.Background()); err == nil || sn != nil {
		t.Fatal("snapshot decoded from garbage")
	}
	// 503 → retryable upstream failure.
	ts503 := brokenServer(t, http.StatusServiceUnavailable, "")
	tr3 := NewDirect(ts503.URL, ts503.Client())
	if _, err := tr3.FetchSketch(context.Background()); !errors.Is(err, proxy.ErrUpstream) {
		t.Fatalf("503 sketch: %v, want ErrUpstream", err)
	}
}

func TestFetchBlocksErrors(t *testing.T) {
	tr := NewDirect("http://127.0.0.1:1", nil)
	if _, err := tr.FetchBlocks(context.Background(), []string{"cart"}, nil); !errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("dead server: %v, want ErrOffline", err)
	}
	for _, body := range []string{
		"{not json",           // not frames at all
		"\x07a cart",          // a length past the end
		"\x06a cart\x00",      // a fragment, then trailing bytes
		"\x06a cart\x05tier!", // two fragments for one name
		"",                    // no fragment for the name
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", // the largest length
	} {
		ts := brokenServer(t, http.StatusOK, body)
		frs, err := NewDirect(ts.URL, ts.Client()).FetchBlocks(context.Background(), []string{"cart"}, nil)
		if !errors.Is(err, httpbody.ErrBlocksFrame) || frs != nil || errors.Is(err, proxy.ErrOffline) {
			t.Errorf("blocks answer %q: %q, %v; want a frame error", body, frs, err)
		}
	}
	ts400 := brokenServer(t, http.StatusBadRequest, "")
	tr3 := NewDirect(ts400.URL, ts400.Client())
	_, err := tr3.FetchBlocks(context.Background(), []string{"cart"}, nil)
	if err == nil || errors.Is(err, proxy.ErrUpstream) || errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("400 blocks misclassified: %v", err)
	}
}

func TestRevalidateServerError(t *testing.T) {
	ts := brokenServer(t, http.StatusInternalServerError, "oops")
	tr := NewDirect(ts.URL, ts.Client())
	if _, err := tr.Revalidate(context.Background(), "/x", 1); !errors.Is(err, proxy.ErrUpstream) {
		t.Fatalf("500 revalidation: %v, want ErrUpstream", err)
	}
}
