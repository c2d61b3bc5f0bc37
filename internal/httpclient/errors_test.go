package httpclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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

func TestDeadlineIsNotOffline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	tr := NewDirect(ts.URL, ts.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := tr.Fetch(ctx, "/x")
	if err == nil {
		t.Fatal("deadline-bound fetch succeeded")
	}
	if errors.Is(err, proxy.ErrOffline) {
		t.Fatalf("deadline classified as offline: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("context.DeadlineExceeded lost: %v", err)
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
