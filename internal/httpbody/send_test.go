package httpbody

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"
)

// hungServer answers nothing until the request's connection goes or the
// test ends.
func hungServer(t *testing.T) *httptest.Server {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	return srv
}

// TestSendTimesOutAHungRequest: under a parent that cannot end, a request
// to a handler that never answers fails no sooner than the Timeout and
// within 9/8 of it plus scheduling slack, as the *url.Error http.Client
// returns, with the deadline readable through errors.Is.
func TestSendTimesOutAHungRequest(t *testing.T) {
	// A Timeout no other test uses, so the shared deadline is made by
	// this request.
	const timeout = 150 * time.Millisecond
	srv := hungServer(t)
	s := NewSender(&http.Client{Timeout: timeout})
	start := time.Now()
	resp, err := s.Send(context.Background(), http.MethodGet, srv.URL+"/v1/page?path=/", nil, nil)
	took := time.Since(start)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("a hung request answered %d", resp.StatusCode)
	}
	var ue *url.Error
	if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &ue) || ue.Op != "Get" || ue.URL != srv.URL+"/v1/page?path=/" {
		t.Fatalf("err = %#v, want a Get *url.Error wrapping context.DeadlineExceeded", err)
	}
	if took < timeout || took > timeout*9/8+500*time.Millisecond {
		t.Fatalf("the request failed after %v, want [%v, %v + 500ms]", took, timeout, timeout*9/8)
	}
}

// TestSendFollowsTheParent: a parent that can end still ends the request
// when it is cancelled, long before the Timeout.
func TestSendFollowsTheParent(t *testing.T) {
	srv := hungServer(t)
	s := NewSender(nil)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	resp, err := s.Send(ctx, http.MethodGet, srv.URL, nil, nil)
	if err == nil {
		resp.Body.Close()
		t.Fatal("a cancelled request answered")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > DefaultTimeout/2 {
		t.Fatalf("the cancelled request ended after %v", took)
	}
}

// TestSharedDeadlineBounds: every context handed out, to callers on
// several goroutines at once, has at least the Timeout left on the coarse
// clock, past its resolution, and at most 9/8 of it; and handing one out
// allocates nothing while the current one serves.
func TestSharedDeadlineBounds(t *testing.T) {
	const timeout = 40 * time.Millisecond
	d := sharedDeadlineFor(timeout)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := time.Now().Add(3 * timeout); time.Now().Before(stop); time.Sleep(100 * time.Microsecond) {
				before := coarse.Now()
				dl, ok := d.context().Deadline()
				after := coarse.Now()
				if !ok || dl.Before(before.Add(timeout+coarse.Resolution())) || dl.After(after.Add(timeout*9/8)) {
					t.Errorf("deadline %v left at %v..%v, want [%v + resolution, %v]", dl, before, after, timeout, timeout*9/8)
					return
				}
			}
		}()
	}
	wg.Wait()

	long := sharedDeadlineFor(time.Hour)
	long.context()
	if n := testing.AllocsPerRun(1000, func() { long.context() }); n != 0 {
		t.Fatalf("the shared deadline lookup allocates %v", n)
	}
	s := NewSender(&http.Client{Timeout: time.Hour})
	if s.shared != long {
		t.Fatal("two Senders of one Timeout hold different shared deadlines")
	}
}

// TestSendStartsNoGoroutine: a thousand sends leave as many goroutines
// as they found; no request leaves a timer goroutine or a watcher behind.
func TestSendStartsNoGoroutine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	s := NewSender(&http.Client{Timeout: 10 * time.Second, Transport: tr})
	send := func() {
		resp, err := s.Send(context.Background(), http.MethodGet, srv.URL, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadAll(resp); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	send() // the keep-alive connection's reader and writer
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		send()
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("%d goroutines after 1 000 sends, %d before", after, before)
	}
}
