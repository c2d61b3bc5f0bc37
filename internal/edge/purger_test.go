package edge

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	counters "speedkit/internal/metrics"
)

// purgeSink is an edge stand-in for Purger tests: it records the purged
// paths in arrival order and counts the connections it accepted.
type purgeSink struct {
	mu     sync.Mutex
	paths  []string
	dials  atomic.Int64
	status int
	// block, when non-nil, holds every purge until release; entered
	// receives one value as each blocked purge arrives.
	block   chan struct{}
	entered chan struct{}
	once    sync.Once
	srv     *httptest.Server
}

func newPurgeSink(t *testing.T, block bool, status int) *purgeSink {
	t.Helper()
	s := &purgeSink{status: status}
	if block {
		s.block, s.entered = make(chan struct{}), make(chan struct{}, purgeSenders)
	}
	s.srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.block != nil {
			select {
			case s.entered <- struct{}{}: // occupy reads the first purgeSenders
			default:
			}
			<-s.block
		}
		s.mu.Lock()
		s.paths = append(s.paths, r.URL.Query().Get("path"))
		s.mu.Unlock()
		w.WriteHeader(s.status)
	}))
	s.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.dials.Add(1)
		}
	}
	s.srv.Start()
	t.Cleanup(s.srv.Close)
	t.Cleanup(s.release) // runs first: blocked handlers return before Close waits on them
	return s
}

func (s *purgeSink) release() {
	if s.block != nil {
		s.once.Do(func() { close(s.block) })
	}
}

// occupy fills every sender with a purge the blocked sink holds.
func (s *purgeSink) occupy(pu *Purger) {
	for i := 0; i < purgeSenders; i++ {
		pu.Purge("/held/" + strconv.Itoa(i))
	}
	for i := 0; i < purgeSenders; i++ {
		<-s.entered
	}
}

func (s *purgeSink) received() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.paths...)
}

func TestPurgerKeepsConnections(t *testing.T) {
	sink := newPurgeSink(t, false, http.StatusNoContent)
	pu := NewPurger(sink.srv.URL+"/", PurgerConfig{})

	const purges = 1000
	want := make([]string, purges)
	for i := range want {
		want[i] = "/product/" + strconv.Itoa(i)
		pu.Purge(want[i])
	}
	if err := pu.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Close returned, so the queue has drained: every purge arrived once.
	got := sink.received()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("edge saw %d purges after Close, want each of %d once", len(got), purges)
	}
	if n := sink.dials.Load(); n > purgeSenders {
		t.Fatalf("%d purges opened %d connections, want at most %d", purges, n, purgeSenders)
	}
	if d := pu.Dropped(); d != 0 {
		t.Fatalf("dropped %d purges with room in the queue", d)
	}

	_ = pu.Close(context.Background()) // idempotent
	pu.Purge("/late")
	if d := pu.Dropped(); d != 1 {
		t.Fatalf("a purge after Close: dropped = %d, want 1", d)
	}
}

func TestPurgerDropsOverflow(t *testing.T) {
	sink := newPurgeSink(t, true, http.StatusNoContent)
	pu := NewPurger(sink.srv.URL, PurgerConfig{})

	// Every sender is held by the blocked edge; then the queue fills, and
	// what does not fit is dropped.
	sink.occupy(pu)
	const overflow = 10
	for i := 0; i < purgeQueue+overflow; i++ {
		pu.Purge("/queued/" + strconv.Itoa(i))
	}
	if d := pu.Dropped(); d != overflow {
		t.Fatalf("dropped = %d with a full queue, want %d", d, overflow)
	}
	sink.release()
	if err := pu.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.received()); got != purgeSenders+purgeQueue {
		t.Fatalf("edge saw %d purges, want %d (the held ones and a full queue)", got, purgeSenders+purgeQueue)
	}
	if d := pu.Dropped(); d != overflow {
		t.Fatalf("dropped = %d after the drain, want %d", d, overflow)
	}
}

// TestPurgerCloseDeadline: against an edge that never answers, Close
// returns when its context ends and counts every unsent purge.
func TestPurgerCloseDeadline(t *testing.T) {
	sink := newPurgeSink(t, true, http.StatusNoContent)
	pu := NewPurger(sink.srv.URL, PurgerConfig{})
	sink.occupy(pu)
	const queued = 100
	for i := 0; i < queued; i++ {
		pu.Purge("/queued/" + strconv.Itoa(i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := pu.Close(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close against a hung edge = %v, want the deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a 50ms deadline", took)
	}
	if d := pu.Dropped(); d != purgeSenders+queued {
		t.Fatalf("dropped = %d, want %d (in flight and queued)", d, purgeSenders+queued)
	}
}

// TestPurgerReportsFailing: a refusing edge is reported once, not per
// purge, and every refused purge is counted in the owner's counter.
func TestPurgerReportsFailing(t *testing.T) {
	sink := newPurgeSink(t, false, http.StatusNotFound)
	var reports []error
	var mu sync.Mutex
	dropped := counters.NewCounter()
	pu := NewPurger(sink.srv.URL, PurgerConfig{
		Dropped: dropped,
		OnFailing: func(err error) {
			mu.Lock()
			reports = append(reports, err)
			mu.Unlock()
		},
	})
	const purges = 50
	for i := 0; i < purges; i++ {
		pu.Purge("/p/" + strconv.Itoa(i))
	}
	if err := pu.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !strings.Contains(reports[0].Error(), "404") {
		t.Fatalf("reports = %v, want one naming the 404", reports)
	}
	if dropped.Value() != purges || pu.Dropped() != purges {
		t.Fatalf("counter %d, Dropped %d, want %d", dropped.Value(), pu.Dropped(), purges)
	}
}

// TestPurgerConcurrentClose: purges racing Close are each either sent or
// counted as dropped, never lost and never a send on a closed queue.
func TestPurgerConcurrentClose(t *testing.T) {
	sink := newPurgeSink(t, false, http.StatusNoContent)
	pu := NewPurger(sink.srv.URL, PurgerConfig{})

	const senders, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pu.Purge("/g" + strconv.Itoa(g) + "/" + strconv.Itoa(i))
			}
		}(g)
	}
	_ = pu.Close(context.Background())
	wg.Wait()
	if sent, dropped := uint64(len(sink.received())), pu.Dropped(); sent+dropped != senders*each {
		t.Fatalf("sent %d + dropped %d != %d purged", sent, dropped, senders*each)
	}
}

// TestPurgerAbsorbsQueued: a path purged again while it waits in the
// queue is sent once; purged after it was sent, it is sent again.
func TestPurgerAbsorbsQueued(t *testing.T) {
	sink := newPurgeSink(t, true, http.StatusNoContent)
	pu := NewPurger(sink.srv.URL, PurgerConfig{})
	sink.occupy(pu)
	for i := 0; i < 5; i++ {
		pu.Purge("/category/shoes")
	}
	pu.Purge("/product/1")
	sink.release()
	if err := pu.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	count := func(path string) (n int) {
		for _, p := range sink.received() {
			if p == path {
				n++
			}
		}
		return n
	}
	if n := count("/category/shoes"); n != 1 {
		t.Fatalf("5 queued purges of one path reached the edge %d times, want 1", n)
	}
	if count("/product/1") != 1 || pu.Dropped() != 0 {
		t.Fatalf("other path sent %d times, dropped %d", count("/product/1"), pu.Dropped())
	}

	again := NewPurger(sink.srv.URL, PurgerConfig{})
	again.Purge("/category/shoes")
	for count("/category/shoes") != 2 {
		time.Sleep(time.Millisecond) // sent, so no longer queued
	}
	again.Purge("/category/shoes")
	if err := again.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := count("/category/shoes"); n != 3 {
		t.Fatalf("a purge after the path was sent: edge saw it %d times, want 3", n)
	}
}
