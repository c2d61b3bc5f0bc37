package httpapi

import (
	"context"
	"net/http"
	"runtime/debug"
	"testing"

	"speedkit/internal/cachesketch"
	"speedkit/internal/netsim"
)

// headerWriter is a ResponseWriter that keeps only its header map, so
// what a handler allocates is the handler's own.
type headerWriter struct{ h http.Header }

func (d headerWriter) Header() http.Header         { return d.h }
func (d headerWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d headerWriter) WriteHeader(int)             {}

// TestWritePageAllocations pins what writing a page answer costs: the
// sketch epoch it states is the server's value, formatted once per epoch
// and shared, so it adds nothing to what the answer cost without it (the
// Cache-Control and ETag strings, and the header values Set makes).
func TestWritePageAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, _, _ := newTestAPI(t)
	entry, lat, src, err := a.svc.Fetch(context.Background(), netsim.EU, "/product/p00001")
	if err != nil {
		t.Fatal(err)
	}
	var w headerWriter
	n := testing.AllocsPerRun(200, func() {
		w = headerWriter{h: http.Header{}} // fresh, as net/http's is
		a.writePage(w, entry, lat, src.String())
	})
	if n > writePageAllocs {
		t.Fatalf("writePage allocates %.0f, want at most %d", n, writePageAllocs)
	}
	if cachesketch.PageEpoch(w.h) != a.svc.SketchServer().Epoch() {
		t.Fatalf("the page answer states epoch %v, want the server's %x", w.h[cachesketch.EpochHeader], a.svc.SketchServer().Epoch())
	}
}

// writePageAllocs is what writePage allocated, its fresh header map
// included, before page answers stated an epoch.
const writePageAllocs = 14

// raceEnabled reports whether the test binary was built with the race
// detector: its instrumentation adds allocations (sync.Pool drops items at
// random), so allocation pins hold only without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
