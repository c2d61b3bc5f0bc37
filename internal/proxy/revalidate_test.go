package proxy

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/origin"
)

// TestRevalidationNotModifiedKeepsBody: a sketch-flagged page whose
// version is unchanged (a false positive, or a flagged-but-refetched-
// elsewhere resource) must be refreshed via the 304 path — cheap, and the
// held body survives.
func TestRevalidationNotModifiedKeepsBody(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	_, _ = p.Load(context.Background(), "/") // cold fill at v1

	// Flag the page in the sketch WITHOUT changing its version — exactly
	// what a Bloom false positive looks like to the client.
	tr.sketchSrv.ReportCachedRead("/", tr.clk.Now().Add(time.Hour))
	tr.sketchSrv.ReportWrite("/")
	// Force a sketch refresh so the flag is visible.
	p.sketch.Install(tr.sketchSrv.Snapshot())

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Revalidated {
		t.Fatal("flagged page not revalidated")
	}
	if len(res.Body) == 0 {
		t.Fatal("304 path lost the held body")
	}
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
	st := p.Stats()
	if st.NotModified != 1 {
		t.Fatalf("NotModified = %d", st.NotModified)
	}
	// Cheap: the 5ms conditional beats the 40ms full fetch.
	if res.Latency > 20*time.Millisecond {
		t.Fatalf("304 latency %v too high", res.Latency)
	}
}

// TestRevalidationModifiedFetchesNewBody: a flagged page whose version
// advanced must come back with the new representation.
func TestRevalidationModifiedFetchesNewBody(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	_, _ = p.Load(context.Background(), "/")

	tr.sketchSrv.ReportWrite("/") // cached copy exists from the load above
	e := tr.pages["/"]
	e.Version = 2
	e.Body = []byte("<html>v2</html>")
	e.Metadata = nil
	tr.pages["/"] = e
	p.sketch.Install(tr.sketchSrv.Snapshot())

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || string(res.Body) != "<html>v2</html>" {
		t.Fatalf("got v%d %q", res.Version, res.Body)
	}
	if p.Stats().NotModified != 0 {
		t.Fatal("modified page counted as 304")
	}
	// The device cache now holds v2.
	held, ok := p.store.Peek("/")
	if !ok || held.Version != 2 {
		t.Fatalf("device cache not updated: %+v %v", held, ok)
	}
}

// TestExpiredCopyIsFetchedWithoutSketch: an expired device copy cannot be
// served, so no sketch decides anything about it — not even a fresh one
// that flags the page. The load is a plain fetch, as for no copy at all.
func TestExpiredCopyIsFetchedWithoutSketch(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	// Short-lived page.
	body := []byte("short " + origin.BlockPlaceholder("cart"))
	e := cache.TTLEntry(clk, "/short", body, 1, 10*time.Second)
	e.Metadata = BlocksMetadata([]string{"cart"})
	tr.pages["/short"] = e
	_, _ = p.Load(context.Background(), "/short")

	// Another client elsewhere caches a long-lived copy, then a write
	// flags the page — the flag outlives our device copy's short TTL.
	tr.sketchSrv.ReportCachedRead("/short", clk.Now().Add(time.Hour))
	tr.sketchSrv.ReportWrite("/short")
	clk.Advance(11 * time.Second) // device copy expires; flag persists
	p.sketch.Install(tr.sketchSrv.Snapshot())

	tr.calls = nil
	res, err := p.Load(context.Background(), "/short")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.calls) != 1 || tr.calls[0] != "Fetch" || res.Revalidated || res.SketchRefreshed {
		t.Fatalf("load with an expired copy: calls %v, revalidated %v, refreshed %v; want one Fetch",
			tr.calls, res.Revalidated, res.SketchRefreshed)
	}
	if len(res.Body) == 0 || res.Version != 1 {
		t.Fatalf("expired copy refetched as v%d, %d bytes", res.Version, len(res.Body))
	}
}

// TestEpochChangeRevalidatesHeldCopies: the service restarts without its
// history. A write it then sees is one no cache holds, as far as it knows,
// so its sketch never flags the page. The device stored its copy under
// the old epoch: the first refresh that brings the new one revalidates it,
// and so the device reads the new version past Δ. Every copy made before
// the new epoch was installed is revalidated once — here the one the
// revalidation brought back too — and then served from the device again.
func TestEpochChangeRevalidatesHeldCopies(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	ctx := context.Background()
	load := func(step string) PageLoad {
		t.Helper()
		res, err := p.Load(ctx, "/plain")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return res
	}
	load("cold")
	clk.Advance(time.Second)
	if res := load("warm"); res.Source != SourceDevice {
		t.Fatalf("warm load from %v, want the device", res.Source)
	}

	// The restart, then the write: a new sketch server, which tracks
	// nothing, and a new version of the page.
	tr.sketchSrv = cachesketch.NewServer(cachesketch.ServerConfig{Clock: tr.clk})
	tr.pages["/plain"] = cache.TTLEntry(clk, "/plain", []byte("<html>v2</html>"), 2, time.Hour)
	if tr.sketchSrv.ReportWrite("/plain") {
		t.Fatal("the restarted server tracks a write to a page it never saw cached")
	}

	clk.Advance(p.cfg.Delta)
	res := load("past Δ")
	if !res.SketchRefreshed || !res.Revalidated || res.Version != 2 {
		t.Fatalf("past Δ: refreshed %v, revalidated %v, v%d; want the new epoch's revalidation to v2",
			res.SketchRefreshed, res.Revalidated, res.Version)
	}
	load("settling")
	if res := load("settled"); res.Source != SourceDevice || res.Version != 2 {
		t.Fatalf("settled: v%d from %v, want v2 from the device", res.Version, res.Source)
	}
}
