package core

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
)

// newObservedStorefront builds a storefront with a private registry and
// an always-sample tracer, so assertions see exactly this test's events.
func newObservedStorefront(t *testing.T) (*Service, *obs.Registry, *obs.Tracer) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(clk, 1, 64)
	svc, err := NewStorefront(StorefrontConfig{
		Config: Config{
			Clock: clk, Seed: 1, Delta: 30 * time.Second,
			Obs: reg, Tracer: tracer,
		},
		Products: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, reg, tracer
}

// counterValue reads one series out of a registry snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) float64 {
	t.Helper()
	// Resolving through the registry returns the same handle the
	// instrumented code uses, so reading it observes the live value.
	return float64(reg.Counter(name, labels...).Value())
}

func TestDeviceLoadInstrumentsRegistryAndTracer(t *testing.T) {
	svc, reg, tracer := newObservedStorefront(t)
	dev := svc.NewDevice(testUser(), netsim.EU)

	if _, err := dev.Load(context.Background(), "/product/p00042"); err != nil {
		t.Fatal(err)
	}

	if got := counterValue(t, reg, "speedkit.device.loads.total", obs.L("source", "origin")); got != 1 {
		t.Fatalf("device origin loads = %v, want 1", got)
	}
	if got := counterValue(t, reg, "speedkit.service.fetch.total", obs.L("source", "origin")); got != 1 {
		t.Fatalf("service origin fetches = %v, want 1", got)
	}
	if got := counterValue(t, reg, "speedkit.device.sketch_refreshes.total"); got != 0 {
		t.Fatalf("sketch refreshes = %v, want 0 (a cold client holds nothing to vouch for)", got)
	}
	// The revisit holds a copy: it refreshes the sketch and serves it.
	if _, err := dev.Load(context.Background(), "/product/p00042"); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "speedkit.device.sketch_refreshes.total"); got != 1 {
		t.Fatalf("sketch refreshes = %v, want 1 (the revisit)", got)
	}

	// Each load produced one sampled page_load trace carrying the serve
	// source, the sketch stamp, and the span chain: the cold one without a
	// sketch fetch, the revisit with one.
	var pages []*obs.Trace
	for _, tr := range tracer.Recent(16) {
		if tr.Kind == "page_load" {
			pages = append(pages, tr)
		}
	}
	if len(pages) != 2 {
		t.Fatalf("%d page_load traces sampled, want 2", len(pages))
	}
	revisit, cold := pages[0], pages[1] // newest first
	if cold.Path != "/product/p00042" || cold.Source != "origin" || revisit.Source != "device" {
		t.Fatalf("traces = %+v, %+v", cold, revisit)
	}
	if cold.SketchRefreshed || !revisit.SketchRefreshed {
		t.Fatalf("sketch refreshed: cold %v, revisit %v; want only the revisit", cold.SketchRefreshed, revisit.SketchRefreshed)
	}
	if cold.Blocks == 0 {
		t.Fatal("personalized load recorded no blocks")
	}
	for _, c := range []struct {
		tr         *obs.Trace
		want, none string
	}{{cold, "shell.fetch", "sketch.fetch"}, {revisit, "sketch.fetch", ""}} {
		names := map[string]bool{}
		for _, sp := range c.tr.Spans {
			names[sp.Name] = true
		}
		if !names[c.want] || !names["personalize"] || names[c.none] {
			t.Fatalf("spans %+v: want %q and personalize, not %q", c.tr.Spans, c.want, c.none)
		}
	}
	if cold.Total <= 0 {
		t.Fatalf("trace total = %v", cold.Total)
	}
}

func TestInvalidationPipelineTracedAndCounted(t *testing.T) {
	svc, reg, tracer := newObservedStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)

	// Cache a copy so the write has a live copy to track, then write.
	if _, err := dev.Load(context.Background(), "/product/p00007"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Docs().Patch("products", "p00007", map[string]any{"price": 9.99}); err != nil {
		t.Fatal(err)
	}

	if got := counterValue(t, reg, "speedkit.invalidation.total"); got < 1 {
		t.Fatalf("invalidations = %v, want >= 1", got)
	}
	if got := counterValue(t, reg, "speedkit.cdn.purges.total"); got < 1 {
		t.Fatalf("purges = %v, want >= 1", got)
	}

	var inv *obs.Trace
	for _, tr := range tracer.Recent(64) {
		if tr.Kind == "invalidation" && tr.Path == "/product/p00007" {
			inv = tr
			break
		}
	}
	if inv == nil {
		t.Fatal("no invalidation trace for the written path")
	}
	if inv.SketchGeneration == 0 {
		t.Fatal("invalidation trace missing the post-write sketch generation")
	}
	names := map[string]bool{}
	for _, sp := range inv.Spans {
		names[sp.Name] = true
	}
	if !names["sketch.report"] || !names["cdn.purge"] {
		t.Fatalf("pipeline spans = %+v", inv.Spans)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	svc, _ := newTestStorefront(t)
	dev := svc.NewDevice(nil, netsim.EU)
	if _, err := dev.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	if svc.Tracer() != nil {
		t.Fatal("tracer should default to nil (tracing off)")
	}
}
