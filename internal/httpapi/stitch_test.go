package httpapi_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpclient"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// stitchEpoch anchors both simulated clocks so trace timestamps replay
// byte-identically across twin runs.
var stitchEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// stitchResult is one device↔server round: the device's root traces,
// the server traces they stitched to, and the normalized export.
type stitchResult struct {
	page, revisit       *obs.Trace
	write               *obs.Trace
	srvPage, srvRevisit []*obs.Trace
	srvWrite            []*obs.Trace
	export              []byte
}

// runStitchRound runs a real two-process exchange: a server process
// (its own tracer domain, seed 2) behind an httptest listener, and a
// device proxy (seed 1) whose only connection to it is the HTTP wire.
// A cold page load, a revisit of the page — the first load that holds a
// copy, so the first to fetch the sketch — and one traceparent-carrying
// write cross that wire.
func runStitchRound(t *testing.T) stitchResult {
	t.Helper()

	srvClk := clock.NewSimulated(stitchEpoch)
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: srvClk, Seed: 1, Delta: 30 * time.Second,
			Obs:    obs.NewRegistry(),
			Tracer: obs.NewTracerSeeded(srvClk, 1, 64, 2),
		},
		Products: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(httpapi.New(svc, session.Population(1, 5)).Handler())
	t.Cleanup(ts.Close)

	devClk := clock.NewSimulated(stitchEpoch)
	devTracer := obs.NewTracerSeeded(devClk, 1, 16, 1)
	dev := proxy.New(proxy.Config{
		Region: netsim.EU,
		Delta:  30 * time.Second,
		Clock:  devClk,
		Tracer: devTracer,
	}, httpclient.New(ts.URL, nil))

	for range 2 {
		if _, err := dev.Load(context.Background(), "/product/p00042"); err != nil {
			t.Fatalf("page load over HTTP: %v", err)
		}
	}
	pages := devTracer.Recent(2)
	if len(pages) != 2 {
		t.Fatalf("device tracer sampled %d traces, want 2", len(pages))
	}

	wtr := devTracer.Start("admin.write", "/product/p00042")
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/write?product=p00042&price=19.99", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tracectx.Header, wtr.SpanContext().Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write over HTTP: status %d", resp.StatusCode)
	}
	devTracer.Finish(wtr)

	res := stitchResult{page: pages[1], revisit: pages[0], write: wtr} // newest first
	// The server finishes its traces just before the response bytes are
	// read back on this side; give the handler goroutine a bounded beat.
	for wait := 0; wait < 400; wait++ {
		res.srvPage = svc.Tracer().ByTraceID(res.page.TraceID)
		res.srvRevisit = svc.Tracer().ByTraceID(res.revisit.TraceID)
		res.srvWrite = svc.Tracer().ByTraceID(res.write.TraceID)
		if len(res.srvPage) >= 1 && len(res.srvRevisit) >= 1 && len(res.srvWrite) >= 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	all := append([]*obs.Trace{res.page}, res.srvPage...)
	all = append(all, res.revisit)
	all = append(all, res.srvRevisit...)
	all = append(all, res.write)
	all = append(all, res.srvWrite...)
	res.export, err = obs.ExportTraces(normalizeWallClock(all))
	if err != nil {
		t.Fatalf("ExportTraces: %v", err)
	}
	return res
}

// normalizeWallClock deep-copies traces with the wall-clock-measured
// costs zeroed — loopback TCP latency is the only nondeterminism in the
// exchange; identity, parentage, structure, events, and the simulated
// timestamps must replay byte-exactly.
func normalizeWallClock(in []*obs.Trace) []*obs.Trace {
	out := make([]*obs.Trace, len(in))
	for i, tr := range in {
		c := *tr
		c.Total = 0
		c.BlockLatency = 0
		c.SketchAge = 0
		c.DeltaBudget = 0
		c.Spans = append([]obs.Span(nil), tr.Spans...)
		for j := range c.Spans {
			c.Spans[j].Duration = 0
		}
		c.Events = append([]obs.Event(nil), tr.Events...)
		out[i] = &c
	}
	return out
}

// TestCrossProcessStitching is the acceptance check for the tracing
// tentpole: a device page load and a write each produce ONE stitched
// trace whose spans live in two processes joined only by a real HTTP
// hop, with correct causal parentage down to the invalidation pipeline,
// and the whole exchange exports byte-deterministically.
func TestCrossProcessStitching(t *testing.T) {
	res := runStitchRound(t)

	if res.page.TraceID.IsZero() || res.write.TraceID.IsZero() {
		t.Fatalf("device roots drew zero trace IDs")
	}
	if res.page.TraceID == res.write.TraceID || res.page.TraceID == res.revisit.TraceID {
		t.Fatalf("page load shares trace ID %s", res.page.TraceID)
	}

	// The cold load crossed the wire once, for the shell: it held nothing
	// for a sketch to vouch for. The revisit crossed it for the sketch.
	// Every server trace must have adopted its load's device identity.
	for _, load := range []struct {
		name      string
		dev       *obs.Trace
		srv       []*obs.Trace
		want, not string
	}{
		{"cold load", res.page, res.srvPage, "http.page", "http.sketch"},
		{"revisit", res.revisit, res.srvRevisit, "http.sketch", "http.page"},
	} {
		kinds := map[string]*obs.Trace{}
		for _, tr := range load.srv {
			kinds[tr.Kind] = tr
		}
		if kinds[load.not] != nil {
			t.Errorf("the %s crossed the wire for %s", load.name, load.not)
		}
		tr := kinds[load.want]
		if tr == nil {
			t.Fatalf("server recorded no %s trace on the %s's ID; got %d traces", load.want, load.name, len(load.srv))
		}
		if !tr.Remote {
			t.Errorf("%s trace not marked Remote", load.want)
		}
		if tr.TraceID != load.dev.TraceID {
			t.Errorf("%s adopted trace ID %s, want %s", load.want, tr.TraceID, load.dev.TraceID)
		}
		if tr.ParentSpanID != load.dev.SpanID {
			t.Errorf("%s parent span = %s, want device page span %s", load.want, tr.ParentSpanID, load.dev.SpanID)
		}
		if tr.SpanID == load.dev.SpanID || tr.SpanID.IsZero() {
			t.Errorf("%s drew span ID %s — must be its own, non-zero", load.want, tr.SpanID)
		}
	}

	// The write chains one hop deeper: device admin.write → server
	// http.write → the invalidation-pipeline runs the patch triggered.
	var writeTr *obs.Trace
	invalidations := 0
	for _, tr := range res.srvWrite {
		if tr.Kind == "http.write" {
			writeTr = tr
		}
	}
	if writeTr == nil {
		t.Fatalf("server recorded no http.write trace; got %d traces", len(res.srvWrite))
	}
	if !writeTr.Remote || writeTr.ParentSpanID != res.write.SpanID {
		t.Errorf("http.write parent span = %s remote=%v, want device span %s remote=true",
			writeTr.ParentSpanID, writeTr.Remote, res.write.SpanID)
	}
	for _, tr := range res.srvWrite {
		if tr.Kind != "invalidation" {
			continue
		}
		invalidations++
		if tr.TraceID != res.write.TraceID {
			t.Errorf("invalidation trace ID = %s, want write's %s", tr.TraceID, res.write.TraceID)
		}
		if tr.ParentSpanID != writeTr.SpanID {
			t.Errorf("invalidation parent span = %s, want http.write span %s", tr.ParentSpanID, writeTr.SpanID)
		}
	}
	if invalidations == 0 {
		t.Errorf("write produced no invalidation traces on its trace ID")
	}

	// Byte-deterministic golden export: an identical second round — new
	// server, new device, same seeds — must export the same bytes.
	twin := runStitchRound(t)
	if !bytes.Equal(res.export, twin.export) {
		t.Errorf("twin stitching rounds exported different bytes (%d vs %d):\n--- first ---\n%s\n--- twin ---\n%s",
			len(res.export), len(twin.export), res.export, twin.export)
	}
}
