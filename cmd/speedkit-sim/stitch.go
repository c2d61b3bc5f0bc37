package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"speedkit"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpclient"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/tracectx"
)

// stitchEpoch anchors both simulated clocks so trace timestamps replay
// byte-identically across twin runs.
var stitchEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// stitchRun is what one device↔server round produced: the normalized
// golden export plus the identities the invariants are checked against.
type stitchRun struct {
	export []byte
	// pageTID is the cold load's, revisitTID the revisit's: the first load
	// that holds a copy, so the first that fetches the sketch.
	pageTID, revisitTID tracectx.TraceID
	writeTID            tracectx.TraceID
	// The server-side trace kinds that adopted each trace ID (oldest
	// first).
	pageKinds, revisitKinds []string
	writeKinds              []string
	// parentOK is the causal-chain check: every server trace on a page
	// load is parented by that load's page_load span, and the invalidation
	// trace is parented by the server's http.write span.
	parentOK bool
}

// runStitch is the -stitch gate: a device proxy and a server run as two
// causally independent tracer domains joined only by real HTTP requests
// over a loopback listener, and the gate asserts that a cold page load, its
// revisit and one write each yield a single stitched trace — device and
// server spans
// sharing a 128-bit trace ID propagated via the W3C traceparent header —
// and that twin runs on the same seed export byte-identical trace JSON.
// Violations exit non-zero, so `make stitch` is a CI gate.
func runStitch(seed int64, delta time.Duration, products int) {
	a, err := stitchOnce(seed, delta, products)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stitch run 1: %v\n", err)
		os.Exit(1)
	}
	b, err := stitchOnce(seed, delta, products)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stitch run 2: %v\n", err)
		os.Exit(1)
	}

	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "STITCH VIOLATION: "+format+"\n", args...)
	}

	if a.pageTID.IsZero() || a.revisitTID.IsZero() || a.writeTID.IsZero() {
		fail("device traces drew zero trace IDs (page=%s revisit=%s write=%s)", a.pageTID, a.revisitTID, a.writeTID)
	}
	if a.pageTID == a.writeTID || a.pageTID == a.revisitTID || a.revisitTID == a.writeTID {
		fail("page loads and write collapsed onto shared trace IDs (%s, %s, %s)", a.pageTID, a.revisitTID, a.writeTID)
	}
	// The cold load holds nothing for a sketch to vouch for: it crosses the
	// wire for the shell alone. The revisit holds the copy: it crosses for
	// the sketch, which clears the copy, and serves it from the device.
	if want := []string{"http.page"}; !equalStrings(a.pageKinds, want) {
		fail("server traces on the cold page-load ID: got %v, want %v", a.pageKinds, want)
	}
	if want := []string{"http.sketch"}; !equalStrings(a.revisitKinds, want) {
		fail("server traces on the revisit's ID: got %v, want %v", a.revisitKinds, want)
	}
	// One write invalidates the product page and its category listing —
	// two pipeline runs, both finished inside the write handler, so they
	// precede http.write in ring order.
	wantWrite := []string{"invalidation", "invalidation", "http.write"}
	if !equalStrings(a.writeKinds, wantWrite) {
		fail("server traces on the write ID: got %v, want %v", a.writeKinds, wantWrite)
	}
	if !a.parentOK {
		fail("causal parentage broken: server spans are not parented by the device spans that caused them")
	}
	if !bytes.Equal(a.export, b.export) {
		fail("twin runs on seed %d exported different trace bytes (%d vs %d)", seed, len(a.export), len(b.export))
	}

	fmt.Printf("%s\n\n", a.export)
	fmt.Printf("stitch: device page_load %s stitched to server %v\n", a.pageTID, a.pageKinds)
	fmt.Printf("stitch: device page_load (revisit) %s stitched to server %v\n", a.revisitTID, a.revisitKinds)
	fmt.Printf("stitch: device admin.write %s stitched to server %v\n", a.writeTID, a.writeKinds)
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "\nstitch: %d violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Printf("stitch: all invariants hold — twin runs byte-identical (%d bytes, seed %d)\n",
		len(a.export), seed)
}

// stitchOnce runs one device↔server round over a fresh loopback server
// and returns the normalized export plus the stitching evidence.
func stitchOnce(seed int64, delta time.Duration, products int) (stitchRun, error) {
	var run stitchRun

	// Server process: its own simulated clock and its own identity seed
	// (devices root from seed 1), so any locally rooted server trace is
	// distinguishable from an adopted one.
	srvClk := clock.NewSimulated(stitchEpoch)
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock:  srvClk,
			Delta:  delta,
			Tracer: obs.NewTracerSeeded(srvClk, 1, 256, seed+1),
			SLO:    obs.NewDeltaSLO(obs.SLOConfig{Clock: srvClk, Registry: obs.NewRegistry()}),
			Obs:    obs.NewRegistry(),
		},
		Products: products,
	})
	if err != nil {
		return run, err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return run, err
	}
	hs := &http.Server{Handler: httpapi.New(svc, speedkit.NewUsers(seed, 10)).Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed below; Serve's shutdown error is expected
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Device process: full client proxy over the real HTTP transport.
	devClk := clock.NewSimulated(stitchEpoch)
	devTracer := obs.NewTracerSeeded(devClk, 1, 64, seed)
	transport := httpclient.NewDirect(base, nil)
	dev := proxy.NewSplit(proxy.Config{
		Delta:  delta,
		Clock:  devClk,
		Tracer: devTracer,
	}, transport, transport)

	// Two loads of one page: the cold one's shell fetch and the revisit's
	// sketch fetch each cross the wire carrying their page_load span
	// context.
	for range 2 {
		if _, err := dev.Load(context.Background(), "/product/p00042"); err != nil {
			return run, fmt.Errorf("page load: %w", err)
		}
	}
	pages := devTracer.Recent(2)
	if len(pages) != 2 {
		return run, fmt.Errorf("device tracer sampled %d page loads, want 2", len(pages))
	}
	page, revisit := pages[1], pages[0] // newest first
	run.pageTID, run.revisitTID = page.TraceID, revisit.TraceID

	// One write, rooted on the device side the way an admin CLI would:
	// the traceparent header makes the server's write span — and the
	// invalidation-pipeline run the patch triggers — children of it.
	wtr := devTracer.Start("admin.write", "/product/p00042")
	if wtr == nil {
		return run, fmt.Errorf("device tracer declined the write trace")
	}
	run.writeTID = wtr.TraceID
	req, err := http.NewRequest(http.MethodPost, base+"/v1/write?product=p00042&price=19.99", nil)
	if err != nil {
		return run, err
	}
	req.Header.Set(tracectx.Header, wtr.SpanContext().Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return run, fmt.Errorf("write: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("write: HTTP %d", resp.StatusCode)
	}
	devTracer.Finish(wtr)

	// The server finishes a trace just before the response body is
	// written, so an observer racing the response can miss the newest
	// entry by a scheduler tick; bounded retry, then judge.
	var srvPage, srvRevisit, srvWrite []*obs.Trace
	for wait := 0; wait < 200; wait++ {
		srvPage = svc.Tracer().ByTraceID(run.pageTID)
		srvRevisit = svc.Tracer().ByTraceID(run.revisitTID)
		srvWrite = svc.Tracer().ByTraceID(run.writeTID)
		if len(srvPage) >= 1 && len(srvRevisit) >= 1 && len(srvWrite) >= 3 {
			break
		}
		clock.Sleep(clock.System, 5*time.Millisecond)
	}
	for _, tr := range srvPage {
		run.pageKinds = append(run.pageKinds, tr.Kind)
	}
	for _, tr := range srvRevisit {
		run.revisitKinds = append(run.revisitKinds, tr.Kind)
	}
	for _, tr := range srvWrite {
		run.writeKinds = append(run.writeKinds, tr.Kind)
	}

	// Causal parentage: the device span that carried the header must be
	// the parent the server recorded.
	run.parentOK = true
	for _, load := range []struct {
		dev *obs.Trace
		srv []*obs.Trace
	}{{page, srvPage}, {revisit, srvRevisit}} {
		for _, tr := range load.srv {
			if !tr.Remote || tr.ParentSpanID != load.dev.SpanID {
				run.parentOK = false
			}
		}
	}
	var writeSpan tracectx.SpanID
	for _, tr := range srvWrite {
		if tr.Kind == "http.write" {
			writeSpan = tr.SpanID
			if !tr.Remote || tr.ParentSpanID != wtr.SpanID {
				run.parentOK = false
			}
		}
	}
	for _, tr := range srvWrite {
		if tr.Kind == "invalidation" && tr.ParentSpanID != writeSpan {
			run.parentOK = false
		}
	}

	// The golden export: device root first, then the server traces it
	// caused, for each of the three stitched requests. Wall-clock costs
	// (the only nondeterminism — loopback TCP is real) are zeroed;
	// identity, structure, ordering, and simulated timestamps must
	// replay exactly.
	all := append(devTracer.ByTraceID(run.pageTID), srvPage...)
	all = append(all, devTracer.ByTraceID(run.revisitTID)...)
	all = append(all, srvRevisit...)
	all = append(all, devTracer.ByTraceID(run.writeTID)...)
	all = append(all, srvWrite...)
	run.export, err = obs.ExportTraces(normalizeDurations(all))
	return run, err
}

// normalizeDurations deep-copies traces with every measured cost zeroed,
// leaving identity, parentage, structure, and event ordering — the parts
// the golden comparison is about — untouched.
func normalizeDurations(in []*obs.Trace) []*obs.Trace {
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

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
