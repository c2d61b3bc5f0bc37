// Package httpapi exposes a Speed Kit service over HTTP — the deployable
// surface of the reproduction. The wire surface is versioned under /v1/;
// endpoints mirror what the production system's client proxy talks to:
//
//	GET  /v1/sketch                      the binary client sketch (cacheable for Δ)
//	GET  /v1/page?path=...               anonymous page shell via the CDN path;
//	                                     honors If-None-Match for conditional GETs;
//	                                     every answer states the sketch epoch
//	                                     (X-Sketch-Epoch)
//	POST /v1/blocks                      first-party personalized fragments: the
//	                                     user ID and block names framed in the
//	                                     body, the fragments framed in request
//	                                     order in the answer (httpbody)
//	POST /v1/write?product=&price=       a catalog write driving the pipeline
//	POST /v1/purge?path=...              purge one path from the CDN tier and
//	                                     notify registered purge listeners
//
// Failures on every endpoint, a path that is no endpoint included, return
// the JSON error envelope {"error":{"code","message"}} (see
// httpbody.ErrorBody).
//
// Operational endpoints stay unversioned:
//
//	GET  /stats                          service counters
//	GET  /healthz                        liveness + deployment shape (JSON)
//	GET  /metrics                        Prometheus-style text exposition
//	GET  /debug/traces?n=...             recent sampled request traces (JSON)
//	GET  /debug/traces/{id}              all retained traces with that 128-bit
//	                                     trace ID (byte-deterministic JSON)
//	GET  /debug/slo                      Δ-budget SLO snapshot: staleness
//	                                     histograms, burn rates, exemplars
//	GET  /debug/pprof/...                standard Go profiling endpoints
//
// Requests carrying a W3C traceparent header join the caller's trace:
// the server-side trace adopts the propagated 128-bit trace ID (and the
// head-based sampling decision), so one device page load stitches into
// one cross-process trace queryable at /debug/traces/{id}.
//
// The package is pure net/http + encoding/json and fully testable with
// httptest; cmd/speedkit-server is a thin wrapper around Handler.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/httpbody"
	"speedkit/internal/metrics"
	"speedkit/internal/obs"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// API serves one Speed Kit service.
type API struct {
	svc *core.Service
	// users resolves the user ID a blocks request carries. In
	// production this is the session/auth layer; here it is an in-memory
	// registry.
	users map[string]*session.User
	// started is the service-clock instant the API was built, the zero
	// point for the uptime /healthz reports.
	started time.Time
	// sketchCacheControl is the /sketch Cache-Control value: Δ is fixed
	// for the service's lifetime, so it is rendered once.
	sketchCacheControl string

	// Sketch-state gauges, refreshed at every /metrics scrape so the
	// exposition reflects the coherence state at observation time.
	sketchGen     *metrics.Gauge
	sketchTracked *metrics.Gauge
	sketchBytes   *metrics.Gauge

	// Durability gauges (nil maps/pointers when the service runs
	// memory-only). The wal/durable packages sit under the obslabels
	// boundary and cannot self-register; the HTTP surface owns their
	// exposition, refreshed per scrape from plain Stats structs.
	walAppends    *metrics.Gauge
	walFsyncs     *metrics.Gauge
	walReplayed   *metrics.Gauge
	snapshotBytes *metrics.Gauge
	recoveryMode  map[string]*metrics.Gauge

	// runtime feeds Go runtime health (goroutines, heap, GC pauses) into
	// the registry, refreshed per scrape like the gauges above.
	runtime *obs.RuntimeCollector
}

// New creates an API over svc, registering the given users.
func New(svc *core.Service, users []*session.User) *API {
	a := &API{
		svc:     svc,
		users:   make(map[string]*session.User, len(users)),
		started: svc.Clock().Now(),

		sketchCacheControl: "public, max-age=" + strconv.Itoa(int(svc.SketchMaxAge().Seconds())),
	}
	r := svc.Obs()
	a.runtime = obs.NewRuntimeCollector(r)
	a.sketchGen = r.Gauge("speedkit.sketch.generation")
	a.sketchTracked = r.Gauge("speedkit.sketch.tracked")
	a.sketchBytes = r.Gauge("speedkit.sketch.bytes")
	if svc.Durable() != nil {
		a.walAppends = r.Gauge("speedkit.wal.appends")
		a.walFsyncs = r.Gauge("speedkit.wal.fsyncs")
		a.walReplayed = r.Gauge("speedkit.wal.replayed_records")
		a.snapshotBytes = r.Gauge("speedkit.durable.snapshot_bytes")
		a.recoveryMode = make(map[string]*metrics.Gauge)
		for _, mode := range []durable.Mode{durable.Fresh, durable.Snapshot, durable.Replay, durable.ColdStart} {
			a.recoveryMode[mode.String()] = r.Gauge("speedkit.recovery.mode", obs.L("mode", mode.String()))
		}
	}
	for _, u := range users {
		a.users[u.ID] = u
	}
	return a
}

// Handler returns the routed http.Handler: the /v1/ surface and the
// operational endpoints, which stay unversioned.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /v1/sketch", a.handleSketch)
	mux.HandleFunc("GET /v1/page", a.handlePage)
	mux.HandleFunc("POST /v1/blocks", a.handleBlocks)
	mux.HandleFunc("/v1/blocks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", http.MethodPost)
		httpbody.WriteError(w, http.StatusMethodNotAllowed, httpbody.CodeMethodNotAllowed, r.Method+" /v1/blocks: the user ID and block names travel in a POST body")
	})
	mux.HandleFunc("POST /v1/write", a.handleWrite)
	mux.HandleFunc("POST /v1/purge", a.handlePurge)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	mux.HandleFunc("GET /debug/traces", a.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", a.handleTraceByID)
	mux.HandleFunc("GET /debug/slo", a.handleSLO)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such endpoint: "+r.Method+" "+r.URL.Path)
	})
	return mux
}

// Health is the /healthz response body.
type Health struct {
	Status string `json:"status"`
	// Uptime is time served since construction, on the service clock.
	Uptime string `json:"uptime"`
	// SketchGeneration is the coherence server's content generation.
	SketchGeneration uint64 `json:"sketch_generation"`
	// SketchEpoch is the epoch that generation counts in, as the
	// X-Sketch-Epoch header spells it: it changes when the server restarts
	// without its history.
	SketchEpoch string `json:"sketch_epoch"`
	// SketchTracked is how many resource IDs the sketch currently tracks.
	SketchTracked int `json:"sketch_tracked"`
	// Members names the cluster's nodes; absent for a lone node.
	Members []string `json:"members,omitempty"`
	// RecoveryMode is how the durability subsystem rebuilt state at
	// startup (fresh | snapshot | replay | coldstart); empty when the
	// service runs memory-only.
	RecoveryMode string `json:"recovery_mode,omitempty"`
	// Durability carries the WAL/snapshot counters; absent when the
	// service runs memory-only.
	Durability *HealthDurability `json:"durability,omitempty"`
}

// HealthDurability is the durability section of /healthz: enough to see
// at a glance whether writes are reaching disk (appends, fsyncs) and how
// much WAL tail a crash would replay (the gap between the append counter
// and the last snapshot's LSN).
type HealthDurability struct {
	WALAppends      uint64 `json:"wal_appends"`
	WALFsyncs       uint64 `json:"wal_fsyncs"`
	Snapshots       uint64 `json:"snapshots"`
	LastSnapshotLSN uint64 `json:"last_snapshot_lsn"`
}

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	k := a.svc.Kernel()
	ro := k.Readout()
	h := Health{
		Status:           "ok",
		Uptime:           a.svc.Clock().Now().Sub(a.started).String(),
		SketchGeneration: k.Generation(),
		SketchEpoch:      fmt.Sprintf("%016x", k.Epoch()),
		SketchTracked:    ro.Sketch.Tracked,
		Members:          ro.Members,
	}
	if store := a.svc.Durable(); store != nil {
		st := store.Stats()
		h.RecoveryMode = st.LastRecovery.Mode.String()
		h.Durability = &HealthDurability{
			WALAppends:      st.WAL.Appends,
			WALFsyncs:       st.WAL.Fsyncs,
			Snapshots:       st.Snapshots,
			LastSnapshotLSN: store.SnapshotLSN(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// handleMetrics is the scrape endpoint. Sketch-state gauges are refreshed
// here, at observation time, instead of on every protocol operation.
func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	k := a.svc.Kernel()
	ro := k.Readout()
	a.sketchGen.Set(int64(k.Generation()))
	a.sketchTracked.Set(int64(ro.Sketch.Tracked))
	a.sketchBytes.Set(int64(ro.SketchBytes))
	if store := a.svc.Durable(); store != nil {
		st := store.Stats()
		a.walAppends.Set(int64(st.WAL.Appends))
		a.walFsyncs.Set(int64(st.WAL.Fsyncs))
		a.walReplayed.Set(int64(st.WAL.Replayed))
		a.snapshotBytes.Set(int64(st.SnapshotBytes))
		for mode, g := range a.recoveryMode {
			if mode == st.LastRecovery.Mode.String() {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
	}
	// Refresh the scrape-time collectors: burn-rate gauges from the SLO
	// tracker and the Go runtime gauges. Both are nil-safe.
	a.svc.SLO().Snapshot()
	a.runtime.Collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.svc.Obs().WriteText(w)
}

// handleSLO serves the Δ-budget SLO snapshot: per-source staleness
// histograms, multi-window burn rates, and trace-ID exemplars that join
// tail observations to /debug/traces/{id}.
func (a *API) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(a.svc.SLO().Snapshot())
}

// handleTraceByID serves every retained trace with the given causal
// identity, oldest first, as byte-deterministic JSON — the query the
// stitched cross-process exports and SLO exemplars point at.
func (a *API) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, ok := tracectx.ParseTraceID(r.PathValue("id"))
	if !ok {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "bad trace id (32 lowercase hex chars)")
		return
	}
	out, err := obs.ExportTraces(a.svc.Tracer().ByTraceID(id))
	if err != nil {
		httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out)
	_, _ = w.Write([]byte("\n"))
}

// handleTraces dumps the tracer's ring of recent sampled traces, newest
// first. ?n= bounds the count (default 32).
func (a *API) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "bad ?n=")
			return
		}
		n = v
	}
	traces := a.svc.Tracer().Recent(n)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(traces)
}

// startRemote begins the server-side trace for one HTTP request, joining
// the W3C traceparent the caller propagated (absent or malformed headers
// collapse to a fresh local root; an unsampled parent yields nil, which
// every downstream call treats as "off"). The returned ctx carries the
// trace so the core transport methods attach their spans to it.
func (a *API) startRemote(r *http.Request, kind, path string) (*obs.Trace, context.Context) {
	var parent tracectx.SpanContext
	if tp := r.Header[tracectx.MapKey]; len(tp) > 0 {
		parent, _ = tracectx.ParseTraceparent(tp[0])
	}
	tr := a.svc.Tracer().StartRemote(kind, path, parent)
	return tr, obs.ContextWithTrace(r.Context(), tr)
}

// finishRemote stamps the shared trailer fields, the time since the trace
// started on the service clock as its Total, and publishes the trace.
func (a *API) finishRemote(tr *obs.Trace, src string) {
	if tr == nil {
		return
	}
	tr.SetSource(src)
	tr.SetSketch(a.svc.Kernel().Generation(), 0, 0)
	tr.SetTotal(clock.Since(a.svc.Clock(), tr.Start))
	a.svc.Tracer().Finish(tr)
}

// handleSketch serves the flattened client sketch, taken now: it goes out
// without an Age. Cache-Control pins its shared-cache lifetime to Δ less
// the kernel's lag (core.Service.SketchMaxAge: Δ itself on one node), so a
// cache in front of this endpoint amortizes sketch generation across the
// client population — internal/edge does, answering /v1/sketch from the
// copy it polls. The precondition is cachesketch.WriteHTTP's: a holder
// states how long it has held the copy (Age, rounded up) and stops handing
// it on once that reaches max-age; a cache that does neither stretches Δ.
func (a *API) handleSketch(w http.ResponseWriter, r *http.Request) {
	tr, ctx := a.startRemote(r, "http.sketch", "/sketch")
	sn, err := a.svc.Sketch(ctx)
	if err != nil {
		a.finishRemote(tr, "")
		httpbody.WriteError(w, http.StatusServiceUnavailable, httpbody.CodeUnavailable, err.Error())
		return
	}
	a.finishRemote(tr, "cdn")
	if err := sn.WriteHTTP(w, a.sketchCacheControl, 0); err != nil {
		httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
	}
}

// handlePage serves the anonymous page shell. With If-None-Match it runs
// the protocol's conditional revalidation: unchanged versions answer 304
// with a renewed freshness lifetime.
func (a *API) handlePage(w http.ResponseWriter, r *http.Request) {
	path, owned := httpbody.PathParamOwned(r.URL.RawQuery)
	if path == "" {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "missing ?path=")
		return
	}
	// The trace starts before the fetch so the core transport's spans
	// (core.fetch / core.revalidate) land on it via the ctx; when the
	// device propagated a traceparent, this trace adopts its 128-bit ID
	// and the page load stitches end-to-end across the hop.
	tr, ctx := a.startRemote(r, "http.page", path)

	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if known, ok := httpbody.ParseETag(inm); ok {
			// A revalidation keeps the path it is given, a 304 included
			// (the sketch tracks the copy): not a window onto the
			// request line. Fetch copies the path on the miss it keeps.
			if !owned {
				path = strings.Clone(path)
			}
			rr, err := a.svc.Revalidate(ctx, path, known)
			if err != nil {
				a.finishRemote(tr, "")
				httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, err.Error())
				return
			}
			tr.MarkRevalidated()
			a.finishRemote(tr, rr.Source.String())
			if rr.NotModified {
				a.setPageHeaders(w, rr.Entry.ExpiresAt, known, -1, "", "")
				w.WriteHeader(http.StatusNotModified)
				return
			}
			a.writePage(w, rr.Entry, rr.Source.String())
			return
		}
	}

	entry, src, err := a.svc.Page(ctx, path)
	if err != nil {
		a.finishRemote(tr, "")
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, err.Error())
		return
	}
	a.finishRemote(tr, src.String())
	a.writePage(w, entry, src.String())
}

// pageHeaders names the headers a page answer states values of its own
// for, in the order of its values array (setPageHeaders), in canonical
// form ("Etag"): they index the header map directly.
var pageHeaders = []string{"Cache-Control", "Etag", "Content-Length", "X-Served-By", "X-Blocks"}

// htmlType is every page answer's Content-Type, shared: len == cap, never
// written.
var htmlType = []string{"text/html; charset=utf-8"}

// setPageHeaders states a page answer's headers but its Content-Type: the
// max-age left until expiresAt on the service clock (which may be
// simulated in tests), the version's ETag, the body's length (none when
// negative: a 304 has no body), the source that served it and the blocks
// its shell names (none when empty), and the sketch epoch whose
// expiration table now knows the copy — the server's, shared, not
// formatted per answer. The three numbers are formatted into one string,
// the values into one array (httpbody.SetValues).
func (a *API) setPageHeaders(w http.ResponseWriter, expiresAt time.Time, version uint64, length int, src, blocks string) {
	ttl := int64(expiresAt.Sub(a.svc.Clock().Now()).Seconds())
	if ttl < 0 {
		ttl = 0
	}
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], "public, max-age="...), ttl, 10)
	cc := len(b)
	b = httpbody.AppendETag(b, version)
	tag := len(b)
	if length >= 0 {
		b = strconv.AppendInt(b, int64(length), 10)
	}
	nums := string(b)
	h := w.Header()
	httpbody.SetValues(h, pageHeaders, []string{nums[:cc], nums[cc:tag], nums[tag:], src, blocks})
	h[cachesketch.EpochHeader] = a.svc.Kernel().EpochValue()
}

// writePage answers 200 with entry, served by src. It states the body's
// length, so net/http sends the shell whole instead of chunking one larger
// than its 2 048-byte buffer, and every reader sizes its buffer once.
func (a *API) writePage(w http.ResponseWriter, entry cache.Entry, src string) {
	a.setPageHeaders(w, entry.ExpiresAt, entry.Version, len(entry.Body), src, entry.Metadata["blocks"])
	w.Header()["Content-Type"] = htmlType
	_, _ = w.Write(entry.Body)
}

// The blocks answer's fixed header values, shared like htmlType.
var (
	blocksType = []string{"application/octet-stream"}
	noStore    = []string{"no-store"} // personalized: never shared-cached
)

// handleBlocks is the first-party personalization API. The user ID and
// the block names arrive framed in the POST body, never in the URL that
// intermediaries log and key on; the fragments go back framed in request
// order (httpbody.BlocksRequest, httpbody.BlocksResponse). Every answer
// states its length: net/http's for one that fits its buffer, the
// handler's for a longer one (responseBuffer).
func (a *API) handleBlocks(w http.ResponseWriter, r *http.Request) {
	user, names, err := httpbody.ReadBlocksRequest(r)
	if err != nil {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, err.Error())
		return
	}
	u := a.users[user] // nil → anonymous fragments
	// The trace path is the fixed endpoint, never the user: traces are
	// identity-free by construction.
	tr, ctx := a.startRemote(r, "http.blocks", "/blocks")
	frs, err := a.svc.Blocks(ctx, names, u)
	if err != nil {
		a.finishRemote(tr, "")
		httpbody.WriteError(w, http.StatusServiceUnavailable, httpbody.CodeUnavailable, err.Error())
		return
	}
	a.finishRemote(tr, "origin")
	body := httpbody.BlocksResponse(frs)
	h := w.Header()
	h["Content-Type"] = blocksType
	if len(body) > responseBuffer {
		h["Content-Length"] = []string{strconv.Itoa(len(body))}
	}
	h["Cache-Control"] = noStore
	_, _ = w.Write(body)
}

// responseBuffer is the size of net/http's per-response buffer. A body
// the handler writes whole into it goes out with a Content-Length that
// net/http states itself once the handler returns; a longer one of
// unstated length would be chunked, so handleBlocks states its length.
const responseBuffer = 2048

// handleWrite applies a catalog mutation, driving the invalidation
// pipeline end to end.
func (a *API) handleWrite(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("product")
	if id == "" {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "missing ?product=")
		return
	}
	patch := map[string]any{}
	if p := q.Get("price"); p != "" {
		price, err := strconv.ParseFloat(p, 64)
		if err != nil {
			httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "bad price")
			return
		}
		patch["price"] = price
	}
	if st := q.Get("stock"); st != "" {
		n, err := strconv.ParseInt(st, 10, 64)
		if err != nil {
			httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "bad stock")
			return
		}
		patch["stock"] = n
	}
	if len(patch) == 0 {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "nothing to write (price= or stock=)")
		return
	}
	path := "/product/" + id
	// The write span becomes the causal parent of every invalidation-
	// pipeline run the patch triggers: the change stream delivers
	// synchronously inside WithWriteSpan, so the pipeline traces adopt
	// this trace's ID and the whole fan-out (kernel report, durable
	// snapshot included, and CDN purge) is queryable under one
	// /debug/traces/{id}.
	tr, _ := a.startRemote(r, "http.write", path)
	var patchErr error
	a.svc.WithWriteSpan(tr.SpanContext(), func() {
		patchErr = a.svc.Docs().Patch("products", id, patch)
	})
	if patchErr != nil {
		a.finishRemote(tr, "")
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, patchErr.Error())
		return
	}
	a.finishRemote(tr, "origin")
	fmt.Fprintf(w, "ok: %s now v%d, in sketch: %v\n",
		path, a.svc.Origin().Version(path), a.svc.Kernel().Contains(path))
}

// handlePurge evicts one path from the shared caching tier: the CDN
// edges drop their copies (after the modeled propagation delay) and
// every registered purge listener is notified. A speedkit-edge process
// registers none: it learns of writes from the sketch it polls. Purging an unknown path is not an error:
// purges are idempotent eviction requests, not resource lookups, so the
// answer is 204 with no body — the edge's purge contract.
func (a *API) handlePurge(w http.ResponseWriter, r *http.Request) {
	path := httpbody.PathParam(r.URL.RawQuery)
	if path == "" {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "missing ?path=")
		return
	}
	a.svc.PurgePath(path)
	w.WriteHeader(http.StatusNoContent)
}

// handleStats dumps service counters in a human-readable form.
func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := a.svc.Stats()
	ro := a.svc.Kernel().Readout()
	cd := a.svc.CDN().Stats()
	fmt.Fprintf(w, "service: %+v\n", st)
	fmt.Fprintf(w, "sketch:  %+v (bytes=%d)\n", ro.Sketch, ro.SketchBytes)
	fmt.Fprintf(w, "cdn:     %+v (hit ratio %.1f%%)\n", cd, cd.HitRatio()*100)
	fmt.Fprintf(w, "gdpr:\n%s", a.svc.Auditor())
}
