package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// layer names the boundary a span was recorded at. The benchmark records
// spans only from its own wrappers around public entry points; the
// program under test is not instrumented.
type layer uint8

const (
	layerLoad      layer = iota // root: one Device.Load, in the visitor
	layerTransport              // one proxy.Transport method of httpclient
	layerDeviceRT               // the device's HTTP round trip, to body EOF
	layerEdge                   // edge.Proxy.Handler()
	layerEdgeRT                 // the edge's upstream round trip, to body EOF
	layerAPI                    // httpapi.API.Handler()
	layerWrite                  // root: one POST /v1/write, in the visitor
	layerPurge                  // root: OnPurge fired → purge POST answered
	numLayers
)

var layerNames = [numLayers]string{"load", "httpclient", "device_rt", "edge", "edge_rt", "httpapi", "write", "purge"}

// kind says what a layer did inside a span: the transport method, the
// edge's X-Edge-Cache verdict, or the API route.
type kind uint8

const (
	kindNone kind = iota
	kindFetch
	kindFetchSketch
	kindRevalidate
	kindFetchBlocks
	kindHit
	kindMiss
	kindRevalidated
	kindStale
	kindCoalesced
	kindBypass
	kindPurge
	kindPage
	kindPage304
	kindSketch
	kindBlocks
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{"", "fetch", "fetch_sketch", "revalidate", "fetch_blocks",
	"hit", "miss", "revalidated", "stale", "coalesced", "bypass", "purge",
	"page", "page_304", "sketch", "blocks", "write"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. The struct holds no pointer, so the collector never scans the
// span buffer.
type span struct {
	trace  tracectx.TraceID
	id     tracectx.SpanID
	parent tracectx.SpanID
	layer  layer
	kind   kind
	start  int64
	end    int64
}

// name is the span's "layer/kind" label.
func (s *span) name() string { return layerNames[s.layer] + "/" + kindNames[s.kind] }

func (s *span) context() tracectx.SpanContext {
	return tracectx.SpanContext{TraceID: s.trace, SpanID: s.id, Sampled: true}
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	purges atomic.Uint64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: clock.System.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(clock.Since(clock.System, t.epoch)) }

func (t *tracer) newID() tracectx.SpanID {
	var id tracectx.SpanID
	binary.BigEndian.PutUint64(id[:], t.ids.Add(1))
	return id
}

// child opens a span under parent.
func (t *tracer) child(parent tracectx.SpanContext, l layer, kind kind) *span {
	return &span{trace: parent.TraceID, id: t.newID(), parent: parent.SpanID, layer: l, kind: kind, start: t.now()}
}

func (t *tracer) finish(s *span) {
	s.end = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// Trace IDs are made, not drawn: the high half says what kind of root
// owns the trace, the low half numbers it, so aggregation indexes
// arrays instead of hashing.
const (
	traceKindLoad  = 1
	traceKindWrite = 2
	traceKindPurge = 3
)

func makeTraceID(kind uint32, visitor uint32, seq uint64) tracectx.TraceID {
	var id tracectx.TraceID
	binary.BigEndian.PutUint32(id[0:4], kind)
	binary.BigEndian.PutUint32(id[4:8], visitor)
	binary.BigEndian.PutUint64(id[8:16], seq)
	return id
}

func splitTraceID(id tracectx.TraceID) (kind, visitor uint32, seq uint64) {
	return binary.BigEndian.Uint32(id[0:4]), binary.BigEndian.Uint32(id[4:8]), binary.BigEndian.Uint64(id[8:16])
}

// root opens the root span of one visitor op.
func (t *tracer) root(l layer, kind uint32, visitor int, seq uint64) *span {
	return &span{trace: makeTraceID(kind, uint32(visitor), seq), id: t.newID(), layer: l, start: t.now()}
}

func (t *tracer) startPurge() *span {
	return t.root(layerPurge, traceKindPurge, 0, t.purges.Add(1)-1)
}

// --- wrappers ---------------------------------------------------------------

// tracedTransport decorates the device's httpclient.Transport: one span
// per method call, and the span rides the ctx so httpclient sends it on
// as the request's traceparent.
type tracedTransport struct {
	t     *tracer
	inner proxy.Transport
}

func (tt *tracedTransport) open(ctx context.Context, kind kind) (context.Context, *span) {
	parent, ok := tracectx.SpanFromContext(ctx)
	if !ok {
		return ctx, nil
	}
	s := tt.t.child(parent, layerTransport, kind)
	return tracectx.ContextWithSpan(ctx, s.context()), s
}

func (tt *tracedTransport) done(s *span) {
	if s != nil {
		tt.t.finish(s)
	}
}

func (tt *tracedTransport) FetchSketch(ctx context.Context, r netsim.Region) (*cachesketch.Snapshot, time.Duration, error) {
	ctx, s := tt.open(ctx, kindFetchSketch)
	defer tt.done(s)
	return tt.inner.FetchSketch(ctx, r)
}

func (tt *tracedTransport) Fetch(ctx context.Context, r netsim.Region, path string) (cache.Entry, time.Duration, proxy.Source, error) {
	ctx, s := tt.open(ctx, kindFetch)
	defer tt.done(s)
	return tt.inner.Fetch(ctx, r, path)
}

func (tt *tracedTransport) Revalidate(ctx context.Context, r netsim.Region, path string, known uint64) (proxy.RevalidationResult, error) {
	ctx, s := tt.open(ctx, kindRevalidate)
	defer tt.done(s)
	return tt.inner.Revalidate(ctx, r, path, known)
}

func (tt *tracedTransport) FetchBlocks(ctx context.Context, r netsim.Region, names []string, u *session.User) (map[string][]byte, time.Duration, error) {
	ctx, s := tt.open(ctx, kindFetchBlocks)
	defer tt.done(s)
	return tt.inner.FetchBlocks(ctx, r, names, u)
}

// tracedRT records one span per HTTP round trip that carries a
// traceparent, from the request's start to the response body's EOF or
// Close, and forwards its own span as the parent of the next hop.
type tracedRT struct {
	t     *tracer
	layer layer
	next  http.RoundTripper
}

func (t *tracer) roundTripper(l layer, next http.RoundTripper) http.RoundTripper {
	return &tracedRT{t: t, layer: l, next: next}
}

func (rt *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := tracectx.ParseTraceparent(req.Header.Get(tracectx.Header))
	if !ok {
		return rt.next.RoundTrip(req)
	}
	s := rt.t.child(parent, rt.layer, kindNone)
	// A RoundTripper must not modify the caller's request.
	out := *req
	out.Header = req.Header.Clone()
	out.Header.Set(tracectx.Header, s.context().Traceparent())
	resp, err := rt.next.RoundTrip(&out)
	if err != nil {
		rt.t.finish(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the body has been read to EOF or closed,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.t.finish(b.s) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.t.finish(b.s) })
	return b.ReadCloser.Close()
}

// statusWriter remembers the response status for the span's kind.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps the edge's streaming miss path working behind the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handler is the middleware around edge.Proxy.Handler() and
// httpapi.API.Handler(): one span per request that carries a
// traceparent, and its own span forwarded as the parent of what the
// handler sends upstream.
func (t *tracer) handler(l layer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := tracectx.ParseTraceparent(r.Header.Get(tracectx.Header))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := t.child(parent, l, kindNone)
		r.Header.Set(tracectx.Header, s.context().Traceparent())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.kind = requestKind(l, r, sw)
		t.finish(s)
	})
}

// requestKind classifies a handled request: by the edge's own verdict
// header, or by API route (with 304s apart).
func requestKind(l layer, r *http.Request, w *statusWriter) kind {
	route := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1"), "/")
	if l == layerEdge && route != "purge" {
		route = w.Header().Get("X-Edge-Cache")
	}
	if route == "page" && w.status == http.StatusNotModified {
		return kindPage304
	}
	for k := kindHit; k < numKinds; k++ {
		if kindNames[k] == route {
			return k
		}
	}
	return kindNone
}

// --- aggregation ------------------------------------------------------------

// layerTable is what the traced run reports about the wrapped layers.
// All times are nanoseconds.
type layerTable struct {
	loads int
	// load is the mean duration of a load's root span.
	load float64
	// self[l] is the mean per-load self time of layer l on the visitor's
	// blocking path: the time inside its spans, clipped to what their
	// ancestors' spans cover, that no child span covers. Clipped this
	// way the self times of one load add up to its root span exactly.
	self [numLayers]float64
	// offPath[l] is the rest of layer l's self time: work that went on
	// after the caller had its whole answer — a handler committing to
	// its cache once the response is out. It delays no load but uses
	// the processors the loads share.
	offPath [numLayers]float64
	// calls[l] is the mean number of layer l's spans per load.
	calls [numLayers]float64
	// kindMean is the mean duration of spans by "layer/kind"; kindCount
	// counts them.
	kindMean  map[string]float64
	kindCount map[string]int
	// purgeLag is, per purge, OnPurge fired → edge purge handler
	// returned, sorted.
	purgeLag []int64
}

// The hops a load crosses, in order, and the metric each one's self
// time is reported as.
var hopLayers = [...]layer{layerLoad, layerTransport, layerDeviceRT, layerEdge, layerEdgeRT, layerAPI}
var hopNames = [...]string{"proxy.self_us", "httpclient.self_us", "loopback.device_hop_us", "edge.self_us", "loopback.edge_hop_us", "httpapi (handler)"}

// aggregate folds the recorded spans into the layer table.
func (t *tracer) aggregate() (*layerTable, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()

	// Span IDs count up from 1 in the order spans open, so a slice
	// indexes them and walking it visits every parent before its
	// children.
	byID := make([]int32, t.ids.Load()+1)
	for i := range byID {
		byID[i] = -1
	}
	for i := range spans {
		byID[binary.BigEndian.Uint64(spans[i].id[:])] = int32(i)
	}
	// clipLo/clipHi bound the part of span i inside all its ancestors;
	// covered and clipCovered are how much of the span, whole and
	// clipped, its children cover.
	clipLo := make([]int64, len(spans))
	clipHi := make([]int64, len(spans))
	covered := make([]int64, len(spans))
	clipCovered := make([]int64, len(spans))
	for _, i := range byID {
		if i < 0 {
			continue
		}
		s := &spans[i]
		if s.end < s.start {
			return nil, fmt.Errorf("span %s ends before it starts", s.name())
		}
		clipLo[i], clipHi[i] = s.start, s.end
		if s.parent.IsZero() {
			continue
		}
		pi := byID[binary.BigEndian.Uint64(s.parent[:])]
		if pi < 0 {
			if kind, _, _ := splitTraceID(s.trace); kind == traceKindPurge {
				continue // the purge POST failed, so its root never finished
			}
			return nil, fmt.Errorf("span %s has no recorded parent", s.name())
		}
		p := &spans[pi]
		if p.trace != s.trace {
			return nil, fmt.Errorf("span %s sits in another trace than its parent", s.name())
		}
		// A call starts inside its caller, and a client-side span — a
		// transport method, a round trip — ends inside it too. A handler may
		// outlast the round trip that called it: the client has the whole
		// response before the handler returns.
		clientSide := s.layer == layerTransport || s.layer == layerDeviceRT || s.layer == layerEdgeRT
		if s.start < p.start || s.start > p.end || (clientSide && s.end > p.end) {
			return nil, fmt.Errorf("span %s [%d, %d] is not nested in its parent %s [%d, %d]", s.name(), s.start, s.end, p.name(), p.start, p.end)
		}
		covered[pi] += max(0, min(s.end, p.end)-max(s.start, p.start))
		clipLo[i] = min(max(s.start, clipLo[pi]), clipHi[pi])
		clipHi[i] = max(min(s.end, clipHi[pi]), clipLo[i])
		clipCovered[pi] += clipHi[i] - clipLo[i]
	}

	lt := &layerTable{kindMean: map[string]float64{}, kindCount: map[string]int{}}
	kindSum := map[string]int64{}
	purgeStart := map[tracectx.TraceID]int64{}
	purgeEnd := map[tracectx.TraceID]int64{}
	var loadNs int64
	var self, offPath, calls [numLayers]int64
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		key := s.name()
		kindSum[key] += d
		lt.kindCount[key]++
		switch kind, _, _ := splitTraceID(s.trace); kind {
		case traceKindLoad:
			onPath := clipHi[i] - clipLo[i] - clipCovered[i]
			if onPath < 0 || d < covered[i] {
				return nil, fmt.Errorf("span %s: negative self time: its children overlap each other", s.name())
			}
			self[s.layer] += onPath
			offPath[s.layer] += d - covered[i] - onPath
			calls[s.layer]++
			if s.layer == layerLoad {
				lt.loads++
				loadNs += d
			}
		case traceKindPurge:
			if s.layer == layerPurge {
				purgeStart[s.trace] = s.start
			} else if s.layer == layerEdge {
				purgeEnd[s.trace] = s.end
			}
		}
	}
	if lt.loads == 0 {
		return nil, fmt.Errorf("the traced run recorded no load")
	}
	for key, sum := range kindSum {
		lt.kindMean[key] = float64(sum) / float64(lt.kindCount[key])
	}
	for id, end := range purgeEnd {
		if start, ok := purgeStart[id]; ok {
			lt.purgeLag = append(lt.purgeLag, end-start)
		}
	}
	sort.Slice(lt.purgeLag, func(i, j int) bool { return lt.purgeLag[i] < lt.purgeLag[j] })
	n := float64(lt.loads)
	lt.load = float64(loadNs) / n
	for l := range self {
		lt.self[l] = float64(self[l]) / n
		lt.offPath[l] = float64(offPath[l]) / n
		lt.calls[l] = float64(calls[l]) / n
	}
	return lt, nil
}

// offPathTotal is the mean per-load work done off the blocking path.
func (lt *layerTable) offPathTotal() float64 {
	var sum float64
	for _, v := range lt.offPath {
		sum += v
	}
	return sum
}

// print writes the per-load self time of every hop. Clipped as they are,
// the self times sum to proxy.load_us; what keeps the table honest are
// the nesting checks of aggregate, which fail the run on a span that is
// missing or out of place.
func (lt *layerTable) print(out io.Writer) {
	var sum float64
	fmt.Fprintf(out, "  per-load self time over %d traced loads:\n", lt.loads)
	for k, l := range hopLayers {
		fmt.Fprintf(out, "    %-24s %10.2f us  (+%.2f us off the blocking path, %.2f spans per load)\n",
			hopNames[k], lt.self[l]/1e3, lt.offPath[l]/1e3, lt.calls[l])
		sum += lt.self[l]
	}
	fmt.Fprintf(out, "    %-24s %10.2f us  (proxy.load_us %.2f us)\n", "sum", sum/1e3, lt.load/1e3)
}

// jsonSpan is the trace.json form of a span.
type jsonSpan struct {
	Trace   tracectx.TraceID `json:"trace"`
	ID      tracectx.SpanID  `json:"id"`
	Parent  *tracectx.SpanID `json:"parent,omitempty"`
	Layer   string           `json:"layer"`
	Kind    string           `json:"kind,omitempty"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
}

// writeSample writes the spans of each visitor's first perVisitor ops
// and of the first perVisitor purges as a JSON array.
func (t *tracer) writeSample(path string, perVisitor uint64) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	out := make([]jsonSpan, 0, 8*perVisitor)
	for i := range spans {
		s := &spans[i]
		if _, _, seq := splitTraceID(s.trace); seq >= perVisitor {
			continue
		}
		js := jsonSpan{Trace: s.trace, ID: s.id, Layer: layerNames[s.layer], Kind: kindNames[s.kind], StartNs: s.start, EndNs: s.end}
		if !s.parent.IsZero() {
			p := s.parent
			js.Parent = &p
		}
		out = append(out, js)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
