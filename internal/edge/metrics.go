package edge

import (
	"io"
	"time"

	"speedkit/internal/obs"
)

// metrics is the edge's telemetry: a registry of its own, so two edges in
// one process count apart, and the handles into it, resolved once in New
// so a request touches only the atomic a handle names. The counters are
// speedkit.edge.<name>.total, exposed as speedkit_edge_<name>_total.
type metrics struct {
	reg     *obs.Registry
	runtime *obs.RuntimeCollector

	hits             *obs.Counter
	misses           *obs.Counter
	revalidated      *obs.Counter
	notModified      *obs.Counter
	coalescedWaiters *obs.Counter
	purges           *obs.Counter
	upstreamErrors   *obs.Counter
	servedStale      *obs.Counter
	degraded         *obs.Counter
	bytesServed      *obs.Counter
	diskFills        *obs.Counter
	diskPurges       *obs.Counter
	snapshots        *obs.Counter
	sketchRefreshes  *obs.Counter
	sketchServes     *obs.Counter

	// sketchGen and sketchAge state the held sketch's generation and age
	// (whole seconds), set at scrape time only.
	sketchGen *obs.Gauge
	sketchAge *obs.Gauge
}

func newMetrics() metrics {
	r := obs.NewRegistry()
	c := func(name string) *obs.Counter { return r.Counter("speedkit.edge." + name + ".total") }
	return metrics{
		reg:              r,
		runtime:          obs.NewRuntimeCollector(r),
		hits:             c("hits"),
		misses:           c("misses"),
		revalidated:      c("revalidated"),
		notModified:      c("not_modified"),
		coalescedWaiters: c("coalesced_waiters"),
		purges:           c("purges"),
		upstreamErrors:   c("upstream_errors"),
		servedStale:      c("served_stale"),
		degraded:         c("degraded"),
		bytesServed:      c("bytes_served"),
		diskFills:        c("disk_fills"),
		diskPurges:       c("disk_purges"),
		snapshots:        c("snapshots"),
		sketchRefreshes:  c("sketch_refreshes"),
		sketchServes:     c("sketch_serves"),
		sketchGen:        r.Gauge("speedkit.edge.sketch.generation"),
		sketchAge:        r.Gauge("speedkit.edge.sketch.age_seconds"),
	}
}

// Stats is a point-in-time copy of the edge counters.
type Stats struct {
	// Hits served straight from cache without touching the upstream.
	Hits uint64
	// Misses that went to the upstream for a full body (fill leaders).
	Misses uint64
	// Revalidated entries renewed by an upstream 304.
	Revalidated uint64
	// NotModified 304s answered downstream on If-None-Match.
	NotModified uint64
	// CoalescedWaiters attached to another request's in-flight fill.
	CoalescedWaiters uint64
	// Purges applied: POST /v1/purge, and copies a revalidation found
	// disowned upstream.
	Purges uint64
	// UpstreamErrors on fetch or revalidation.
	UpstreamErrors uint64
	// ServedStale hits answered from an expired copy because the
	// upstream was unreachable.
	ServedStale uint64
	// Degraded counts TTL-fresh hits revalidated because no sketch within
	// Δ vouched for them: none was held, or the held one was Δ old.
	Degraded uint64
	// BytesServed counts response body bytes from the cache path.
	BytesServed uint64
	// DiskFills / DiskPurges are WAL records appended to the disk tier.
	DiskFills  uint64
	DiskPurges uint64
	// Snapshots taken of the disk tier.
	Snapshots uint64
	// SketchRefreshes pulled from the upstream.
	SketchRefreshes uint64
	// SketchServes answered downstream from the edge's own copy. Not
	// Hits: the hit ratio is a page ratio.
	SketchServes uint64
}

func (m *metrics) stats() Stats {
	return Stats{
		Hits:             m.hits.Value(),
		Misses:           m.misses.Value(),
		Revalidated:      m.revalidated.Value(),
		NotModified:      m.notModified.Value(),
		CoalescedWaiters: m.coalescedWaiters.Value(),
		Purges:           m.purges.Value(),
		UpstreamErrors:   m.upstreamErrors.Value(),
		ServedStale:      m.servedStale.Value(),
		Degraded:         m.degraded.Value(),
		BytesServed:      m.bytesServed.Value(),
		DiskFills:        m.diskFills.Value(),
		DiskPurges:       m.diskPurges.Value(),
		Snapshots:        m.snapshots.Value(),
		SketchRefreshes:  m.sketchRefreshes.Value(),
		SketchServes:     m.sketchServes.Value(),
	}
}

// writeMetrics is GET /metrics: the runtime gauges and the held sketch's
// generation and age are set here, at scrape time, and nowhere on the
// request path; then the registry renders.
func (p *Proxy) writeMetrics(w io.Writer) error {
	p.m.runtime.Collect()
	p.m.sketchGen.Set(int64(p.sketch.Generation()))
	p.m.sketchAge.Set(int64(p.sketch.Age() / time.Second))
	return p.m.reg.WriteText(w)
}
