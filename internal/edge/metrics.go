package edge

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics holds the edge's own counters. The edge is shared
// infrastructure under the GDPR boundary: it may not import
// internal/obs (whose registry lives on the identity-bearing side of
// the fence), so it owns a minimal atomic counter set and renders the
// Prometheus exposition itself. Names live under speedkit.edge.* —
// the same namespace convention the rest of the system uses — and the
// rendering order is fixed, so two scrapes of identical state are
// byte-identical (golden-testable, diffable).
type metrics struct {
	hits             atomic.Uint64
	misses           atomic.Uint64
	revalidated      atomic.Uint64
	notModified      atomic.Uint64
	coalescedWaiters atomic.Uint64
	purges           atomic.Uint64
	upstreamErrors   atomic.Uint64
	servedStale      atomic.Uint64
	degraded         atomic.Uint64
	bytesServed      atomic.Uint64
	diskFills        atomic.Uint64
	diskPurges       atomic.Uint64
	snapshots        atomic.Uint64
	sketchRefreshes  atomic.Uint64
	sketchServes     atomic.Uint64
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
	// Purges applied (pipeline notifications and manual).
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
		Hits:             m.hits.Load(),
		Misses:           m.misses.Load(),
		Revalidated:      m.revalidated.Load(),
		NotModified:      m.notModified.Load(),
		CoalescedWaiters: m.coalescedWaiters.Load(),
		Purges:           m.purges.Load(),
		UpstreamErrors:   m.upstreamErrors.Load(),
		ServedStale:      m.servedStale.Load(),
		Degraded:         m.degraded.Load(),
		BytesServed:      m.bytesServed.Load(),
		DiskFills:        m.diskFills.Load(),
		DiskPurges:       m.diskPurges.Load(),
		Snapshots:        m.snapshots.Load(),
		SketchRefreshes:  m.sketchRefreshes.Load(),
		SketchServes:     m.sketchServes.Load(),
	}
}

// write renders the Prometheus text exposition. The row order is the
// declaration order below — fixed, so the output is deterministic.
func (m *metrics) write(w io.Writer) {
	s := m.stats()
	rows := []struct {
		name  string
		value uint64
	}{
		{"speedkit_edge_hits_total", s.Hits},
		{"speedkit_edge_misses_total", s.Misses},
		{"speedkit_edge_revalidated_total", s.Revalidated},
		{"speedkit_edge_not_modified_total", s.NotModified},
		{"speedkit_edge_coalesced_waiters_total", s.CoalescedWaiters},
		{"speedkit_edge_purges_total", s.Purges},
		{"speedkit_edge_upstream_errors_total", s.UpstreamErrors},
		{"speedkit_edge_served_stale_total", s.ServedStale},
		{"speedkit_edge_degraded_total", s.Degraded},
		{"speedkit_edge_bytes_served_total", s.BytesServed},
		{"speedkit_edge_disk_fills_total", s.DiskFills},
		{"speedkit_edge_disk_purges_total", s.DiskPurges},
		{"speedkit_edge_snapshots_total", s.Snapshots},
		{"speedkit_edge_sketch_refreshes_total", s.SketchRefreshes},
		{"speedkit_edge_sketch_serves_total", s.SketchServes},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", r.name, r.name, r.value)
	}
}
