package obs

import (
	"runtime"
)

// RuntimeCollector feeds Go runtime health into the registry:
// goroutine count, heap occupancy, and GC activity — the denominators
// every SLO investigation eventually needs ("was the tail latency us,
// or was it a GC pause?"). It is pull-based: Collect refreshes the
// gauges and the HTTP layer calls it at scrape time, so an idle process
// pays nothing between scrapes.
type RuntimeCollector struct {
	goroutines   *Gauge
	heapAlloc    *Gauge
	heapObjects  *Gauge
	gcCycles     *Gauge
	gcPauseTotal *Gauge
	lastPause    *Gauge
}

// NewRuntimeCollector registers the runtime gauges on r (default
// obs.Default) and returns the collector. A nil *RuntimeCollector is
// inert, as with every handle in this package.
func NewRuntimeCollector(r *Registry) *RuntimeCollector {
	if r == nil {
		r = Default
	}
	return &RuntimeCollector{
		goroutines:   r.Gauge("speedkit.runtime.goroutines"),
		heapAlloc:    r.Gauge("speedkit.runtime.heap_alloc_bytes"),
		heapObjects:  r.Gauge("speedkit.runtime.heap_objects"),
		gcCycles:     r.Gauge("speedkit.runtime.gc_cycles"),
		gcPauseTotal: r.Gauge("speedkit.runtime.gc_pause_total_ns"),
		lastPause:    r.Gauge("speedkit.runtime.gc_last_pause_ns"),
	}
}

// Collect refreshes every runtime gauge. ReadMemStats briefly
// stops the world, which is acceptable at scrape cadence and nowhere
// else — do not call this on a request path.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.goroutines.Set(int64(runtime.NumGoroutine()))
	c.heapAlloc.Set(int64(ms.HeapAlloc))
	c.heapObjects.Set(int64(ms.HeapObjects))
	c.gcCycles.Set(int64(ms.NumGC))
	c.gcPauseTotal.Set(int64(ms.PauseTotalNs))
	if ms.NumGC > 0 {
		c.lastPause.Set(int64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
}
