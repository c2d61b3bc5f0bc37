package obs

import "sync/atomic"

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a counter starting at zero.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. Counters are monotonic by contract: a zero
// or negative delta is dropped silently — never applied, never an error
// — so a miscomputed negative adjustment cannot make a counter run
// backwards (which would corrupt rates derived from it). Callers that
// need a value that can go down want a Gauge instead.
func (c *Counter) Add(n int) {
	if n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset sets the counter back to zero. Intended for test/bench harness use
// between runs, not for production counters.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a gauge at zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
