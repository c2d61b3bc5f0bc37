package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a streaming histogram over non-negative values (typically
// durations in microseconds or sizes in bytes). It uses logarithmically
// sized buckets so that relative error is bounded (~5% per bucket) across
// nine orders of magnitude, which is the precision/footprint trade-off used
// by HdrHistogram-style recorders in production CDNs.
//
// Recording is lock-striped: each Observe locks one of histStripes
// sub-recorders chosen round-robin, so concurrent recorders contend on a
// mutex only 1/histStripes of the time. Readers (quantiles, snapshots)
// fold the stripes together, taking each stripe's lock in turn — the
// read side is the cold path and pays for the write side's scalability.
type Histogram struct {
	growth  float64 // bucket growth factor (immutable)
	logG    float64 // precomputed log(growth) (immutable)
	rr      atomic.Uint32
	stripes [histStripes]histStripe
}

// histStripes is the lock-stripe count (power of two).
const histStripes = 8

// histStripe is one independently locked sub-recorder. Padded so that
// adjacent stripes do not share a cache line.
type histStripe struct {
	mu      sync.Mutex
	counts  []uint64 // guarded by mu
	total   uint64   // guarded by mu
	sum     float64  // guarded by mu
	min     float64  // guarded by mu
	max     float64  // guarded by mu
	nonZero bool     // guarded by mu
	_       [48]byte
}

// histState is a consistent fold of all stripes, used by readers.
type histState struct {
	counts  []uint64
	total   uint64
	sum     float64
	min     float64
	max     float64
	nonZero bool
}

// defaultGrowth yields ~5% relative bucket width.
const defaultGrowth = 1.05

// numBuckets covers values up to ~1e9 with growth 1.05 plus a zero bucket.
const numBuckets = 512

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{
		growth: defaultGrowth,
		logG:   math.Log(defaultGrowth),
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		st.counts = make([]uint64, numBuckets)
		st.min = math.Inf(1)
		st.max = math.Inf(-1)
	}
	return h
}

// bucketFor maps a value to its bucket index. Values <= 1 land in bucket 0.
func (h *Histogram) bucketFor(v float64) int {
	if v <= 1 {
		return 0
	}
	i := int(math.Log(v)/h.logG) + 1
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// lowerBound is the smallest value that maps to bucket i.
func (h *Histogram) lowerBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Pow(h.growth, float64(i-1))
}

// Observe records a single value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	b := h.bucketFor(v)
	st := &h.stripes[h.rr.Add(1)&(histStripes-1)]
	st.mu.Lock()
	st.counts[b]++
	st.total++
	st.sum += v
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	st.nonZero = true
	st.mu.Unlock()
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d.Microseconds()))
}

// merged folds every stripe into one consistent-per-stripe state. Stripe
// locks are taken one at a time, so concurrent recording continues on the
// other stripes while a reader folds.
func (h *Histogram) merged() histState {
	out := histState{
		counts: make([]uint64, numBuckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		for j, c := range st.counts {
			out.counts[j] += c
		}
		out.total += st.total
		out.sum += st.sum
		if st.nonZero {
			if st.min < out.min {
				out.min = st.min
			}
			if st.max > out.max {
				out.max = st.max
			}
			out.nonZero = true
		}
		st.mu.Unlock()
	}
	return out
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		total += st.total
		st.mu.Unlock()
	}
	return total
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) using the
// bucket lower bound with linear interpolation within the bucket. Returns 0
// for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	return h.quantileOf(h.merged(), q)
}

func (h *Histogram) quantileOf(m histState, q float64) float64 {
	if m.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(m.total-1)
	var cum uint64
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo := h.lowerBound(i)
			hi := h.lowerBound(i + 1)
			// Interpolate within the bucket by the fraction of rank covered.
			frac := (rank - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			if v < m.min {
				v = m.min
			}
			if v > m.max {
				v = m.max
			}
			return v
		}
		cum += c
	}
	return m.max
}

// Quantiles returns estimates for several quantiles over one consistent
// fold of the stripes. The qs slice need not be sorted.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	m := h.merged()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.quantileOf(m, q)
	}
	return out
}

// Snapshot returns an immutable copy of the histogram state for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	m := h.merged()
	s := HistogramSnapshot{
		Count: m.total,
		Sum:   m.sum,
	}
	if m.nonZero {
		s.Min = m.min
		s.Max = m.max
	}
	if m.total > 0 {
		s.Mean = m.sum / float64(m.total)
		s.P50 = h.quantileOf(m, 0.50)
		s.P90 = h.quantileOf(m, 0.90)
		s.P95 = h.quantileOf(m, 0.95)
		s.P99 = h.quantileOf(m, 0.99)
	}
	return s
}

// Merge folds other into h. Both histograms must use the same bucketing,
// which is always true for histograms created by NewHistogram.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h {
		return
	}
	// Fold other into a consistent copy first, then add it to one of our
	// stripes; no two locks are ever held at once.
	m := other.merged()
	st := &h.stripes[0]
	st.mu.Lock()
	for i, c := range m.counts {
		st.counts[i] += c
	}
	st.total += m.total
	st.sum += m.sum
	if m.nonZero {
		if m.min < st.min {
			st.min = m.min
		}
		if m.max > st.max {
			st.max = m.max
		}
		st.nonZero = true
	}
	st.mu.Unlock()
}

// Reset clears all recorded state.
func (h *Histogram) Reset() {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		for j := range st.counts {
			st.counts[j] = 0
		}
		st.total = 0
		st.sum = 0
		st.min = math.Inf(1)
		st.max = math.Inf(-1)
		st.nonZero = false
		st.mu.Unlock()
	}
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count               uint64
	Sum, Mean, Min, Max float64
	P50, P90, P95, P99  float64
}

// String renders the snapshot as a compact single line, with values assumed
// to be microseconds (the convention used across the benchmark harness).
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.0fµs p50=%.0fµs p90=%.0fµs p99=%.0fµs max=%.0fµs",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// ExactQuantile computes the exact q-quantile of a sample slice. It is used
// by tests to bound the histogram's estimation error and by small-sample
// reports where exactness is cheap. The input slice is not modified.
func ExactQuantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}
