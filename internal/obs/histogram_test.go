package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	if h.Snapshot().Mean != 0 || h.Snapshot().Min != 0 || h.Snapshot().Max != 0 {
		t.Fatalf("empty stats nonzero: mean=%v min=%v max=%v", h.Snapshot().Mean, h.Snapshot().Min, h.Snapshot().Max)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Snapshot().Min != 42 || h.Snapshot().Max != 42 {
		t.Fatalf("min/max = %v/%v", h.Snapshot().Min, h.Snapshot().Max)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 42 {
			t.Fatalf("quantile(%v) = %v, want 42", q, v)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-10)
	h.Observe(math.NaN())
	if h.Snapshot().Min != 0 || h.Snapshot().Max != 0 {
		t.Fatalf("negative/NaN not clamped: min=%v max=%v", h.Snapshot().Min, h.Snapshot().Max)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Quantile estimates must be within the bucket relative error (~5%)
	// of the exact sample quantiles for a heavy-tailed distribution.
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	sample := make([]float64, 50000)
	for i := range sample {
		// log-normal-ish latencies between ~10µs and ~10s
		v := math.Exp(rng.NormFloat64()*1.5 + 8)
		sample[i] = v
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := ExactQuantile(sample, q)
		est := h.Quantile(q)
		rel := math.Abs(est-exact) / exact
		if rel > 0.08 {
			t.Errorf("q=%v exact=%.1f est=%.1f rel err %.3f > 0.08", q, exact, est, rel)
		}
	}
}

func TestHistogramMergePreservesTotals(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Observe(float64(i))
		b.Observe(float64(1000 + i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Snapshot().Min != 0 || a.Snapshot().Max != 1099 {
		t.Fatalf("merged min/max = %v/%v", a.Snapshot().Min, a.Snapshot().Max)
	}
	wantSum := b.Snapshot().Sum + (99 * 100 / 2)
	if math.Abs(a.Snapshot().Sum-wantSum) > 1e-6 {
		t.Fatalf("merged sum = %v, want %v", a.Snapshot().Sum, wantSum)
	}
}

func TestHistogramMergeSelfAndNil(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Merge(nil)
	h.Merge(h)
	if h.Count() != 1 {
		t.Fatalf("self/nil merge changed count: %d", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(123)
	h.Reset()
	if h.Count() != 0 || h.Snapshot().Max != 0 {
		t.Fatalf("reset incomplete: count=%d max=%v", h.Count(), h.Snapshot().Max)
	}
}

func TestHistogramSnapshotOrdering(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Float64() * 1e6)
	}
	s := h.Snapshot()
	if !(s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.Count != 10000 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64() * 100)
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost observations: %d", h.Count())
	}
}

func TestHistogramQuantilePropertyBounded(t *testing.T) {
	// Property: for any set of observed values, every quantile estimate is
	// within [min, max] and quantiles are monotone in q.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Observe(float64(r % 1_000_000))
		}
		prev := -1.0
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.Snapshot().Min-1e-9 || v > h.Snapshot().Max+1e-9 {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := ExactQuantile(s, c.q); got != c.want {
			t.Errorf("ExactQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Errorf("ExactQuantile(nil) = %v", got)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Errorf("input mutated: %v", s)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(2 * time.Millisecond)
	if h.Snapshot().Max != 2000 {
		t.Fatalf("duration not recorded in µs: %v", h.Snapshot().Max)
	}
}
