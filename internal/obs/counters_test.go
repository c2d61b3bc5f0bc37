package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored
	if c.Value() != 6 {
		t.Fatalf("value = %d, want 6", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("reset value = %d", c.Value())
	}
}

// TestCounterAddDropsNonPositiveDeltas pins the monotonicity contract:
// zero and negative deltas are dropped outright, including the edge
// cases that would corrupt the counter if the delta were cast to uint64
// before the sign check (math.MinInt would add 2^63).
func TestCounterAddDropsNonPositiveDeltas(t *testing.T) {
	c := NewCounter()
	c.Add(10)
	for _, n := range []int{0, -1, -10, math.MinInt} {
		c.Add(n)
		if c.Value() != 10 {
			t.Fatalf("after Add(%d): value = %d, want 10 (non-positive deltas must be dropped)", n, c.Value())
		}
	}
	c.Add(1)
	if c.Value() != 11 {
		t.Fatalf("positive delta after dropped ones: value = %d, want 11", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("value = %d, want 16000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("value = %d, want 6", g.Value())
	}
}
