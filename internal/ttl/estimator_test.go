package ttl

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"speedkit/internal/clock"
)

func newTestEstimator() (*Estimator, *clock.Simulated) {
	clk := clock.NewSimulated(time.Time{})
	e := NewEstimator(Config{
		MinTTL:             10 * time.Second,
		MaxTTL:             time.Hour,
		InvalidationBudget: 0.2,
		Clock:              clk,
	})
	return e, clk
}

func TestUnknownResourceGetsMaxTTL(t *testing.T) {
	e, _ := newTestEstimator()
	if ttl := e.TTL("never-seen"); ttl != time.Hour {
		t.Fatalf("TTL = %v, want MaxTTL", ttl)
	}
}

func TestReadOnlyResourceGetsMaxTTL(t *testing.T) {
	e, clk := newTestEstimator()
	for i := 0; i < 10; i++ {
		e.RecordRead("static-asset")
		clk.Advance(time.Second)
	}
	if ttl := e.TTL("static-asset"); ttl != time.Hour {
		t.Fatalf("TTL = %v, want MaxTTL for write-free resource", ttl)
	}
}

func TestSingleWriteStillMaxTTL(t *testing.T) {
	e, _ := newTestEstimator()
	e.RecordWrite("r")
	// One write gives no inter-write gap — no rate estimate yet.
	if ttl := e.TTL("r"); ttl != time.Hour {
		t.Fatalf("TTL = %v, want MaxTTL before a write gap exists", ttl)
	}
}

func TestHotWrittenResourceGetsShortTTL(t *testing.T) {
	e, clk := newTestEstimator()
	// Writes every 5 s: λw = 0.2/s; t = -ln(0.8)/0.2 ≈ 1.1 s → floored to MinTTL.
	for i := 0; i < 20; i++ {
		e.RecordWrite("hot")
		clk.Advance(5 * time.Second)
	}
	if ttl := e.TTL("hot"); ttl != 10*time.Second {
		t.Fatalf("TTL = %v, want MinTTL floor", ttl)
	}
}

func TestModerateWriteRateTTLMatchesModel(t *testing.T) {
	e, clk := newTestEstimator()
	// Writes every 1000 s, no reads: t = -ln(0.8)·1000 ≈ 223 s.
	for i := 0; i < 20; i++ {
		e.RecordWrite("moderate")
		clk.Advance(1000 * time.Second)
	}
	got := e.TTL("moderate").Seconds()
	want := -math.Log(0.8) * 1000
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("TTL = %.1fs, want ≈%.1fs", got, want)
	}
}

func TestReadHeavyResourceGetsLongerTTL(t *testing.T) {
	e, clk := newTestEstimator()
	e2, clk2 := newTestEstimator()
	// Same write cadence on both; e2's resource also sees dense reads.
	for i := 0; i < 200; i++ {
		if i%100 == 0 {
			e.RecordWrite("r")
			e2.RecordWrite("r")
		}
		e2.RecordRead("r")
		clk.Advance(time.Second)
		clk2.Advance(time.Second)
	}
	plain := e.TTL("r")
	readHeavy := e2.TTL("r")
	if readHeavy <= plain {
		t.Fatalf("read-heavy TTL %v not longer than write-only %v", readHeavy, plain)
	}
}

func TestTTLBudgetWidensCappedAt08(t *testing.T) {
	e, clk := newTestEstimator()
	// Extreme read/write ratio: the budget must cap, so the TTL stays
	// below -ln(1-0.8)/λw.
	for i := 0; i < 3; i++ {
		e.RecordWrite("r")
		for j := 0; j < 10000; j++ {
			e.RecordRead("r")
			clk.Advance(10 * time.Millisecond)
		}
	}
	_, lambdaW := rates(e, "r")
	maxTTL := -math.Log(1-0.8) / lambdaW
	if got := e.TTL("r").Seconds(); got > maxTTL*1.01 {
		t.Fatalf("TTL %.1fs exceeds capped-budget bound %.1fs", got, maxTTL)
	}
}

// rates is the resource's estimated miss-reads and writes per second, 0
// until two of each have been seen: the reciprocals of its gap EWMAs.
func rates(e *Estimator, id string) (read, write float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.res[id]; s != nil {
		if s.readGapEWMA != 0 {
			read = 1 / s.readGapEWMA
		}
		if s.writeGapEWMA != 0 {
			write = 1 / s.writeGapEWMA
		}
	}
	return read, write
}

func TestRates(t *testing.T) {
	e, clk := newTestEstimator()
	if r, w := rates(e, "r"); w != 0 || r != 0 {
		t.Fatal("rates nonzero before activity")
	}
	for i := 0; i < 10; i++ {
		e.RecordWrite("r")
		e.RecordRead("r")
		clk.Advance(2 * time.Second)
	}
	r, w := rates(e, "r")
	if math.Abs(w-0.5) > 0.05 {
		t.Fatalf("write rate = %v, want ~0.5", w)
	}
	if math.Abs(r-0.5) > 0.05 {
		t.Fatalf("read rate = %v, want ~0.5", r)
	}
}

func TestEWMAAdaptsToRateChange(t *testing.T) {
	e, clk := newTestEstimator()
	// Slow writes first...
	for i := 0; i < 10; i++ {
		e.RecordWrite("r")
		clk.Advance(100 * time.Second)
	}
	slow := e.TTL("r")
	// ...then a burst of fast writes.
	for i := 0; i < 30; i++ {
		e.RecordWrite("r")
		clk.Advance(time.Second)
	}
	fast := e.TTL("r")
	if fast >= slow {
		t.Fatalf("TTL did not shrink after write burst: %v -> %v", slow, fast)
	}
}

func TestSnapshotAndTracked(t *testing.T) {
	e, clk := newTestEstimator()
	e.RecordRead("a")
	e.RecordWrite("a")
	clk.Advance(time.Second)
	e.RecordWrite("a")
	reads, writes, ttl := e.Snapshot("a")
	if reads != 1 || writes != 2 || ttl <= 0 {
		t.Fatalf("snapshot = %d/%d/%v", reads, writes, ttl)
	}
	if e.Tracked() != 1 {
		t.Fatalf("tracked = %d", e.Tracked())
	}
	e.Forget("a")
	if e.Tracked() != 0 {
		t.Fatal("Forget did not remove")
	}
}

func TestConfigDefaults(t *testing.T) {
	e := NewEstimator(Config{})
	if e.cfg.MinTTL != 10*time.Second || e.cfg.MaxTTL != 24*time.Hour {
		t.Fatalf("defaults = %v/%v", e.cfg.MinTTL, e.cfg.MaxTTL)
	}
	if e.cfg.InvalidationBudget != 0.2 || e.cfg.EWMAAlpha != 0.25 {
		t.Fatalf("defaults = %v/%v", e.cfg.InvalidationBudget, e.cfg.EWMAAlpha)
	}
	// Out-of-range values also fall back.
	e2 := NewEstimator(Config{InvalidationBudget: 1.5, EWMAAlpha: -1})
	if e2.cfg.InvalidationBudget != 0.2 || e2.cfg.EWMAAlpha != 0.25 {
		t.Fatal("out-of-range config not defaulted")
	}
}

func TestStaticSource(t *testing.T) {
	s := Static(42 * time.Second)
	if s.TTL("anything") != 42*time.Second {
		t.Fatal("static TTL wrong")
	}
}

func TestEstimatorConcurrent(t *testing.T) {
	e := NewEstimator(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("r%d", w%4)
			for i := 0; i < 500; i++ {
				e.RecordRead(id)
				e.RecordWrite(id)
				e.TTL(id)
			}
		}(w)
	}
	wg.Wait()
	if e.Tracked() != 4 {
		t.Fatalf("tracked = %d", e.Tracked())
	}
}
