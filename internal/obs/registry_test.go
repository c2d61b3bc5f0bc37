package obs

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRegistryResolvesStableHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("speedkit.fetch.total", L("source", "cdn"))
	b := r.Counter("speedkit.fetch.total", L("source", "cdn"))
	if a != b {
		t.Fatal("same name+labels resolved two distinct counters")
	}
	c := r.Counter("speedkit.fetch.total", L("source", "origin"))
	if a == c {
		t.Fatal("distinct label values resolved the same counter")
	}
	a.Inc()
	a.Inc()
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Fatalf("counter values = %d, %d; want 2, 1", a.Value(), c.Value())
	}
	if got := len(r.Snapshot()); got != 1 {
		t.Fatalf("families = %d, want 1", got)
	}
}

func TestRegistryLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Gauge("speedkit.test.g", L("region", "eu"), L("source", "cdn"))
	b := r.Gauge("speedkit.test.g", L("source", "cdn"), L("region", "eu"))
	if a != b {
		t.Fatal("label order changed series identity; labels must be canonicalized")
	}
}

// deniedRuns numbers the label keys the denial tests mint: a denial lasts
// for the process, so each run denies keys no earlier run has used.
var deniedRuns atomic.Int64

func freshKey(base string) string {
	return base + "_" + strconv.FormatInt(deniedRuns.Add(1), 10)
}

func TestRegistryRejectsPIILabelKeys(t *testing.T) {
	keys := []string{freshKey("user_id"), freshKey("cart"), freshKey("tier")}
	DenyLabelKeys(keys...)
	r := NewRegistry()
	for _, key := range keys {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("denied label key %q was accepted", key)
				}
			}()
			r.Counter("speedkit.test.pii", L(key, "x"))
		}()
	}
}

// TestDenyLabelKeysChecksRegisteredSeries: a key denied after some
// registry created a series under it panics at the denial, so the fence
// holds whatever the order of package inits.
func TestDenyLabelKeysChecksRegisteredSeries(t *testing.T) {
	key := freshKey("email")
	NewRegistry().Counter("speedkit.test.early", L(key, "x"))
	defer func() {
		if recover() == nil {
			t.Error("denying a key a registry already holds did not panic")
		}
	}()
	DenyLabelKeys(key)
}

func TestRegistryRejectsBadNamesAndLabels(t *testing.T) {
	r := NewRegistry()
	bad := []func(){
		func() { r.Counter("") },
		func() { r.Counter("Speedkit.Fetch") },
		func() { r.Counter("speedkit..fetch") },
		func() { r.Counter("speedkit.fetch", L("Bad-Key", "v")) },
		func() { r.Counter("speedkit.dup", L("k", "a"), L("k", "b")) },
		func() {
			r.Counter("speedkit.toomany",
				L("a", "1"), L("b", "1"), L("c", "1"), L("d", "1"),
				L("e", "1"), L("f", "1"), L("g", "1"))
		},
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid registration was accepted", i)
				}
			}()
			fn()
		}()
	}
}

func TestRegistryRejectsKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("speedkit.test.kind")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch was accepted")
		}
	}()
	r.Gauge("speedkit.test.kind")
}

func TestRegistrySeriesOverflowCollapses(t *testing.T) {
	r := NewRegistry()
	r.MaxSeriesPerFamily = 4
	for i := 0; i < 4; i++ {
		r.Counter("speedkit.test.cap", L("source", strings.Repeat("x", i+1))).Inc()
	}
	// Beyond the cap every new label set lands on one shared series.
	o1 := r.Counter("speedkit.test.cap", L("source", "overflow-a"))
	o2 := r.Counter("speedkit.test.cap", L("source", "overflow-b"))
	if o1 != o2 {
		t.Fatal("overflowing label sets did not collapse into one series")
	}
	o1.Inc()
	o1.Inc()
	// Existing series keep resolving exactly.
	if got := r.Counter("speedkit.test.cap", L("source", "x")).Value(); got != 1 {
		t.Fatalf("pre-overflow series value = %d, want 1", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || !snap[0].Overflowed {
		t.Fatalf("snapshot should mark the family overflowed: %+v", snap)
	}
	var found bool
	for _, s := range snap[0].Samples {
		for _, l := range s.Labels {
			if l.Key == "overflow" && l.Value == "true" && s.Value == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no overflow series with value 2 in %+v", snap[0].Samples)
	}
}

func TestHistogramExposedAsSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("speedkit.test.lat_us", L("source", "cdn"))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindSummary {
		t.Fatalf("snapshot = %+v, want one summary family", snap)
	}
	// 4 quantiles + sum + count.
	if len(snap[0].Samples) != 6 {
		t.Fatalf("samples = %d, want 6", len(snap[0].Samples))
	}
	last := snap[0].Samples[5]
	if last.Name != "speedkit_test_lat_us_count" || last.Value != 100 {
		t.Fatalf("count sample = %+v", last)
	}
	sum := snap[0].Samples[4]
	if sum.Name != "speedkit_test_lat_us_sum" || sum.Value != 5050 {
		t.Fatalf("sum sample = %+v", sum)
	}
}
