package core

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/durable"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
)

// TestWriteJournalsOnlyTrackedWrites: over a durable store, the write
// pipeline journals what the sketch server changes and nothing per
// invalidated page. A Patch that invalidates two pages nobody cached
// appends no WAL record; with both pages cached it appends one write
// record for each, exactly the writes the sketch tracked (and purged).
func TestWriteJournalsOnlyTrackedWrites(t *testing.T) {
	const product = "/product/p00011"
	const listing = "/category/shirts" // p00011's category page
	for _, cached := range []bool{false, true} {
		clk := clock.NewSimulated(time.Unix(1000, 0))
		reg := obs.NewRegistry()
		store := durable.New(durable.Config{Dir: t.TempDir(), Clock: clk, ColdWindow: 30 * time.Second})
		svc, err := NewStorefront(StorefrontConfig{
			Config: Config{Clock: clk, Seed: 1, Delta: 30 * time.Second,
				TTLSource: &hookTTL{ttl: 10 * time.Minute}, Obs: reg, Durable: store},
			Products: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		t.Cleanup(func() { _ = store.Close() })
		if _, err := svc.Recovery(); err != nil {
			t.Fatal(err)
		}
		if cached {
			dev := svc.NewDevice(nil, netsim.EU)
			for _, path := range []string{product, listing} {
				if _, err := dev.Load(context.Background(), path); err != nil {
					t.Fatal(err)
				}
			}
		}

		appends := store.Stats().WAL.Appends
		invalidations := reg.Counter("speedkit.invalidation.total").Value()
		purges := reg.Counter("speedkit.cdn.purges.total").Value()
		if err := svc.Docs().Patch("products", "p00011", map[string]any{"price": 2.0}); err != nil {
			t.Fatal(err)
		}
		appended := store.Stats().WAL.Appends - appends
		if got := reg.Counter("speedkit.invalidation.total").Value() - invalidations; got != 2 {
			t.Fatalf("cached=%v: the write invalidated %d pages, want 2", cached, got)
		}
		tracked := reg.Counter("speedkit.cdn.purges.total").Value() - purges
		if want := map[bool]uint64{false: 0, true: 2}[cached]; tracked != want {
			t.Fatalf("cached=%v: the sketch tracked %d writes, want %d", cached, tracked, want)
		}
		if appended != tracked {
			t.Fatalf("cached=%v: the write appended %d WAL records, want the %d tracked writes", cached, appended, tracked)
		}
	}
}
