package core

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/obs"
	"speedkit/internal/workload"
)

// soakState is what the soak compares between its checkpoints: the live
// heap, and the size of every structure keyed by a request-supplied path.
type soakState struct {
	heapMB                           float64
	estimator, verlogKeys, tableSize int
}

// TestSoakHeapFlat is the check for "does the server keep state per
// request-supplied key": 3 M operations against one Service — fetches of
// 1 000 real pages, one fetch in six of a path nobody has asked for
// before, conditional requests for minted paths, a write every 100 ops —
// under a clock that advances 10 ms per op (8 h 20 min in all), so every
// structure bounded in time is in steady state well before the first
// checkpoint. The live heap at the end must be the heap at 20 %, and the
// key counts say which structure grew when it is not. `make soak`.
func TestSoakHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 3 M ops, a few seconds")
	}
	const (
		ops      = 3_000_000
		products = 1000
		step     = 10 * time.Millisecond
	)
	clk := clock.NewSimulated(time.Time{})
	svc, err := NewStorefront(StorefrontConfig{
		Config: Config{
			Clock: clk, Seed: 1, Obs: obs.NewRegistry(),
			// Version stamps are kept for a horizon; a short one puts the
			// log in steady state inside the first fifth of the run.
			VersionLogHorizon: 10 * time.Minute,
		},
		Products: products,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	pages := make([]string, products)
	for i := range pages {
		pages[i] = "/product/" + workload.ProductID(i)
	}
	// checkpoint reads every real page once under a stopped clock, so both
	// readings see the same pages cached and tracked, then measures.
	checkpoint := func() soakState {
		for _, p := range pages {
			if _, _, err := svc.Page(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return soakState{
			heapMB:     float64(ms.HeapAlloc) / (1 << 20),
			estimator:  svc.Estimator().Tracked(),
			verlogKeys: svc.VersionLog().Keys(),
			tableSize:  svc.SketchServer().Stats().TableSize,
		}
	}

	rng := rand.New(rand.NewSource(1))
	var first, last soakState
	var ghosts, writes int
	for i := 1; i <= ops; i++ {
		clk.Advance(step)
		switch {
		case i%100 == 0:
			id := workload.ProductID(rng.Intn(products))
			if err := svc.Docs().Patch("products", id, map[string]any{"stock": int64(i)}); err != nil {
				t.Fatal(err)
			}
			writes++
		case i%6 == 1:
			// A path nobody asked for before, by turns under the product
			// route and under no route at all.
			path := "/product/ghost-" + strconv.Itoa(i)
			if i%12 == 1 {
				path = "/nope/" + strconv.Itoa(i)
			}
			if _, _, err := svc.Page(ctx, path); err == nil {
				t.Fatalf("fetch of %s succeeded", path)
			}
			ghosts++
		case i%12 == 4:
			// The cheapest key-minting request: a conditional one.
			path := "/product/minted-" + strconv.Itoa(i)
			if res, err := svc.Revalidate(ctx, path, 1); err == nil {
				t.Fatalf("revalidation of %s answered %+v", path, res)
			}
			ghosts++
		case i%12 == 10:
			p := pages[rng.Intn(products)]
			if _, err := svc.Revalidate(ctx, p, svc.Origin().Version(p)); err != nil {
				t.Fatal(err)
			}
		default:
			if _, _, err := svc.Page(ctx, pages[rng.Intn(products)]); err != nil {
				t.Fatal(err)
			}
		}
		if i%(ops/5) == 0 {
			last = checkpoint()
			t.Logf("%4.1f M ops: heap %.2f MB, estimator %d, version log %d keys, sketch table %d",
				float64(i)/1e6, last.heapMB, last.estimator, last.verlogKeys, last.tableSize)
			if i == ops/5 {
				first = last
			}
		}
	}
	if ghosts < 500_000 || writes < 25_000 {
		t.Fatalf("soak too mild: %d nonexistent paths, %d writes", ghosts, writes)
	}
	if last.estimator != first.estimator || last.verlogKeys != first.verlogKeys || last.tableSize != first.tableSize {
		t.Errorf("tracked keys moved between 20%% and 100%%: %+v → %+v", first, last)
	}
	if last.heapMB > first.heapMB*1.05 || last.heapMB < first.heapMB*0.95 {
		t.Errorf("live heap %.2f MB at 20%%, %.2f MB at 100%%: not within 5%%", first.heapMB, last.heapMB)
	}
}
