package core

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/durable"
	"speedkit/internal/faults"
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
		store := durable.New(durable.Config{Dir: t.TempDir(), Clock: clk})
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

// TestUncleanRestartThatLostAFillReadsTheWrite: the server's CDN tier
// outlives a server restart. A page is filled into it, and the fill's
// report to the sketch server is torn off the log as the process dies.
// The recovered expiration table does not know the copy, so a write to the
// page neither purges it nor enters the sketch. Past Δ after the write,
// a device with nothing cached and one that held the page before the
// restart must both read the written version: the CDN copy, of the old
// epoch, is a miss, and the holder revalidates its copy once.
func TestUncleanRestartThatLostAFillReadsTheWrite(t *testing.T) {
	const path = "/product/p00011"
	const delta = 30 * time.Second
	clk := clock.NewSimulated(time.Unix(1000, 0))
	// Every append in [1 s, 2 s) tears: the fill's report is the only one.
	inj := faults.New(clk, 1, faults.Rule{Component: faults.WALAppend, Kind: faults.Crash,
		Probability: 1, After: time.Second, Until: 2 * time.Second})
	store := durable.New(durable.Config{Dir: t.TempDir(), Clock: clk, Faults: inj})
	svc, err := NewStorefront(StorefrontConfig{
		Config: Config{Clock: clk, Seed: 1, Delta: delta,
			TTLSource: &hookTTL{ttl: 10 * time.Minute}, Durable: store},
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
	ctx := context.Background()

	clk.Advance(1500 * time.Millisecond)
	holder := svc.NewDevice(nil, netsim.EU)
	first, err := holder.Load(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Crashed() {
		t.Fatal("the fill's report reached the log; the scenario needs it torn")
	}
	clk.Advance(time.Second)
	oldEpoch := svc.SketchServer().Epoch()
	if _, err := svc.RecoverDurable(); err != nil {
		t.Fatal(err)
	}
	if svc.SketchServer().Epoch() == oldEpoch {
		t.Fatal("an unclean recovery continued the old epoch")
	}

	if err := svc.Docs().Patch("products", "p00011", map[string]any{"price": 2.0}); err != nil {
		t.Fatal(err)
	}
	written := svc.origin.Version(path)
	if written == first.Version {
		t.Fatal("the write did not move the page's version")
	}
	clk.Advance(2 * delta)
	for _, dev := range []struct {
		name string
		d    *Device
		// hits is what the load adds to the CDN's hits: the fresh device's
		// finds the copy of the old epoch, a miss; the holder's finds the
		// copy that load filled.
		hits uint64
	}{{"a fresh device", svc.NewDevice(nil, netsim.EU), 0}, {"the holder", holder, 1}} {
		before := svc.CDN().Stats().Hits
		got, err := dev.d.Load(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != written {
			t.Errorf("%s read version %d from %v, %v after the write; want %d", dev.name, got.Version, got.Source, 2*delta, written)
		}
		if hits := svc.CDN().Stats().Hits - before; hits != dev.hits {
			t.Errorf("%s's load counted %d CDN hits, want %d", dev.name, hits, dev.hits)
		}
	}
}
