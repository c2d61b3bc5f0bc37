package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/obs"
)

// TestPurgesOnlyWhatACacheCanHold tables when the write pipeline purges:
// exactly when the sketch server's expiration table says a copy of the
// written page may still be live, plus every operator purge. A page
// nothing cached gets none, and counts as skipped instead. The write to
// p00011 also invalidates its category listing, which no row reads.
func TestPurgesOnlyWhatACacheCanHold(t *testing.T) {
	const path = "/product/p00011"
	const listing = "/category/shirts"
	write := func(t *testing.T, svc *Service) {
		t.Helper()
		if err := svc.Docs().Patch("products", "p00011", map[string]any{"price": 2.0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		name string
		// run does the row's reads and writes; ttls is the service's TTL
		// source, for the row that lands a write inside a fetch.
		run         func(t *testing.T, svc *Service, clk *clock.Simulated, ttls *hookTTL)
		wantPurged  []string
		wantSkipped uint64
	}{
		{
			name:        "unheld page: no purge",
			run:         func(t *testing.T, svc *Service, _ *clock.Simulated, _ *hookTTL) { write(t, svc) },
			wantSkipped: 2,
		},
		{
			name: "held page: one purge",
			run: func(t *testing.T, svc *Service, _ *clock.Simulated, _ *hookTTL) {
				if _, err := svc.NewDevice(nil, netsim.EU).Load(context.Background(), path); err != nil {
					t.Fatal(err)
				}
				write(t, svc)
			},
			wantPurged:  []string{path},
			wantSkipped: 1,
		},
		{
			name: "copy expired: no purge",
			run: func(t *testing.T, svc *Service, clk *clock.Simulated, _ *hookTTL) {
				if _, err := svc.NewDevice(nil, netsim.EU).Load(context.Background(), path); err != nil {
					t.Fatal(err)
				}
				clk.Advance(11 * time.Minute)
				write(t, svc)
			},
			wantSkipped: 2,
		},
		{
			name: "operator purge: always",
			run: func(_ *testing.T, svc *Service, _ *clock.Simulated, _ *hookTTL) {
				svc.PurgePath(path)
			},
			wantPurged: []string{path},
		},
		{
			// The write inside the fetch finds nothing cached yet and sends
			// no purge; the fetch's re-run, after its own report, does.
			name: "write between render and fill: the re-run purges",
			run: func(t *testing.T, svc *Service, _ *clock.Simulated, ttls *hookTTL) {
				ttls.hook = func() {
					ttls.hook = nil
					write(t, svc)
				}
				if _, err := svc.NewDevice(nil, netsim.EU).Load(context.Background(), path); err != nil {
					t.Fatal(err)
				}
			},
			wantPurged:  []string{path},
			wantSkipped: 2,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			clk := clock.NewSimulated(time.Unix(1000, 0))
			ttls := &hookTTL{ttl: 10 * time.Minute}
			reg := obs.NewRegistry()
			svc, err := NewStorefront(StorefrontConfig{
				Config:   Config{Clock: clk, Seed: 1, Delta: 30 * time.Second, TTLSource: ttls, Obs: reg},
				Products: 100,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(svc.Close)
			var purged []string
			svc.OnPurge(func(p string) { purged = append(purged, p) })

			row.run(t, svc, clk, ttls)
			slices.Sort(purged)
			if !slices.Equal(purged, row.wantPurged) {
				t.Fatalf("purges sent %q, want %q", purged, row.wantPurged)
			}
			if got := reg.Counter("speedkit.cdn.purges.total").Value(); got != uint64(len(purged)) {
				t.Fatalf("speedkit.cdn.purges.total = %d, want the %d sent", got, len(purged))
			}
			if got := reg.Counter("speedkit.cdn.purges.skipped.total").Value(); got != row.wantSkipped {
				t.Fatalf("speedkit.cdn.purges.skipped.total = %d, want %d", got, row.wantSkipped)
			}
		})
	}
}

// TestPurgeFanOutAllocatesNothing: the listeners are published
// copy-on-write, so a purge reads them without building a slice, and a
// cancelled listener is gone from every purge after its cancel.
func TestPurgeFanOutAllocatesNothing(t *testing.T) {
	svc, err := NewStorefront(StorefrontConfig{
		Config:   Config{Clock: clock.NewSimulated(time.Unix(1000, 0)), Seed: 1},
		Products: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var first, cancelled, last int
	svc.OnPurge(func(string) { first++ })
	cancel := svc.OnPurge(func(string) { cancelled++ })
	svc.OnPurge(func(string) { last++ })
	svc.notifyPurge("/product/p00001")
	cancel()

	if n := testing.AllocsPerRun(100, func() { svc.notifyPurge("/product/p00001") }); n != 0 {
		t.Fatalf("a purge with two listeners allocates %.1f, want 0", n)
	}
	// One purge before the cancel, then AllocsPerRun's warm-up and 100 runs.
	if first != 102 || last != 102 || cancelled != 1 {
		t.Fatalf("listeners called %d, %d and (cancelled) %d times, want 102, 102 and 1", first, last, cancelled)
	}
}
