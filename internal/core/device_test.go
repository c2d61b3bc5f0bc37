package core

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/netsim"
)

// TestDeviceModelsItsLoadTime: a load does not move the shared clock, and
// its Latency is the modelled time: the fetch's network time plus the
// device's own work. A backoff sleep on the device's clock is modelled
// time too, and blocks no one.
func TestDeviceModelsItsLoadTime(t *testing.T) {
	svc, clk := newTestStorefront(t)
	dev := svc.NewDevice(testUser(), netsim.EU)
	before := clk.Now()
	res, err := dev.Load(context.Background(), "/product/p00001")
	if err != nil {
		t.Fatal(err)
	}
	if !clk.Now().Equal(before) {
		t.Fatalf("a load moved the shared clock by %v", clk.Now().Sub(before))
	}
	if res.BlocksPersonalized == 0 || res.Latency <= dev.link.blocks {
		t.Fatalf("latency %v with %d blocks, want the fetch's time and the assembly's", res.Latency, res.BlocksPersonalized)
	}
	if !dev.link.Now().Equal(clk.Now()) {
		t.Fatal("the device's clock is not the service's")
	}
	spent := dev.link.spent
	clock.Sleep(&dev.link, time.Second)
	if dev.link.spent != spent+time.Second || !clk.Now().Equal(before) {
		t.Fatalf("a 1s sleep took %v of modelled time and moved the shared clock to %v", dev.link.spent-spent, clk.Now())
	}
}

// TestDevicePrefetchesAfterFullLoadsOnly: a device configured to prefetch
// warms a page's links after a load that ran the full protocol, and not
// after a degraded one.
func TestDevicePrefetchesAfterFullLoadsOnly(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	// A cold load fetches no sketch, so only the revisit meets the
	// blackhole.
	inj := faults.New(clk, 42, faults.Rule{Component: faults.SketchFetch, Kind: faults.Blackhole, Probability: 1})
	svc, err := NewStorefront(StorefrontConfig{
		Config:   Config{Clock: clk, Seed: 1, Delta: 30 * time.Second, PrefetchLinks: 2, Faults: inj},
		Products: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	dev := svc.NewDevice(nil, netsim.EU)
	if _, err := dev.Load(context.Background(), "/category/shoes"); err != nil {
		t.Fatal(err)
	}
	warmed := dev.Stats().Prefetches
	if warmed == 0 {
		t.Fatal("a full load of a listing prefetched nothing")
	}

	// With the sketch unreachable past Δ, the revisit degrades to a forced
	// revalidation: no prefetch follows it.
	clk.Advance(31 * time.Second)
	res, err := dev.Load(context.Background(), "/category/shoes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == "" {
		t.Fatal("revisit with the sketch unreachable was not degraded")
	}
	if got := dev.Stats().Prefetches; got != warmed {
		t.Fatalf("prefetches %d after a degraded load, want %d", got, warmed)
	}
}
