package proxy

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/session"
)

// TestNewAllocations pins what building a device costs with the
// configuration a load generator gives each one (a user, Δ and the system
// clock): the proxy, its sketch holder, and its one-shard cache with that
// shard's map. The three breakers live in the proxy, the one shard in its
// store, the default block renderers are one shared map and the cache's
// LRU list lives in its shard (12 while each device built the renderers
// and the list, 9 while it allocated its breakers and its shard). New,
// with a region and a topology, costs the same: over a Joined it is
// NewSplit, and over any other pre-split Transport its adapter lives in
// the proxy's allocation.
func TestNewAllocations(t *testing.T) {
	cfg := Config{
		User:  session.Population(1, 1)[0],
		Delta: 30 * time.Second,
		Clock: clock.System,
	}
	tr := &fakeTransport{}
	n := testing.AllocsPerRun(100, func() { sinkProxy = NewSplit(cfg, tr, tr) })
	if n > newAllocs {
		t.Fatalf("NewSplit allocates %.0f, want at most %d", n, newAllocs)
	}
	if b := bytesPerRun(100, func() { sinkProxy = NewSplit(cfg, tr, tr) }); b > newBytes {
		t.Fatalf("NewSplit allocates %d B, want at most %d", b, newBytes)
	}
	if len(sinkProxy.cfg.LocalBlocks) != 4 {
		t.Fatalf("default block renderers %v, want the four built-ins", sinkProxy.cfg.LocalBlocks)
	}
	cfg.Region, cfg.Network = netsim.EU, netsim.DefaultTopology(1)
	joined := &Joined{Shared: tr, First: tr}
	if n := testing.AllocsPerRun(100, func() { sinkProxy = New(cfg, joined) }); n > newAllocs {
		t.Fatalf("New allocates %.0f, want at most %d", n, newAllocs)
	}
	if b := bytesPerRun(100, func() { sinkProxy = New(cfg, joined) }); b > newBytes {
		t.Fatalf("New allocates %d B, want at most %d", b, newBytes)
	}
	foreign := preSplit{joined}
	if n := testing.AllocsPerRun(100, func() { sinkProxy = New(cfg, foreign) }); n > newAllocs {
		t.Fatalf("New over a foreign Transport allocates %.0f, want at most %d", n, newAllocs)
	}
	if b := bytesPerRun(100, func() { sinkProxy = New(cfg, foreign) }); b > newBytes {
		t.Fatalf("New over a foreign Transport allocates %d B, want at most %d", b, newBytes)
	}
}

// newAllocs and newBytes are what NewSplit, or New, allocates for one
// device. The Proxy itself takes 768 B of it: a pointerful object over
// 512 B carries an 8-byte header, so a struct past 760 B moves to the
// 896-B size class, 128 B more for every device built.
const (
	newAllocs = 4
	newBytes  = 1120
)

// bytesPerRun is testing.AllocsPerRun for bytes: the average the heap
// grew by over runs calls of f, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

var sinkProxy *Proxy

// raceEnabled reports whether the test binary was built with the race
// detector: its instrumentation adds allocations (a slice grown from
// nothing allocates twice), so some allocation pins hold only without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
