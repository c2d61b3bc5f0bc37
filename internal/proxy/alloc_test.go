package proxy

import (
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
// over a pre-split Transport with a region and a topology, costs the
// same: its adapter lives in the proxy's allocation.
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
	if len(sinkProxy.cfg.LocalBlocks) != 4 {
		t.Fatalf("default block renderers %v, want the four built-ins", sinkProxy.cfg.LocalBlocks)
	}
	cfg.Region, cfg.Network = netsim.EU, netsim.DefaultTopology(1)
	joined := &Joined{Shared: tr, First: tr}
	if n := testing.AllocsPerRun(100, func() { sinkProxy = New(cfg, joined) }); n > newAllocs {
		t.Fatalf("New allocates %.0f, want at most %d", n, newAllocs)
	}
}

// newAllocs is what NewSplit, or New, allocates for one device.
const newAllocs = 4

var sinkProxy *Proxy
