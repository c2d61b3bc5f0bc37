package proxy

import (
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/session"
)

// TestNewAllocations pins what building a device costs with the
// configuration a load generator gives each one (a user, a region, Δ, the
// system clock and a shared topology): the proxy, its sketch holder, its
// one-shard cache and three breakers. The default block renderers are one
// shared map and the cache's LRU list lives in its shard (12 while each
// device built both).
func TestNewAllocations(t *testing.T) {
	cfg := Config{
		User:    session.Population(1, 1)[0],
		Region:  netsim.EU,
		Delta:   30 * time.Second,
		Clock:   clock.System,
		Network: netsim.DefaultTopology(1),
	}
	tr := &fakeTransport{}
	n := testing.AllocsPerRun(100, func() { sinkProxy = New(cfg, tr) })
	if n > newAllocs {
		t.Fatalf("New allocates %.0f, want at most %d", n, newAllocs)
	}
	if len(sinkProxy.cfg.LocalBlocks) != 4 {
		t.Fatalf("default block renderers %v, want the four built-ins", sinkProxy.cfg.LocalBlocks)
	}
}

// newAllocs is what New allocates for one device.
const newAllocs = 9

var sinkProxy *Proxy
