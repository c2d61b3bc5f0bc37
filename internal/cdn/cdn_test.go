package cdn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
)

func newTestCDN() (*CDN, *clock.Simulated) {
	clk := clock.NewSimulated(time.Time{})
	c := New(clk)
	return c, clk
}

func TestCDNEdgesDeployed(t *testing.T) {
	c, _ := newTestCDN()
	if len(c.edges) != 3 {
		t.Fatalf("%d edges, want 3", len(c.edges))
	}
	for _, r := range netsim.Regions() {
		if c.Edge(r) == nil {
			t.Fatalf("edge %s missing", r)
		}
	}
	if c.Edge(netsim.Region("mars")) != nil {
		t.Fatal("undeployed region returned an edge")
	}
}

func TestCDNFillAndLookup(t *testing.T) {
	c, clk := newTestCDN()
	eu := c.Edge(netsim.EU)
	eu.Fill(cache.TTLEntry(clk, "/p/1", []byte("body"), 1, time.Minute))
	e, ok := eu.Lookup("/p/1", 0)
	if !ok || string(e.Body) != "body" {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	// Edges are independent: US edge has no copy.
	if _, ok := c.Edge(netsim.US).Lookup("/p/1", 0); ok {
		t.Fatal("entry leaked across edges")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCDNCopyOfAnotherEpochIsAMiss: a copy no held expiration table knows
// is not served, and counts as the miss it is.
func TestCDNCopyOfAnotherEpochIsAMiss(t *testing.T) {
	c, clk := newTestCDN()
	eu := c.Edge(netsim.EU)
	entry := cache.TTLEntry(clk, "/p/1", []byte("body"), 1, time.Minute)
	entry.Epoch = 7
	eu.Fill(entry)
	if _, ok := eu.Lookup("/p/1", 8); ok {
		t.Fatal("a copy of epoch 7 served in epoch 8")
	}
	if _, ok := eu.Lookup("/p/1", 7); !ok {
		t.Fatal("a copy of epoch 7 missed in epoch 7")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 miss", st)
	}
}

func TestCDNTTLExpiry(t *testing.T) {
	c, clk := newTestCDN()
	eu := c.Edge(netsim.EU)
	eu.Fill(cache.TTLEntry(clk, "/p/1", nil, 1, 30*time.Second))
	clk.Advance(31 * time.Second)
	if _, ok := eu.Lookup("/p/1", 0); ok {
		t.Fatal("expired entry served")
	}
}

func TestCDNPurgeRemovesFromAllEdges(t *testing.T) {
	c, clk := newTestCDN()
	for _, r := range netsim.Regions() {
		c.Edge(r).Fill(cache.TTLEntry(clk, "/p/1", nil, 1, time.Hour))
	}
	c.Purge("/p/1")
	clk.Advance(11 * time.Millisecond) // past purgeDelay
	for _, r := range netsim.Regions() {
		if _, ok := c.Edge(r).Lookup("/p/1", 0); ok {
			t.Fatalf("purged entry still served at %s", r)
		}
	}
	st := c.Stats()
	if st.Purges != 1 || st.PurgedEntries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCDNPurgeDelayWindow(t *testing.T) {
	c, clk := newTestCDN()
	eu := c.Edge(netsim.EU)
	eu.Fill(cache.TTLEntry(clk, "/p/1", nil, 1, time.Hour))
	c.Purge("/p/1")
	// Before the delay elapses the stale copy is still served — this is
	// the small window the sketch protocol covers.
	clk.Advance(5 * time.Millisecond)
	if _, ok := eu.Lookup("/p/1", 0); !ok {
		t.Fatal("purge took effect before its propagation delay")
	}
	clk.Advance(6 * time.Millisecond)
	if _, ok := eu.Lookup("/p/1", 0); ok {
		t.Fatal("purge never took effect")
	}
}

func TestCDNPurgeSparesNewerFills(t *testing.T) {
	c, clk := newTestCDN()
	eu := c.Edge(netsim.EU)
	eu.Fill(cache.TTLEntry(clk, "/p/1", nil, 1, time.Hour))
	c.Purge("/p/1")
	// A fresh copy (v2) is fetched after the purge was issued but before
	// it propagates; the purge must not remove it.
	clk.Advance(5 * time.Millisecond)
	eu.Fill(cache.TTLEntry(clk, "/p/1", nil, 2, time.Hour))
	clk.Advance(6 * time.Millisecond)
	e, ok := eu.Lookup("/p/1", 0)
	if !ok || e.Version != 2 {
		t.Fatalf("fresh fill lost to stale purge: %+v, %v", e, ok)
	}
}

func TestCDNPurgeAll(t *testing.T) {
	c, clk := newTestCDN()
	for i := 0; i < 10; i++ {
		c.Edge(netsim.EU).Fill(cache.TTLEntry(clk, fmt.Sprintf("/p/%d", i), nil, 1, time.Hour))
	}
	c.PurgeAll()
	if c.Edge(netsim.EU).Store().Len() != 0 {
		t.Fatal("PurgeAll left entries")
	}
}

func TestCDNHitRatio(t *testing.T) {
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("empty ratio nonzero")
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Fatalf("ratio = %v", r)
	}
}

func TestCDNDefaults(t *testing.T) {
	c := New(nil)
	if len(c.edges) != 3 || c.clk != clock.CoarseSystem {
		t.Fatalf("defaults: %d edges, clock %T", len(c.edges), c.clk)
	}
}

func TestCDNConcurrent(t *testing.T) {
	c, clk := newTestCDN()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			edge := c.Edge(netsim.Regions()[w%3])
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("/p/%d", i%50)
				edge.Fill(cache.TTLEntry(clk, key, nil, 1, time.Minute))
				edge.Lookup(key, 0)
				if i%100 == 0 {
					c.Purge(key)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Fills == 0 || st.Purges == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
