// Package cdn simulates the content delivery network tier: one edge cache
// per region, TTL-based expiration, and an instant purge API. It stands in
// for the commercial CDN the production system runs on (see DESIGN.md's
// substitution table) and reproduces the two semantics the coherence
// protocol depends on: copies live until their TTL unless purged, and a
// purge only affects copies stored before it was issued.
//
// Purges carry a propagation delay (purgeDelay, 10 ms, matching published
// instant-purge latencies) so that the invalidation-pipeline experiments
// can measure end-to-end detection-to-purge latency honestly.
package cdn

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/netsim"
)

// The simulated CDN has one shape: an edge in every canonical region,
// each a striped LRU of edgeMaxItems entries, and purges that reach the
// edges purgeDelay after they are issued.
const (
	edgeMaxItems = 100000
	edgeShards   = 16
	purgeDelay   = 10 * time.Millisecond
)

// Stats aggregates CDN activity.
type Stats struct {
	Hits, Misses, Fills, Purges, PurgedEntries uint64
}

// HitRatio returns hits/(hits+misses).
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CDN is the multi-PoP edge network. Safe for concurrent use.
//
// Concurrency layout: the edge map is immutable after New, each PoP's
// cache store synchronizes itself (lock-striped internally), the
// aggregate counters are atomics, and only the pending-purge heap sits
// behind a mutex — with an atomic length fast path so the common case
// (no purge in flight) costs a single load on every Lookup. A Lookup on
// one PoP therefore never contends with traffic on another PoP.
type CDN struct {
	clk   clock.Clock
	edges map[netsim.Region]*Edge // immutable after New

	pmu     sync.Mutex
	purges  purgeHeap    // guarded by pmu
	pending atomic.Int64 // len(purges), for the lock-free fast path

	hits, misses, fills         atomic.Uint64
	purgesIssued, purgedEntries atomic.Uint64
}

// Edge is one point of presence.
type Edge struct {
	Region netsim.Region
	store  *cache.Store
	cdn    *CDN
}

type purgeEvent struct {
	key         string
	issuedAt    time.Time
	effectiveAt time.Time
}

type purgeHeap []purgeEvent

func (h purgeHeap) Len() int           { return len(h) }
func (h purgeHeap) Less(i, j int) bool { return h[i].effectiveAt.Before(h[j].effectiveAt) }
func (h purgeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *purgeHeap) Push(x any)        { *h = append(*h, x.(purgeEvent)) }
func (h *purgeHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// New builds the CDN on clk (nil: the coarse system clock).
func New(clk clock.Clock) *CDN {
	if clk == nil {
		clk = clock.CoarseSystem
	}
	regions := netsim.Regions()
	c := &CDN{clk: clk, edges: make(map[netsim.Region]*Edge, len(regions))}
	for _, r := range regions {
		c.edges[r] = &Edge{
			Region: r,
			store:  cache.New(cache.Config{MaxItems: edgeMaxItems, Clock: clk, Shards: edgeShards}),
			cdn:    c,
		}
	}
	return c
}

// Edge returns the PoP for region r (nil if not deployed). The edge map
// is immutable after New, so no lock is needed.
func (c *CDN) Edge(r netsim.Region) *Edge {
	return c.edges[r]
}

// applyDuePurges executes purges whose propagation delay has passed. A
// purge removes an entry only if the entry was stored at or before the
// purge was issued: copies fetched after the write are already fresh.
// The fast path — no purge in flight — is a single atomic load.
func (c *CDN) applyDuePurges(now time.Time) {
	if c.pending.Load() == 0 {
		return
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	for len(c.purges) > 0 && !c.purges[0].effectiveAt.After(now) {
		ev := heap.Pop(&c.purges).(purgeEvent)
		c.pending.Add(-1)
		for _, e := range c.edges {
			if entry, ok := e.store.Peek(ev.key); ok && !entry.StoredAt.After(ev.issuedAt) {
				e.store.Delete(ev.key)
				c.purgedEntries.Add(1)
			}
		}
	}
}

// Lookup serves key from the edge, honoring pending purges. A copy of
// another epoch than the one given is a miss: only that epoch's
// expiration table knew it, so no write since has purged it. Lookups on
// different PoPs (or different keys of one PoP's striped store) proceed
// in parallel; only the key's own cache stripe is locked.
func (e *Edge) Lookup(key string, epoch uint64) (cache.Entry, bool) {
	now := e.cdn.clk.Now()
	e.cdn.applyDuePurges(now)
	entry, ok := e.store.Get(key)
	if ok = ok && entry.Epoch == epoch; ok {
		e.cdn.hits.Add(1)
	} else {
		e.cdn.misses.Add(1)
	}
	return entry, ok
}

// Fill stores an entry at this edge (an origin fetch completing).
func (e *Edge) Fill(entry cache.Entry) {
	e.store.Put(entry)
	e.cdn.fills.Add(1)
}

// Store exposes the edge's cache store for inspection in tests.
func (e *Edge) Store() *cache.Store { return e.store }

// Purge schedules removal of key from every edge after the propagation
// delay. Returns the instant the purge becomes effective.
func (c *CDN) Purge(key string) time.Time {
	now := c.clk.Now()
	eff := now.Add(purgeDelay)
	c.pmu.Lock()
	heap.Push(&c.purges, purgeEvent{key: key, issuedAt: now, effectiveAt: eff})
	c.pending.Add(1)
	c.pmu.Unlock()
	c.purgesIssued.Add(1)
	return eff
}

// PurgeAll drops every entry from every edge immediately.
func (c *CDN) PurgeAll() {
	c.pmu.Lock()
	c.purges = c.purges[:0]
	c.pending.Store(0)
	c.pmu.Unlock()
	for _, e := range c.edges {
		e.store.Clear()
	}
}

// Stats returns a copy of the aggregate counters after applying due
// purges.
func (c *CDN) Stats() Stats {
	now := c.clk.Now()
	c.applyDuePurges(now)
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Fills:         c.fills.Load(),
		Purges:        c.purgesIssued.Load(),
		PurgedEntries: c.purgedEntries.Load(),
	}
}
