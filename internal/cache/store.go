package cache

import (
	"container/heap"
	"container/list"
	"sync"
	"time"

	"speedkit/internal/clock"
)

// Store is the bounded LRU every tier builds: the device's
// service-worker cache, the edge's memory tier and each region of the CDN
// simulator. Safe for concurrent use.
//
// Eviction drops expired entries first, earliest expiry first, and only
// then the least recently used: no unexpired entry is evicted while an
// expired one is still stored. Each shard keeps its expiring entries in a
// min-heap on ExpiresAt, so a Put into a full store costs O(log n) in the
// entries that expire and never walks the recency list.
//
// The store is lock-striped into a power-of-2 number of shards, each with
// its own mutex, map, recency list and heap, and MaxItems is split evenly
// between them: the aggregate bound holds exactly, but a skewed key
// distribution can evict from a hot shard while a cold one has room. A
// single-shard store (the default) keeps the exact global LRU order.
type Store struct {
	// shards is immutable after New; each shard synchronizes itself. A
	// single-shard store's is one, held inline: every device session
	// builds one, so it costs the store and its map and nothing more.
	shards []*shard
	mask   uint64
	clk    clock.Clock
	one    shard
	oneRef [1]*shard
}

// shard is one lock stripe of the store: a self-contained bounded LRU.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // guarded by mu
	order    list.List                // guarded by mu; front = least recently used
	expiring expiryHeap               // guarded by mu; the entries that expire, soonest first
	stats    Stats                    // guarded by mu
	maxItems int
}

type storedEntry struct {
	entry Entry
	// heapIdx is the entry's position in its shard's expiring heap, or
	// noHeapIdx while it is not in it (it never expires, or was removed).
	heapIdx int
}

const noHeapIdx = -1

// expiryHeap is a min-heap of stored entries on ExpiresAt with the
// position kept in each entry, so one entry can be fixed up or removed in
// O(log n). It is allocated by the first entry that expires: every device
// session builds a store, and most hold a handful of entries.
type expiryHeap struct {
	items []*storedEntry
	// moves counts element swaps, the unit of heap work; tests bound the
	// cost of a Put with it.
	moves uint64
}

func (h *expiryHeap) Len() int { return len(h.items) }
func (h *expiryHeap) Less(i, j int) bool {
	return h.items[i].entry.ExpiresAt.Before(h.items[j].entry.ExpiresAt)
}
func (h *expiryHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx, h.items[j].heapIdx = i, j
	h.moves++
}
func (h *expiryHeap) Push(x any) {
	se := x.(*storedEntry)
	se.heapIdx = len(h.items)
	h.items = append(h.items, se)
}
func (h *expiryHeap) Pop() any {
	last := len(h.items) - 1
	se := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	se.heapIdx = noHeapIdx
	return se
}

// Config sizes and parameterizes a Store.
type Config struct {
	// MaxItems bounds the entry count; 0 means unbounded.
	MaxItems int
	// Clock supplies time for expiration (default coarse system clock).
	Clock clock.Clock
	// Shards is the number of lock stripes, rounded up to a power of two
	// and capped at 256 (default 1). Each shard holds MaxItems/Shards
	// entries, at least one.
	Shards int
}

// maxShards caps shard requests.
const maxShards = 256

// New creates a Store from cfg.
func New(cfg Config) *Store {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.CoarseSystem
	}
	// Round up to a power of two so key routing is a mask, not a modulo.
	n := 1
	for n < cfg.Shards && n < maxShards {
		n <<= 1
	}
	perItems := cfg.MaxItems
	if n > 1 && perItems > 0 {
		perItems = max(cfg.MaxItems/n, 1)
	}
	s := &Store{mask: uint64(n - 1), clk: clk}
	if n == 1 {
		s.oneRef[0] = &s.one
		s.shards = s.oneRef[:]
	} else {
		s.shards = make([]*shard, n)
		for i := range s.shards {
			s.shards[i] = new(shard)
		}
	}
	for _, sh := range s.shards {
		sh.entries = make(map[string]*list.Element)
		sh.maxItems = perItems
	}
	return s
}

// FNV-1a, inlined so that routing a key to its shard costs one register
// loop and no allocation (mirrors internal/bloom's probe hashing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (s *Store) shardFor(key string) *shard {
	if s.mask == 0 {
		return s.shards[0]
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	// Fold the high half in: the low bits of raw FNV are weak for short
	// keys with shared prefixes, and the mask only looks at low bits.
	return s.shards[(h^h>>32)&s.mask]
}

// Get returns the entry stored under key if present and unexpired, and
// makes it the most recently used. An expired entry it finds is dropped
// and counted as a miss and an expiration.
func (s *Store) Get(key string) (Entry, bool) {
	now := s.clk.Now()
	return s.shardFor(key).get(key, now)
}

// get is Get under the key's shard lock, released at one place rather
// than by a defer, whose record would cost the hit path its budget.
func (sh *shard) get(key string, now time.Time) (e Entry, ok bool) {
	sh.mu.Lock()
	if el, found := sh.entries[key]; !found {
		sh.stats.Misses++
	} else if se := el.Value.(*storedEntry); se.entry.Expired(now) {
		sh.removeLocked(key, el)
		sh.stats.Expirations++
		sh.stats.Misses++
	} else {
		sh.order.MoveToBack(el)
		sh.stats.Hits++
		e, ok = se.entry, true
	}
	sh.mu.Unlock()
	return e, ok
}

// Peek is Get without promoting the entry in the recency order and
// without recording hit/miss stats; used by coherence inspection.
func (s *Store) Peek(key string) (Entry, bool) {
	now := s.clk.Now()
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return Entry{}, false
	}
	se := el.Value.(*storedEntry)
	if se.entry.Expired(now) {
		return Entry{}, false
	}
	return se.entry, true
}

// PeekAny returns the stored entry under key even if it has expired.
// Revalidation uses this: an expired copy cannot be served, but its
// version still makes a conditional request possible, saving the body
// transfer when the resource is unchanged.
func (s *Store) PeekAny(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return Entry{}, false
	}
	return el.Value.(*storedEntry).entry, true
}

// Put stores an entry as the most recently used, evicting as needed. A
// zero StoredAt is stamped with the store's clock.
func (s *Store) Put(e Entry) {
	if e.StoredAt.IsZero() {
		e.StoredAt = s.clk.Now()
	}
	s.shardFor(e.Key).put(e, s.clk)
}

func (sh *shard) put(e Entry, clk clock.Clock) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[e.Key]; ok {
		se := el.Value.(*storedEntry)
		se.entry = e
		sh.trackExpiryLocked(se)
		sh.order.MoveToBack(el)
	} else {
		se := &storedEntry{entry: e, heapIdx: noHeapIdx}
		sh.trackExpiryLocked(se)
		sh.entries[e.Key] = sh.order.PushBack(se)
	}
	sh.stats.Puts++
	sh.evictLocked(clk)
}

// trackExpiryLocked brings the expiring heap in line with se's current
// ExpiresAt: a new or replaced entry enters, moves within, or leaves it.
func (sh *shard) trackExpiryLocked(se *storedEntry) {
	expires, tracked := !se.entry.ExpiresAt.IsZero(), se.heapIdx != noHeapIdx
	switch {
	case expires && tracked:
		heap.Fix(&sh.expiring, se.heapIdx)
	case expires:
		heap.Push(&sh.expiring, se)
	case tracked:
		heap.Remove(&sh.expiring, se.heapIdx)
	}
}

// overLocked reports whether the shard holds more than its bound.
func (sh *shard) overLocked() bool {
	return sh.maxItems > 0 && len(sh.entries) > sh.maxItems
}

// popExpiredLocked drops the soonest-expiring entry if it has expired.
// It looks only at the heap's top, so a drop costs O(log n).
func (sh *shard) popExpiredLocked(now time.Time) bool {
	if sh.expiring.Len() == 0 {
		return false
	}
	se := sh.expiring.items[0]
	if !se.entry.Expired(now) {
		return false
	}
	sh.removeLocked(se.entry.Key, sh.entries[se.entry.Key])
	sh.stats.Expirations++
	return true
}

// evictLocked enforces the bound. Expired entries go first (they are
// free wins) and only while the shard is over; then the least recently
// used.
func (sh *shard) evictLocked(clk clock.Clock) {
	if !sh.overLocked() {
		return
	}
	now := clk.Now()
	for sh.overLocked() && sh.popExpiredLocked(now) {
	}
	for sh.overLocked() {
		el := sh.order.Front()
		sh.removeLocked(el.Value.(*storedEntry).entry.Key, el)
		sh.stats.Evictions++
	}
}

// removeLocked drops el from the shard. The caller must hold sh.mu.
func (sh *shard) removeLocked(key string, el *list.Element) {
	se := el.Value.(*storedEntry)
	sh.order.Remove(el)
	delete(sh.entries, key)
	if se.heapIdx != noHeapIdx {
		heap.Remove(&sh.expiring, se.heapIdx)
	}
}

// Delete removes the entry under key, reporting whether it existed.
// Deletions are counted as invalidations.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return false
	}
	sh.removeLocked(key, el)
	sh.stats.Invalidations++
	return true
}

// Clear drops everything.
func (s *Store) Clear() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.order.Init()
		sh.expiring.items = nil
		sh.mu.Unlock()
	}
}

// Len returns the number of stored entries, including not-yet-reaped
// expired ones.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a copy of the counters. Each shard's counters are read
// under that shard's lock, so every per-shard snapshot is internally
// consistent and — because the counters are monotone — sums across
// successive Stats calls never go backwards, even with concurrent traffic.
func (s *Store) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Puts += st.Puts
		total.Evictions += st.Evictions
		total.Expirations += st.Expirations
		total.Invalidations += st.Invalidations
	}
	return total
}

// Keys returns the keys of live (unexpired) entries in recency order,
// least recently used first, shard by shard. For a single-shard store
// this is the exact global eviction order.
func (s *Store) Keys() []string {
	now := s.clk.Now()
	out := make([]string, 0, s.Len())
	for _, sh := range s.shards {
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			se := el.Value.(*storedEntry)
			if !se.entry.Expired(now) {
				out = append(out, se.entry.Key)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// TTLEntry is a convenience constructor for an entry expiring ttl from now
// according to clk.
func TTLEntry(clk clock.Clock, key string, body []byte, version uint64, ttl time.Duration) Entry {
	if clk == nil {
		clk = clock.System
	}
	now := clk.Now()
	e := Entry{Key: key, Body: body, Version: version, StoredAt: now}
	if ttl > 0 {
		e.ExpiresAt = now.Add(ttl)
	}
	return e
}
