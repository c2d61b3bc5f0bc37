package cache

import (
	"container/heap"
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
)

// Store is the concrete Cache implementation shared by all tiers. It
// bounds both entry count and total bytes; whichever limit is hit first
// triggers eviction according to the configured policy. Safe for
// concurrent use.
//
// Eviction drops expired entries first, earliest expiry first, and only
// then the policy's victims: no unexpired entry is evicted while an
// expired one is still stored. Each shard keeps its expiring entries in a
// min-heap on ExpiresAt, so a Put into a full store costs O(log n) in the
// entries that expire and never walks the eviction list.
//
// Internally the store is lock-striped into a power-of-2 number of
// shards, each with its own mutex, hash-map, and eviction list, so that
// concurrent readers on different keys never contend on one global lock.
// Capacity limits are enforced per shard (an even split of the
// configured totals), which is the standard sharded-LRU trade-off: the
// aggregate bound holds exactly, but a pathologically skewed key
// distribution can evict from a hot shard while a cold shard has room.
// Single-shard stores (the default whenever a capacity bound is set, and
// always available via Config.Shards = 1) keep the exact global eviction
// order of a classic LRU/LFU/FIFO.
//
// Unbounded stores (no MaxItems and no MaxBytes) additionally keep a
// lock-free read mirror: eviction can never fire, so a Get does not need
// the eviction bookkeeping at all and is served from an open-addressed
// atomic table (see lfTable) that writers maintain under the shard
// locks. On that path a hit is one inline hash, an atomic slot load, an
// expiry check against the coarse clock, and an atomic counter — no
// mutex, no allocation. The trade-off is that uses
// do not reorder the (unobservable) eviction order of unbounded stores:
// Keys reports insertion order for them.
type Store struct {
	// shards is immutable after New; each shard synchronizes itself.
	shards []*shard
	mask   uint64
	clk    clock.Clock

	// readMap is the lock-free read mirror, non-nil only for unbounded
	// stores. Writers update it while holding the owning shard's lock, so
	// updates for one key are totally ordered; readers load it with no
	// lock. The pointer itself is immutable after New.
	readMap *lfTable

	// Read-side counters for the lock-free path (bounded stores count in
	// their shard's Stats instead; exactly one set is ever non-zero).
	fastHits        atomic.Uint64
	fastMisses      atomic.Uint64
	fastExpirations atomic.Uint64
}

// shard is one lock stripe of the store: a self-contained bounded cache.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // guarded by mu
	order    *list.List               // guarded by mu; front = next eviction candidate
	expiring expiryHeap               // guarded by mu; the entries that expire, soonest first
	stats    Stats                    // guarded by mu
	policy   Policy
	maxItems int
	maxBytes int
	// readMap aliases the store's lock-free read mirror (nil for bounded
	// stores). Writers keep it in sync while holding mu.
	readMap *lfTable
}

type storedEntry struct {
	entry Entry
	freq  uint64 // LFU use count
	size  int
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
	// MaxItems bounds the entry count; 0 means unlimited.
	MaxItems int
	// MaxBytes bounds the accounted size; 0 means unlimited.
	MaxBytes int
	// Policy selects the eviction policy (default LRU).
	Policy Policy
	// Clock supplies time for expiration (default coarse system clock).
	Clock clock.Clock
	// Shards is the number of lock stripes, rounded up to a power of two
	// and capped at 256. 0 selects the default: 1 shard when a capacity
	// bound is set (exact global eviction order), 16 otherwise (striped
	// writes; unbounded reads are lock-free regardless). Bounded stores
	// that want striping set Shards explicitly and accept per-shard
	// capacity enforcement.
	Shards int
}

// defaultShards is the stripe count for unbounded stores.
const defaultShards = 16

// maxShards caps explicit shard requests.
const maxShards = 256

// shardCount resolves cfg into a power-of-2 stripe count.
func (cfg Config) shardCount() int {
	n := cfg.Shards
	if n <= 0 {
		if cfg.MaxItems > 0 || cfg.MaxBytes > 0 {
			return 1
		}
		n = defaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so key routing is a mask, not a modulo.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a Store from cfg.
func New(cfg Config) *Store {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.CoarseSystem
	}
	n := cfg.shardCount()
	// Split capacity evenly; every shard gets at least one slot so a
	// bounded sharded store can always hold something per stripe.
	perItems, perBytes := cfg.MaxItems, cfg.MaxBytes
	if n > 1 {
		if perItems > 0 {
			if perItems = cfg.MaxItems / n; perItems == 0 {
				perItems = 1
			}
		}
		if perBytes > 0 {
			if perBytes = cfg.MaxBytes / n; perBytes == 0 {
				perBytes = 1
			}
		}
	}
	s := &Store{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
		clk:    clk,
	}
	if cfg.MaxItems == 0 && cfg.MaxBytes == 0 {
		s.readMap = newLFTable()
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:  make(map[string]*list.Element),
			order:    list.New(),
			policy:   cfg.Policy,
			maxItems: perItems,
			maxBytes: perBytes,
			readMap:  s.readMap,
		}
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

// Get implements Cache.
func (s *Store) Get(key string) (Entry, bool) {
	if s.readMap != nil {
		if e := s.fastGet(key); e != nil {
			return *e, true
		}
		return Entry{}, false
	}
	now := s.clk.Now()
	return s.shardFor(key).get(key, now)
}

// fastGet is the lock-free hit path for unbounded stores: one mirror
// load, an expiry check (skipping the clock read entirely for entries
// that never expire), and an atomic counter. Expired entries divert to a
// locked removal so the authoritative structures stay in sync. It
// returns a pointer into the immutable mirror so the caller pays for a
// single Entry copy, on the hit path only.
//
//speedkit:hotpath
func (s *Store) fastGet(key string) *Entry {
	e := s.readMap.load(key)
	if e == nil {
		s.fastMisses.Add(1)
		return nil
	}
	if !e.ExpiresAt.IsZero() && !s.clk.Now().Before(e.ExpiresAt) {
		s.expireFast(key)
		s.fastMisses.Add(1)
		return nil
	}
	s.fastHits.Add(1)
	return e
}

// expireFast removes an entry a lock-free reader observed as expired. It
// re-checks under the shard lock: a racing Put may have replaced the
// entry with a fresh one, in which case nothing is removed (the reader's
// miss is still correct — it linearizes before the Put).
func (s *Store) expireFast(key string) {
	sh := s.shardFor(key)
	now := s.clk.Now()
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		se := el.Value.(*storedEntry)
		if se.entry.Expired(now) {
			sh.removeLocked(key, el)
			s.fastExpirations.Add(1)
		}
	}
	sh.mu.Unlock()
}

func (sh *shard) get(key string, now time.Time) (Entry, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		sh.stats.Misses++
		return Entry{}, false
	}
	se := el.Value.(*storedEntry)
	if se.entry.Expired(now) {
		sh.removeLocked(key, el)
		sh.stats.Expirations++
		sh.stats.Misses++
		return Entry{}, false
	}
	sh.promoteLocked(el, se)
	sh.stats.Hits++
	return se.entry, true
}

// Peek implements Cache.
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

// promoteLocked updates eviction order after a use.
func (sh *shard) promoteLocked(el *list.Element, se *storedEntry) {
	switch sh.policy {
	case LRU:
		sh.order.MoveToBack(el)
	case LFU:
		se.freq++
		sh.repositionLFULocked(el, se)
	case FIFO:
		// Insertion order is eviction order; uses don't promote.
	}
}

// repositionLFULocked bubbles el toward the back past entries with
// lower-or-equal frequency, keeping the front the least-frequently-used.
func (sh *shard) repositionLFULocked(el *list.Element, se *storedEntry) {
	for next := el.Next(); next != nil; next = el.Next() {
		if next.Value.(*storedEntry).freq > se.freq {
			break
		}
		sh.order.MoveAfter(el, next)
	}
}

// Put implements Cache.
func (s *Store) Put(e Entry) {
	if e.StoredAt.IsZero() {
		e.StoredAt = s.clk.Now()
	}
	s.shardFor(e.Key).put(e, s.clk)
}

func (sh *shard) put(e Entry, clk clock.Clock) {
	size := e.Size()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.readMap != nil {
		// Publish an immutable copy for lock-free readers. Per-key order
		// is total because every write to this key holds sh.mu.
		ec := e
		sh.readMap.store(e.Key, &ec)
	}
	if el, ok := sh.entries[e.Key]; ok {
		se := el.Value.(*storedEntry)
		sh.stats.BytesUsed += size - se.size
		se.entry = e
		se.size = size
		sh.trackExpiryLocked(se)
		sh.promoteLocked(el, se)
	} else {
		se := &storedEntry{entry: e, size: size, freq: 1, heapIdx: noHeapIdx}
		sh.trackExpiryLocked(se)
		var el *list.Element
		if sh.policy == LFU {
			// New entries start at the front and bubble past freq-1 peers
			// so ties break by recency (older same-frequency entries are
			// evicted first).
			el = sh.order.PushFront(se)
			sh.repositionLFULocked(el, se)
		} else {
			el = sh.order.PushBack(se)
		}
		sh.entries[e.Key] = el
		sh.stats.BytesUsed += size
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

// overLocked reports whether the shard exceeds either capacity limit.
func (sh *shard) overLocked() bool {
	return (sh.maxItems > 0 && len(sh.entries) > sh.maxItems) ||
		(sh.maxBytes > 0 && sh.stats.BytesUsed > sh.maxBytes)
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

// evictLocked enforces both capacity limits. Expired entries go first
// (they are free wins) and only while the shard is over; then the
// policy's victim order applies.
func (sh *shard) evictLocked(clk clock.Clock) {
	if !sh.overLocked() {
		return
	}
	now := clk.Now()
	for sh.overLocked() && sh.popExpiredLocked(now) {
	}
	for sh.overLocked() {
		el := sh.order.Front()
		if el == nil {
			return
		}
		se := el.Value.(*storedEntry)
		sh.removeLocked(se.entry.Key, el)
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
	if sh.readMap != nil {
		sh.readMap.delete(key)
	}
	sh.stats.BytesUsed -= se.size
}

// Delete implements Cache.
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

// Clear implements Cache.
func (s *Store) Clear() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.readMap != nil {
			// Delete key by key under the owning shard's lock so a clear
			// cannot erase entries a concurrent Put just published.
			for k := range sh.entries {
				sh.readMap.delete(k)
			}
		}
		sh.entries = make(map[string]*list.Element)
		sh.order.Init()
		sh.expiring.items = nil
		sh.stats.BytesUsed = 0
		sh.mu.Unlock()
	}
}

// Len implements Cache.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the number of lock stripes (for tests and reports).
func (s *Store) Shards() int { return len(s.shards) }

// Stats implements Cache. Each shard's counters are read under that
// shard's lock, so every per-shard snapshot is internally consistent and
// — because the counters are monotone — sums across successive Stats
// calls never go backwards, even with concurrent traffic.
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
		total.BytesUsed += st.BytesUsed
	}
	// Lock-free read-path counters (only non-zero for unbounded stores).
	// Atomic loads of monotone counters keep the never-backwards guarantee.
	total.Hits += s.fastHits.Load()
	total.Misses += s.fastMisses.Load()
	total.Expirations += s.fastExpirations.Load()
	return total
}

// Sweep removes all expired entries eagerly and returns the count reaped.
func (s *Store) Sweep() int {
	now := s.clk.Now()
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for sh.popExpiredLocked(now) {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// Keys returns the keys of live (unexpired) entries in eviction order,
// front (next victim) first, shard by shard. For single-shard stores this
// is the exact global eviction order. For unbounded stores — where
// eviction cannot fire and Gets take the lock-free path — the order is
// insertion order. Primarily for tests and debugging.
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

var _ Cache = (*Store)(nil)

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
