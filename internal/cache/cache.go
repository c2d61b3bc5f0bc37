// Package cache implements the expiration-based cache tiers of the Speed
// Kit architecture: the browser HTTP cache, the service-worker cache
// managed by the client proxy, and the building block used by each CDN
// edge. All tiers share the same semantics — entries carry an absolute
// expiration derived from their TTL, expired entries are treated as
// absent, and capacity pressure evicts according to a pluggable policy
// (LRU by default, with LFU and FIFO available for the ablation benches).
package cache

import (
	"time"
)

// Entry is one cached representation of a resource.
type Entry struct {
	// Key identifies the resource (a URL path or a query ID).
	Key string
	// Body is the cached payload.
	Body []byte
	// Version is the resource version this representation was rendered
	// from; the coherence protocol compares it against the origin version
	// to measure staleness.
	Version uint64
	// StoredAt is when the entry entered this cache.
	StoredAt time.Time
	// ExpiresAt is the absolute expiration instant; a cached copy may be
	// served without revalidation until then.
	ExpiresAt time.Time
	// Metadata carries small string annotations (content type, segment
	// markers for dynamic blocks).
	Metadata map[string]string
	// Epoch is the sketch epoch whose expiration table knows this copy:
	// the epoch of the tier that served it, 0 when that tier stated none
	// (cachesketch.PageEpoch).
	Epoch uint64
}

// Expired reports whether the entry is past its expiration at time now.
func (e *Entry) Expired(now time.Time) bool {
	return !e.ExpiresAt.IsZero() && !now.Before(e.ExpiresAt)
}

// FreshFor returns the remaining freshness lifetime at now (zero if
// expired or never-expiring).
func (e *Entry) FreshFor(now time.Time) time.Duration {
	if e.ExpiresAt.IsZero() {
		return 0
	}
	d := e.ExpiresAt.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// Size returns the entry's accounting size in bytes: body plus a fixed
// overhead per entry plus key/metadata bytes. Using a stable formula keeps
// byte-capacity benchmarks reproducible.
func (e *Entry) Size() int {
	n := len(e.Body) + len(e.Key) + 64
	for k, v := range e.Metadata {
		n += len(k) + len(v)
	}
	return n
}

// Stats counts cache activity. Hit/miss classification: an expired entry
// found in the store counts as a miss and an expiration, not a hit.
type Stats struct {
	Hits, Misses, Puts, Evictions, Expirations, Invalidations uint64
	// BytesUsed is the current accounted size of live entries.
	BytesUsed int
}

// HitRatio returns hits/(hits+misses), or 0 when empty.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is an expiration-based cache tier.
type Cache interface {
	// Get returns the entry stored under key if present and unexpired.
	Get(key string) (Entry, bool)
	// Peek is Get without promoting the entry in the eviction order and
	// without recording hit/miss stats; used by coherence inspection.
	Peek(key string) (Entry, bool)
	// Put stores an entry, evicting as needed.
	Put(e Entry)
	// Delete removes the entry under key, reporting whether it existed.
	// Deletions are counted as invalidations.
	Delete(key string) bool
	// Clear drops everything.
	Clear()
	// Len returns the number of stored entries, including not-yet-reaped
	// expired ones.
	Len() int
	// Stats returns a copy of the counters.
	Stats() Stats
}

// Policy selects the eviction policy for New.
type Policy int

// Supported eviction policies.
const (
	// LRU evicts the least recently used entry. This is the default and
	// matches browser and CDN behaviour most closely.
	LRU Policy = iota
	// LFU evicts the least frequently used entry (ties broken by
	// recency). Used by the ablation benches.
	LFU
	// FIFO evicts the oldest-inserted entry regardless of use.
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case FIFO:
		return "fifo"
	}
	return "unknown"
}
