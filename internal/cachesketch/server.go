// Package cachesketch implements Speed Kit's custom cache coherence
// protocol — the paper's primary contribution. The protocol lets
// expiration-based caches (browser caches, service-worker caches, CDN
// edges) serve personalized-era content without unbounded staleness:
//
//   - The server maintains a counting Bloom filter of resource IDs that
//     were written while a cached copy with an unexpired TTL might still
//     exist anywhere. An ID enters the sketch on such a write and leaves
//     when the last possibly-live copy's TTL has passed.
//   - Clients periodically (every Δ at most) fetch a flattened, compact
//     Bloom filter of that set. Before using any locally cached entry, a
//     client checks the sketch: a hit forces a revalidation, a miss
//     permits serving from cache.
//
// Guarantee (Δ-atomicity): every read returns a value that was current at
// some instant within the last Δ. Bloom false positives only cause
// spurious revalidations — they can never cause staleness — so the bound
// holds regardless of filter sizing; sizing only tunes the revalidation
// overhead.
package cachesketch

import (
	"container/heap"
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

// ServerConfig sizes the server-side sketch.
type ServerConfig struct {
	// Capacity is the expected number of simultaneously stale-tracked
	// resources (default 10000).
	Capacity uint64
	// FalsePositiveRate targets the flattened sketch's FPR at capacity
	// (default 0.05, the value that balances sketch bytes against
	// spurious revalidations in the paper family's deployments).
	FalsePositiveRate float64
	// Clock supplies time (default system clock).
	Clock clock.Clock
	// Journal, when non-nil, receives every state-changing coherence
	// event for write-ahead logging. See the Journal contract in state.go.
	Journal Journal
}

func (c *ServerConfig) applyDefaults() {
	if c.Capacity == 0 {
		c.Capacity = 10000
	}
	if c.FalsePositiveRate <= 0 || c.FalsePositiveRate >= 1 {
		c.FalsePositiveRate = 0.05
	}
	if c.Clock == nil {
		c.Clock = clock.CoarseSystem
	}
}

// ServerStats counts protocol activity.
type ServerStats struct {
	// Adds is how many IDs entered the sketch.
	Adds uint64
	// Removes is how many IDs left after their last copy expired.
	Removes uint64
	// Extends is how many writes extended an ID already in the sketch.
	Extends uint64
	// WritesUncached counts writes to resources with no live cached copy
	// (no sketch entry needed).
	WritesUncached uint64
	// Snapshots is how many client sketches were served.
	Snapshots uint64
	// Flattens is how many times a snapshot actually flattened the
	// counting filter. Snapshots taken while the sketch's generation is
	// unchanged reuse the previously flattened filter, so under steady
	// read load Flattens stays far below Snapshots.
	Flattens uint64
	// Tracked is the current number of IDs in the sketch.
	Tracked int
	// TableSize is the current size of the expiration table.
	TableSize int
}

// Server is the origin-side half of the protocol. Safe for concurrent use.
type Server struct {
	mu  sync.Mutex
	cfg ServerConfig

	counting *bloom.Counting // guarded by mu
	// expiry is the expiration table: resource ID → the latest expiration
	// instant of any cached copy reported so far.
	expiry map[string]time.Time // guarded by mu
	// inSketch maps IDs currently in the sketch to their scheduled
	// removal instant.
	inSketch map[string]time.Time // guarded by mu
	// removals orders pending sketch removals and expiry-table cleanups.
	removals expiryHeap // guarded by mu

	// generation versions the counting filter's *contents*: it advances
	// whenever a key enters or leaves the sketch, and only then. Two
	// snapshots with equal generations (and epochs) are interchangeable.
	generation uint64 // guarded by mu
	// epoch names this incarnation's generation sequence (see
	// Snapshot.Epoch) with its header value, formatted once so that no
	// snapshot or page answer formats it again. Written under mu, read
	// without it.
	epoch atomic.Pointer[epochName]
	// journaledGen is the highest generation already reported through
	// Journal.JournalGeneration — only generations actually exposed to
	// clients via Snapshot matter for recovery's monotonicity floor.
	journaledGen uint64      // guarded by mu
	stats        ServerStats // guarded by mu

	// flat caches the most recent flatten of the counting filter, keyed
	// by generation. While the generation is unchanged, Snapshot() reuses
	// it — a pointer load instead of an O(m) projection — and every
	// snapshot of that generation marshals to the same wire bytes.
	flat atomic.Pointer[flatCache]

	// Crash-recovery cold-start mode (see ColdStart in state.go).
	coldUntil  time.Time     // guarded by mu; saturated-snapshot window end
	blindUntil time.Time     // guarded by mu; conservative write-tracking window end
	coldFilter *bloom.Filter // guarded by mu; the saturated sketch served while cold
}

// flatCache pairs a flattened client filter with the generation it was
// projected from, and with that filter's wire encoding once a snapshot of
// the generation has been marshaled.
type flatCache struct {
	gen    uint64
	filter *bloom.Filter

	// wire is the encoding devices download — filter compacted to what it
	// tracks (bloom.Filter.Compact), then marshaled — built by the first
	// Marshal and shared read-only by every later one. A snapshot decoded
	// off the wire arrives with it filled: the bytes it came as.
	wireOnce sync.Once
	wire     []byte
	wireErr  error
}

// encode is what wire holds for f.
func encode(f *bloom.Filter) ([]byte, error) { return f.Compact().MarshalBinary() }

// NewServer creates a protocol server under a freshly drawn epoch.
func NewServer(cfg ServerConfig) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:      cfg,
		counting: bloom.NewCounting(bloom.CompactableParams(cfg.Capacity, cfg.FalsePositiveRate)),
		expiry:   make(map[string]time.Time),
		inSketch: make(map[string]time.Time),
	}
	s.setEpochLocked(NewEpoch()) // s is not shared yet
	return s
}

// NewEpoch draws a random epoch. Epochs are identities: a holder only ever
// asks whether two are equal. They come from crypto/rand, never from the
// clock, so two starts under one simulated clock still differ. Zero is
// never drawn: it is the epoch of an answer that states none.
func NewEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("cachesketch: no randomness for an epoch: " + err.Error())
		}
		if e := binary.BigEndian.Uint64(b[:]); e != 0 {
			return e
		}
	}
}

// epochName is an epoch with its EpochHeader value.
type epochName struct {
	id   uint64
	wire []string
}

// setEpochLocked switches the server to epoch e. Caller holds mu.
func (s *Server) setEpochLocked(e uint64) {
	s.epoch.Store(&epochName{id: e, wire: epochValue(e)})
}

// Epoch returns the epoch the server's snapshots carry.
func (s *Server) Epoch() uint64 { return s.epoch.Load().id }

// EpochValue returns the EpochHeader value of Epoch, formatted once per
// epoch and shared: callers set it on a header as it is and never modify
// it. Like Epoch it takes no lock, so every page answer can state it.
func (s *Server) EpochValue() []string { return s.epoch.Load().wire }

// SetEpoch makes the server continue epoch e: recovery calls it after a
// clean shutdown, whose generations the restored floor still orders.
func (s *Server) SetEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setEpochLocked(e)
}

// expiryHeap is a min-heap of (when, key, kind) events.
type expiryEvent struct {
	when time.Time
	key  string
	kind eventKind
}

type eventKind int

const (
	evictSketch eventKind = iota
	cleanTable
)

type expiryHeap []expiryEvent

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].when.Before(h[j].when) }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiryEvent)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// advanceLocked processes all due removal/cleanup events and retires the
// cold-start window once it has fully elapsed.
func (s *Server) advanceLocked(now time.Time) {
	if s.coldFilter != nil && !s.coldUntil.After(now) {
		// Cold window over: resume serving the real (rebuilt) sketch. The
		// generation bump invalidates any snapshot of the saturated filter.
		s.coldFilter = nil
		s.generation++
	}
	for len(s.removals) > 0 && !s.removals[0].when.After(now) {
		ev := heap.Pop(&s.removals).(expiryEvent)
		switch ev.kind {
		case evictSketch:
			until, ok := s.inSketch[ev.key]
			// The scheduled removal may be stale if a later write
			// extended the ID's residency; only act on the final one.
			if ok && !until.After(ev.when) {
				s.counting.Remove(ev.key)
				delete(s.inSketch, ev.key)
				s.generation++
				s.stats.Removes++
			}
		case cleanTable:
			exp, ok := s.expiry[ev.key]
			if ok && !exp.After(ev.when) {
				delete(s.expiry, ev.key)
			}
		}
	}
}

// ReportCachedRead records that a cache somewhere now holds a copy of the
// resource expiring at expiresAt. Every cache fill (browser, service
// worker, CDN edge) must be reported — the expiration table is what lets
// the server know whether a later write can possibly be hidden by a
// cached copy. Reports with past expirations are ignored.
func (s *Server) ReportCachedRead(key string, expiresAt time.Time) {
	now := s.cfg.Clock.Now()
	if !expiresAt.After(now) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	if cur, ok := s.expiry[key]; !ok || expiresAt.After(cur) {
		s.expiry[key] = expiresAt
		heap.Push(&s.removals, expiryEvent{when: expiresAt, key: key, kind: cleanTable})
		if s.cfg.Journal != nil {
			s.cfg.Journal.JournalCachedRead(key, expiresAt)
		}
	}
}

// ReportWrite records a write to the resource. If any reported cached
// copy may still be live, the resource ID enters the sketch (or has its
// residency extended) until that copy's expiration — after which every
// cache has organically dropped the stale version and the ID can leave.
// Reports whether the ID is now tracked in the sketch.
func (s *Server) ReportWrite(key string) bool {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	return s.reportWriteLocked(key, now)
}

// ReportWrites records a batch of writes in one critical section: one
// clock read, one lock acquisition, and one pass over due removals cover
// the whole batch. Journal replay uses it to apply runs of consecutive
// write records without paying per-key lock traffic. The resulting state
// is identical to calling ReportWrite for each key in order (all keys are
// reported at the same instant, which per-key calls under an unmoving
// clock also produce). Returns how many of the keys are now tracked.
func (s *Server) ReportWrites(keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	tracked := 0
	for _, key := range keys {
		if s.reportWriteLocked(key, now) {
			tracked++
		}
	}
	return tracked
}

// reportWriteLocked applies one write report at instant now. Caller holds
// mu and has already run advanceLocked(now).
func (s *Server) reportWriteLocked(key string, now time.Time) bool {
	until, live := s.expiry[key]
	if !live || !until.After(now) {
		// Inside the post-crash blind window the expiration table cannot
		// be trusted to know about pre-crash cache fills whose reports
		// died with the log, so an "uncached" write is still tracked, with
		// residency covering the longest such copy could survive.
		if s.blindUntil.After(now) {
			until, live = s.blindUntil, true
		} else {
			s.stats.WritesUncached++
			return false
		}
	}
	if cur, in := s.inSketch[key]; in {
		if until.After(cur) {
			s.inSketch[key] = until
			heap.Push(&s.removals, expiryEvent{when: until, key: key, kind: evictSketch})
		}
		s.stats.Extends++
		if s.cfg.Journal != nil {
			s.cfg.Journal.JournalWrite(key)
		}
		return true
	}
	s.counting.Add(key)
	s.inSketch[key] = until
	s.generation++
	heap.Push(&s.removals, expiryEvent{when: until, key: key, kind: evictSketch})
	s.stats.Adds++
	if s.cfg.Journal != nil {
		s.cfg.Journal.JournalWrite(key)
	}
	return true
}

// Contains reports whether the resource is currently tracked as
// potentially stale. Used for server-side revalidation decisions and
// tests; clients use their own Snapshot.
func (s *Server) Contains(key string) bool {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	_, ok := s.inSketch[key]
	return ok
}

// Snapshot returns the compact client sketch for the counting filter's
// current state. The snapshot is immutable and safe to share across
// clients. The O(m) flatten is generation-cached: it runs only when the
// sketch's contents changed since the previous snapshot; otherwise the
// cached filter is reused and the call is a pointer load plus a fresh
// TakenAt stamp — sound because an unchanged generation means no key
// entered or left the sketch, so the old projection still describes the
// state at `now` exactly.
func (s *Server) Snapshot() *Snapshot {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	s.stats.Snapshots++
	if s.cfg.Journal != nil && s.generation > s.journaledGen {
		s.journaledGen = s.generation
		s.cfg.Journal.JournalGeneration(s.generation)
	}
	return s.snapshotLocked(now)
}

// snapshotLocked builds the snapshot of the state at now. Caller holds mu
// and has already run advanceLocked(now).
func (s *Server) snapshotLocked(now time.Time) *Snapshot {
	ep := s.epoch.Load()
	if s.coldFilter != nil {
		// Cold-start window: serve the saturated all-stale sketch so every
		// client revalidates. Not flat-cached — the window retires itself.
		return &Snapshot{Filter: s.coldFilter, Generation: s.generation, Epoch: ep.id, TakenAt: now, epochWire: ep.wire}
	}
	fc := s.flat.Load()
	if fc == nil || fc.gen != s.generation {
		fc = &flatCache{gen: s.generation, filter: s.counting.Flatten()}
		s.flat.Store(fc)
		s.stats.Flattens++
	}
	return &Snapshot{
		Filter:     fc.filter,
		Generation: fc.gen,
		Epoch:      ep.id,
		TakenAt:    now,
		flat:       fc,
		epochWire:  ep.wire,
	}
}

// Generation returns the current sketch-content generation: it advances
// exactly when a key enters or leaves the sketch. Monitoring reads it to
// tell whether the coherence state moved between two observations.
func (s *Server) Generation() uint64 {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	return s.generation
}

// Stats returns a copy of the counters plus current sizes.
func (s *Server) Stats() ServerStats {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)
	st := s.stats
	st.Tracked = len(s.inSketch)
	st.TableSize = len(s.expiry)
	return st
}

// SketchBytes returns the length of the current generation's wire
// encoding: what a device asking now would download. It follows the
// tracked count, not the configured capacity (see Snapshot.Marshal).
func (s *Server) SketchBytes() int {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	s.advanceLocked(now)
	sn := s.snapshotLocked(now)
	s.mu.Unlock()
	data, _ := sn.Marshal() // a filter always encodes
	return len(data)
}

// Snapshot is one generation of the client-facing sketch.
type Snapshot struct {
	Filter     *bloom.Filter
	Generation uint64
	// Epoch names the server incarnation whose generation sequence
	// Generation counts in: a random value drawn when that incarnation
	// started. Generations of two epochs say nothing about each other
	// (see Supersedes).
	Epoch uint64
	// TakenAt is an instant, on the holder's clock, no later than the one
	// at which the server took the snapshot (see ReadHTTP).
	TakenAt time.Time
	// MaxAge is the max-age a snapshot read off the wire came with: how
	// long after TakenAt its holder may hand it on. Zero when the response
	// stated none, and for a snapshot taken locally.
	MaxAge time.Duration

	// flat is the cache entry that holds Filter's wire encoding: the
	// server's for the generation, or the received body of a snapshot
	// decoded off the wire. Nil for one built anywhere else (merged).
	flat *flatCache
	// epochWire is Epoch's header value, read-only: the server's, formatted
	// once per epoch, or the one a snapshot read off the wire arrived with.
	// Nil for one built anywhere else, which WriteHTTP formats per call.
	epochWire []string
}

// MightBeStale reports whether the key hits the sketch. True means "a
// cached copy of this resource could be stale — revalidate"; false means
// every cached copy is provably coherent up to the snapshot time.
//
//speedkit:hotpath
func (sn *Snapshot) MightBeStale(key string) bool {
	return sn.Filter.Contains(key)
}

// Marshal encodes the snapshot for devices: the filter compacted to what
// it tracks (bloom.Filter.Compact), so an idle sketch is 21 bytes whatever
// capacity the server was sized for. Snapshots a Server took within one
// generation share a single encoding, built by the first call, and a
// snapshot decoded off the wire returns the body it arrived as: the
// returned bytes are read-only. Code that unions filters ships
// Filter.MarshalBinary instead (cluster.Node.Delta).
func (sn *Snapshot) Marshal() ([]byte, error) {
	if fc := sn.flat; fc != nil && fc.filter == sn.Filter {
		fc.wireOnce.Do(func() { fc.wire, fc.wireErr = encode(fc.filter) })
		return fc.wire, fc.wireErr
	}
	return encode(sn.Filter)
}
