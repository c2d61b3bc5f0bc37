package cachesketch

import (
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

// Client is the device-side half of the protocol: it holds the most
// recently fetched sketch snapshot and enforces the Δ refresh discipline.
// The client proxy consults it before serving anything from a local
// cache. Safe for concurrent use.
//
// The held snapshot lives behind an atomic pointer and the counters are
// atomics, so the per-request Check path — the sketch probe that gates
// every cached read — takes no lock and allocates nothing. Install and
// Note serialize on installMu, so an install sees every note taken before
// it and the held sketch never regresses (see Supersedes).
type Client struct {
	clk   clock.Clock
	delta time.Duration
	snap  atomic.Pointer[Snapshot]
	// epochSince is when the held snapshot's epoch replaced another (nil
	// until one has): see EpochSince.
	epochSince atomic.Pointer[time.Time]

	installMu sync.Mutex
	// notes sums up the epochs of the copies stored since the last Install
	// (see Note). Guarded by installMu.
	notes epochNotes

	refreshes   atomic.Uint64
	staleHits   atomic.Uint64
	freshPasses atomic.Uint64
}

// epochNotes is what Install needs of a set of noted epochs: whether it is
// empty, and whether it is one epoch and which.
type epochNotes struct {
	// n counts the noted copies, up to two: two mean at least two epochs.
	n     uint8
	epoch uint64
}

// add notes one copy's epoch.
func (en *epochNotes) add(e uint64) {
	switch {
	case en.n == 0:
		en.n, en.epoch = 1, e
	case en.epoch != e:
		en.n = 2
	}
}

// other reports whether a noted epoch differs from e.
func (en epochNotes) other(e uint64) bool {
	return en.n == 2 || en.n == 1 && en.epoch != e
}

// ClientStats counts client-side protocol decisions.
type ClientStats struct {
	// Refreshes counts installed sketch fetches.
	Refreshes uint64
	// StaleHits counts lookups where the sketch flagged the key.
	StaleHits uint64
	// FreshPasses counts lookups where the sketch cleared the key.
	FreshPasses uint64
}

// NewClient creates a client enforcing the given Δ. A zero or negative
// delta means Δ is the max-age the held snapshot came with (MaxAge): a
// holder that learns Δ from the sketch response, as an edge does, trusts
// each copy for as long as its sender said. A snapshot that stated no
// max-age then vouches for nothing.
func NewClient(clk clock.Clock, delta time.Duration) *Client {
	if clk == nil {
		clk = clock.CoarseSystem
	}
	return &Client{clk: clk, delta: max(delta, 0)}
}

// Delta returns how long the client trusts its held snapshot: the Δ it
// was built with, or the snapshot's MaxAge where that is shorter or the
// client was built without one (zero while it holds none).
func (c *Client) Delta() time.Duration { return c.trust(c.snap.Load()) }

// trust is how long the client trusts sn from its TakenAt. A max-age is
// the sender's word on how long sn may be trusted — a cluster's merged
// sketch states Δ less the merge's lag — so the client never trusts sn
// longer than it says, whatever the client's own Δ.
func (c *Client) trust(sn *Snapshot) time.Duration {
	if sn == nil {
		return c.delta
	}
	if c.delta == 0 || sn.MaxAge > 0 && sn.MaxAge < c.delta {
		return sn.MaxAge
	}
	return c.delta
}

// NeedsRefresh reports whether the held snapshot is missing or older than
// Δ. While this is true the client MUST NOT serve cached content based on
// the sketch — doing so would void the Δ-atomicity bound.
func (c *Client) NeedsRefresh() bool {
	return c.stale(c.snap.Load(), c.clk.Now())
}

func (c *Client) stale(sn *Snapshot, now time.Time) bool {
	return sn == nil || now.Sub(sn.TakenAt) >= c.trust(sn)
}

// Supersedes reports whether sn replaces cur as the snapshot a holder
// keeps. Within one epoch a higher generation wins, and within one
// generation the later TakenAt. A snapshot of another epoch always wins:
// epochs are identities, not an order, and the generations of two
// incarnations say nothing about each other. A straggler from a dead
// incarnation then costs its holder one revalidation pass (EpochSince),
// never a stale read. Anything supersedes no snapshot at all.
func (sn *Snapshot) Supersedes(cur *Snapshot) bool {
	return cur == nil || sn.Epoch != cur.Epoch || sn.Generation > cur.Generation ||
		(sn.Generation == cur.Generation && sn.TakenAt.After(cur.TakenAt))
}

// Install stores a freshly fetched snapshot unless the one held is newer
// (see Supersedes): out-of-order fetches can happen with concurrent
// refreshes. It moves EpochSince to now when sn's epoch differs from the
// held snapshot's or from that of any copy noted since the last Install.
//
// It reports whether the epoch state changed: the mark moved, or sn is the
// first epoch held and no noted copy named one. A holder that journals
// (epoch, EpochSince) writes it again exactly then.
func (c *Client) Install(sn *Snapshot) bool {
	if sn == nil {
		return false
	}
	c.installMu.Lock()
	defer c.installMu.Unlock()
	cur := c.snap.Load()
	if !sn.Supersedes(cur) {
		return false
	}
	marked := cur != nil && cur.Epoch != sn.Epoch || c.notes.other(sn.Epoch)
	if marked {
		// Marked before the store, so whoever sees sn sees the mark.
		now := c.clk.Now()
		c.epochSince.Store(&now)
	}
	changed := marked || cur == nil && c.notes.n == 0
	c.notes = epochNotes{}
	c.snap.Store(sn)
	c.refreshes.Add(1)
	return changed
}

// Resume seeds a client that holds no snapshot yet with the epoch state a
// previous incarnation of its holder journaled: the epoch its copies were
// stored under, and when that epoch last replaced another (the zero time:
// never). The recovered copies count as noted in that epoch, so a first
// Install of the same epoch keeps them warm and keeps the mark, and one of
// another epoch moves the mark and has each revalidated once.
func (c *Client) Resume(epoch uint64, since time.Time) {
	c.installMu.Lock()
	defer c.installMu.Unlock()
	c.notes = epochNotes{n: 1, epoch: epoch}
	if !since.IsZero() {
		c.epochSince.Store(&since)
	}
}

// Note records the epoch of a copy the device has just stored: the one
// its answer stated, 0 for none (see PageEpoch). A copy stored while no
// sketch vouched for it is known only to that epoch's expiration table,
// so the next Install trusts it only if the epoch is its own; any other
// epoch, or none, makes that Install move EpochSince and the copy is
// revalidated once. Every stored copy is noted, under a sketch or not: a
// copy an older incarnation served past a newer sketch is no better.
func (c *Client) Note(epoch uint64) {
	c.installMu.Lock()
	c.notes.add(epoch)
	c.installMu.Unlock()
}

// EpochSince returns when the held snapshot's epoch replaced another one,
// or the zero time if the client has held one epoch only. A copy stored
// before that instant was vouched for by another incarnation's sketch,
// whose flags the held one does not carry: it must be revalidated once
// before a sketch can vouch for it again. The first epoch sets a mark only
// if a copy stored before it stated another (see Note): a client that held
// no sketch had no epoch to lose but the ones its copies came with.
func (c *Client) EpochSince() time.Time {
	if t := c.epochSince.Load(); t != nil {
		return *t
	}
	return time.Time{}
}

// Snapshot returns the held snapshot, nil while none is.
func (c *Client) Snapshot() *Snapshot { return c.snap.Load() }

// Generation returns the generation of the held snapshot (0 if none is
// held). Like Check, it is one atomic load — cheap enough for
// per-request trace stamping.
func (c *Client) Generation() uint64 {
	sn := c.snap.Load()
	if sn == nil {
		return 0
	}
	return sn.Generation
}

// Age returns how old the held snapshot is (Δ+1s if none is held, i.e.
// definitely stale). It is the snapshot's age, not the Δ budget a load
// spent: a load that consulted no sketch spent none.
func (c *Client) Age() time.Duration {
	sn := c.snap.Load()
	if sn == nil {
		return c.Delta() + time.Second
	}
	return c.clk.Now().Sub(sn.TakenAt)
}

// Decision is the outcome of a client-side coherence check.
type Decision int

// Possible coherence decisions.
const (
	// ServeFromCache: the sketch is fresh and clears the key; any cached
	// copy is coherent within Δ.
	ServeFromCache Decision = iota
	// Revalidate: the sketch flags the key (or a cached copy should be
	// bypassed); fetch an up-to-date representation.
	Revalidate
	// RefreshSketch: no sketch is held, or the held one is Δ old; it must
	// be refreshed before cached content may be used.
	RefreshSketch
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case ServeFromCache:
		return "serve-from-cache"
	case Revalidate:
		return "revalidate"
	case RefreshSketch:
		return "refresh-sketch"
	}
	return "unknown"
}

// Check runs the client-side coherence protocol for one key. It is
// lock-free and allocation-free: one atomic snapshot load, one clock
// read, and an inline Bloom probe.
func (c *Client) Check(key string) Decision {
	sn := c.snap.Load()
	if c.stale(sn, c.clk.Now()) {
		return RefreshSketch
	}
	if sn.MightBeStale(key) {
		c.staleHits.Add(1)
		return Revalidate
	}
	c.freshPasses.Add(1)
	return ServeFromCache
}

// CheckBatch runs the coherence protocol for every key against one
// consistent snapshot, writing Check(keys[i]) into out[i] (out must be at
// least as long as keys). One atomic load and one clock read cover the
// whole batch — the fan-out path for callers deciding a page's worth of
// subresources at once — and the Bloom probes go through the filter's
// batched path. If the held snapshot is stale every verdict is
// RefreshSketch, exactly as per-key Check would answer.
func (c *Client) CheckBatch(keys []string, out []Decision) {
	sn := c.snap.Load()
	if c.stale(sn, c.clk.Now()) {
		for i := range keys {
			out[i] = RefreshSketch
		}
		return
	}
	var hits [bloom.BatchSize]bool
	stale, fresh := uint64(0), uint64(0)
	for off := 0; off < len(keys); off += bloom.BatchSize {
		end := off + bloom.BatchSize
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		sn.Filter.ContainsBatch(chunk, hits[:len(chunk)])
		for i := range chunk {
			if hits[i] {
				out[off+i] = Revalidate
				stale++
			} else {
				out[off+i] = ServeFromCache
				fresh++
			}
		}
	}
	if stale > 0 {
		c.staleHits.Add(stale)
	}
	if fresh > 0 {
		c.freshPasses.Add(fresh)
	}
}

// Stats returns a copy of the client counters. Each counter is read
// atomically; the triple is not a single consistent cut, which is fine
// for the monotone monitoring counters it feeds.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Refreshes:   c.refreshes.Load(),
		StaleHits:   c.staleHits.Load(),
		FreshPasses: c.freshPasses.Load(),
	}
}
