// Package invalidb implements the real-time query invalidation engine —
// the server-side component that turns raw database change events into
// "this cached page is now stale" signals. It reproduces the semantics of
// the production system's stream-processing matcher: every change event
// is matched against the registered continuous queries of its collection;
// a query is invalidated when the change can alter its result set (the
// document entered it, left it, or changed while inside it).
//
// Matching does not scan the registrations. Each collection has a
// predicate index (index.go) filing every query under one necessary leg
// of its filter — an equality posting, a numeric interval, or the
// residual list when it has neither — and an event evaluates only the
// queries its before or after image can reach. Queries registered
// without a collection (cross-collection predicates) live in one more
// index of the same type that every event consults.
package invalidb

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// MatchKind classifies how a change affects a query result.
type MatchKind int

// Match kinds.
const (
	// Entered: the document now matches a query it didn't match before.
	Entered MatchKind = iota
	// Left: the document no longer matches.
	Left
	// Changed: the document matched before and after, but its content
	// changed (ordering or displayed fields may differ).
	Changed
)

// String names the match kind.
func (k MatchKind) String() string {
	switch k {
	case Entered:
		return "entered"
	case Left:
		return "left"
	case Changed:
		return "changed"
	}
	return "unknown"
}

// Invalidation is one staleness signal.
type Invalidation struct {
	// RegistrationID identifies the affected cached resource (typically
	// the listing page path or the query ID).
	RegistrationID string
	// Kind says how the result set was affected.
	Kind MatchKind
	// Change is the underlying database event.
	Change storage.ChangeEvent
	// DetectedAt is when the engine classified the event.
	DetectedAt time.Time
}

// Config parameterizes the engine.
type Config struct {
	// Clock supplies detection timestamps (default system clock).
	Clock clock.Clock
}

// Stats counts engine activity.
type Stats struct {
	EventsProcessed uint64
	Matches         uint64
	Registered      int
}

// registration is one continuous query. The engine holds each once;
// the index's postings point at it.
type registration struct {
	id string
	q  query.Query
}

// subscriber is one OnInvalidation call; its address is its identity.
type subscriber struct{ fn func(Invalidation) }

// Engine matches change events against registered queries. Safe for
// concurrent use.
type Engine struct {
	clock   clock.Clock
	events  atomic.Uint64
	matches atomic.Uint64
	// matcher is the index over regs, immutable once published and read
	// by Process without a lock. A registration change clears it; the
	// next Process builds it again from regs, so a burst of
	// registrations costs one build.
	matcher atomic.Pointer[matcher]
	// subs is copy-on-write, in subscription order.
	subs atomic.Pointer[[]*subscriber]

	mu   sync.Mutex               // also serializes the writers of matcher and subs
	regs map[string]*registration // guarded by mu
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	return &Engine{clock: cfg.Clock, regs: make(map[string]*registration)}
}

// Register adds (or replaces) a continuous query under id. A query with
// an empty Collection is a cross-collection predicate: it is matched
// against events of every collection (by filter alone).
func (e *Engine) Register(id string, q query.Query) {
	e.mu.Lock()
	e.regs[id] = &registration{id: id, q: q}
	e.matcher.Store(nil)
	e.mu.Unlock()
}

// Unregister removes the query under id, reporting whether it existed.
func (e *Engine) Unregister(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.regs[id]; !ok {
		return false
	}
	delete(e.regs, id)
	e.matcher.Store(nil)
	return true
}

// Registered returns the number of registered queries.
func (e *Engine) Registered() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.regs)
}

// OnInvalidation subscribes fn to invalidation signals. Signals for one
// event are delivered sorted by registration ID, synchronously from
// Process. The returned cancel function unsubscribes.
func (e *Engine) OnInvalidation(fn func(Invalidation)) (cancel func()) {
	sub := &subscriber{fn: fn}
	e.mu.Lock()
	e.setSubs(append(slices.Clone(e.loadSubs()), sub))
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		e.setSubs(slices.DeleteFunc(slices.Clone(e.loadSubs()),
			func(s *subscriber) bool { return s == sub }))
		e.mu.Unlock()
	}
}

func (e *Engine) loadSubs() []*subscriber {
	if p := e.subs.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *Engine) setSubs(subs []*subscriber) { e.subs.Store(&subs) }

// currentMatcher returns the index over the current registrations,
// building it if a registration changed since the last build.
func (e *Engine) currentMatcher() *matcher {
	if m := e.matcher.Load(); m != nil {
		return m
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.matcher.Load()
	if m == nil {
		m = buildMatcher(e.regs)
		e.matcher.Store(m)
	}
	return m
}

// classifyImages decides whether a change affects a query and how, by
// the query's filter alone: the index has already selected by collection.
// An absent before/after image means the document did not exist on that
// side, so a zero image never matches (distinct from an empty document).
func classifyImages(q query.Query, ev storage.ChangeEvent) (MatchKind, bool) {
	before := !ev.Before.IsZero() && q.Match(ev.Before)
	after := !ev.After.IsZero() && q.Match(ev.After)
	switch {
	case before && after:
		return Changed, true
	case before:
		return Left, true
	case after:
		return Entered, true
	default:
		return 0, false
	}
}

// hit is one match: a registration and how it was affected.
type hit struct {
	reg  *registration
	kind MatchKind
}

// Process matches one change event against the registered queries and
// delivers invalidation signals to subscribers. Returns the signals for
// callers that prefer pull-style use.
//
// Only the index of the event's collection and the cross-collection
// index are consulted, and in them only the queries the event's images
// can reach; an event that invalidates nothing allocates nothing and
// takes no lock.
func (e *Engine) Process(ev storage.ChangeEvent) []Invalidation {
	now := e.clock.Now()
	m := e.currentMatcher()

	// Hits beyond the stack buffer are rare and cost the event a second
	// pass, in place of a heap buffer for every event.
	var buf [32]hit
	hits := buf[:]
	n := m.matchInto(&ev, hits)
	if n > len(hits) {
		hits = make([]hit, n)
		m.matchInto(&ev, hits)
	}
	hits = hits[:n]
	slices.SortFunc(hits, func(a, b hit) int { return strings.Compare(a.reg.id, b.reg.id) })

	e.events.Add(1)
	if len(hits) == 0 {
		return nil
	}
	e.matches.Add(uint64(len(hits)))
	out := make([]Invalidation, len(hits))
	for i, h := range hits {
		out[i] = Invalidation{
			RegistrationID: h.reg.id,
			Kind:           h.kind,
			Change:         ev,
			DetectedAt:     now,
		}
	}
	subs := e.loadSubs()
	for _, inv := range out {
		for _, s := range subs {
			s.fn(inv)
		}
	}
	return out
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsProcessed: e.events.Load(),
		Matches:         e.matches.Load(),
		Registered:      e.Registered(),
	}
}
