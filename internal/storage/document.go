// Package storage is the document store: the system of record the origin
// renders from, with secondary equality indexes and the synchronous change
// stream the invalidation pipeline hangs off. It is embedded, deterministic
// and driven by an injectable clock. The other roles the paper family
// gives a polyglot backend are played elsewhere, each by a bounded
// structure in its own package: the expiring counting filter of
// cachesketch.Server (Redis, there) and the EWMAs of ttl.Estimator (a
// time-series database, there). DESIGN.md, "Long-lived state".
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
)

// ChangeKind classifies a document-store mutation.
type ChangeKind int

// Change kinds emitted on the change stream.
const (
	ChangeInsert ChangeKind = iota
	ChangeUpdate
	ChangeDelete
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	}
	return fmt.Sprintf("ChangeKind(%d)", int(k))
}

// ChangeEvent describes one mutation, carrying both the before- and
// after-image so the invalidation engine can evaluate predicates against
// each side (a query result changes iff exactly one image matches).
type ChangeEvent struct {
	Collection string
	ID         string
	Kind       ChangeKind
	Before     query.Doc // zero for inserts
	After      query.Doc // zero for deletes
	Version    uint64    // document version after the change
	Time       time.Time
}

// ErrNotFound is returned by reads of absent documents.
var ErrNotFound = errors.New("storage: document not found")

// ErrExists is returned by Insert when the ID is already taken.
var ErrExists = errors.New("storage: document already exists")

// DocumentStore is the system of record: named collections of schemaless
// documents with per-document versions and a synchronous, ordered change
// stream. Watchers are invoked inline under no lock, after the mutation
// has committed, in commit order; this gives the invalidation pipeline the
// exactly-once, in-order view it needs without goroutine nondeterminism in
// the simulation.
//
// Documents are copied on write and never on read. A writer hands over a
// map, which is frozen into a query.Doc and stays the writer's; Get, the
// rows of Query and the images of a ChangeEvent are that stored value
// itself, which no reader can change.
type DocumentStore struct {
	mu          sync.RWMutex
	collections map[string]map[string]versionedDoc
	indexes     map[string]map[string]fieldIndex // collection → field → index
	clk         clock.Clock
	stats       DocStats // Reads and Queries are kept in reads and queries
	// The counters of the read paths, which hold mu only for reading.
	reads, queries, indexLookups, indexScans atomic.Uint64

	// watchers is copy-on-write, in registration order; watcherMu
	// serializes its writers.
	watchers  atomic.Pointer[[]*watcher]
	watcherMu sync.Mutex
	// streamMu serializes event dispatch so watchers observe commit order
	// even when mutations race.
	streamMu sync.Mutex
}

type versionedDoc struct {
	doc     query.Doc
	version uint64
}

// watcher is one Watch call; its address is its identity.
type watcher struct{ fn func(ChangeEvent) }

// DocStats counts document-store operations.
type DocStats struct {
	Inserts, Updates, Deletes, Reads, Queries uint64
}

// NewDocumentStore creates an empty store using clk (nil means system
// clock).
func NewDocumentStore(clk clock.Clock) *DocumentStore {
	if clk == nil {
		clk = clock.System
	}
	return &DocumentStore{
		collections: make(map[string]map[string]versionedDoc),
		clk:         clk,
	}
}

// Insert adds a new document; fails with ErrExists if id is taken.
func (s *DocumentStore) Insert(collection, id string, doc map[string]any) error {
	stored := query.NewDoc(id, doc)
	s.streamMu.Lock()
	defer s.streamMu.Unlock()

	s.mu.Lock()
	coll, ok := s.collections[collection]
	if !ok {
		coll = make(map[string]versionedDoc)
		s.collections[collection] = coll
	}
	if _, taken := coll[id]; taken {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrExists, collection, id)
	}
	coll[id] = versionedDoc{doc: stored, version: 1}
	s.updateIndexesLocked(collection, id, query.Doc{}, stored)
	s.stats.Inserts++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeInsert,
		After: stored, Version: 1, Time: now,
	})
	return nil
}

// Update replaces the document at id; fails with ErrNotFound if absent.
func (s *DocumentStore) Update(collection, id string, doc map[string]any) error {
	stored := query.NewDoc(id, doc)
	s.streamMu.Lock()
	defer s.streamMu.Unlock()

	s.mu.Lock()
	coll := s.collections[collection]
	old, ok := coll[id]
	if !ok {
		s.mu.Unlock()
		return notFound(collection, id)
	}
	v := versionedDoc{doc: stored, version: old.version + 1}
	coll[id] = v
	s.updateIndexesLocked(collection, id, old.doc, stored)
	s.stats.Updates++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeUpdate,
		Before: old.doc, After: stored, Version: v.version, Time: now,
	})
	return nil
}

// Upsert inserts or replaces, never failing on existence.
func (s *DocumentStore) Upsert(collection, id string, doc map[string]any) {
	if err := s.Update(collection, id, doc); errors.Is(err, ErrNotFound) {
		// Racing inserts are impossible here: streamMu is not held across
		// the two calls, but the simulation's writers are the only
		// mutators and Insert handles the duplicate case by erroring,
		// which we translate into a retry as Update.
		if err := s.Insert(collection, id, doc); errors.Is(err, ErrExists) {
			_ = s.Update(collection, id, doc)
		}
	}
}

// Patch applies a partial update: fields in patch overwrite or add to the
// existing document; a nil value removes the field.
func (s *DocumentStore) Patch(collection, id string, patch map[string]any) error {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()

	s.mu.Lock()
	coll := s.collections[collection]
	old, ok := coll[id]
	if !ok {
		s.mu.Unlock()
		return notFound(collection, id)
	}
	updated := old.doc.Merge(patch)
	v := versionedDoc{doc: updated, version: old.version + 1}
	coll[id] = v
	s.updateIndexesLocked(collection, id, old.doc, updated)
	s.stats.Updates++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeUpdate,
		Before: old.doc, After: updated, Version: v.version, Time: now,
	})
	return nil
}

// Delete removes the document at id; fails with ErrNotFound if absent.
func (s *DocumentStore) Delete(collection, id string) error {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()

	s.mu.Lock()
	coll := s.collections[collection]
	old, ok := coll[id]
	if !ok {
		s.mu.Unlock()
		return notFound(collection, id)
	}
	delete(coll, id)
	s.updateIndexesLocked(collection, id, old.doc, query.Doc{})
	s.stats.Deletes++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeDelete,
		Before: old.doc, Version: old.version + 1, Time: now,
	})
	return nil
}

// Get returns the document and its version. A hit allocates nothing.
func (s *DocumentStore) Get(collection, id string) (query.Doc, uint64, error) {
	s.reads.Add(1)
	s.mu.RLock()
	v, ok := s.collections[collection][id]
	s.mu.RUnlock()
	if !ok {
		return query.Doc{}, 0, notFound(collection, id)
	}
	return v.doc, v.version, nil
}

func notFound(collection, id string) error {
	return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
}

// Query evaluates q against the store and returns the matching documents
// with the query's sort and limit applied, ties in the order — and
// unsorted results wholly — by ID. The candidates are the smallest posting
// among the equality indexes that cover one of the filter's Eq legs, the
// whole collection when none does; the results are identical either way.
// Each candidate is read once, where it lies: filtered, its sort key taken
// if it matches, and only matches are ordered (query.Select).
func (s *DocumentStore) Query(q query.Query) []query.Doc {
	s.queries.Add(1)
	lookups := query.EqualityLookups(q.Filter)
	usedIndex := false
	rows := q.Select(func(offer func(query.Doc)) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var best map[string]query.Doc
		usedIndex = false
		for field, value := range lookups {
			if set, ok := s.lookupIndexLocked(q.Collection, field, value); ok {
				if !usedIndex || len(set) < len(best) {
					best = set
				}
				usedIndex = true
			}
		}
		if usedIndex {
			for _, doc := range best {
				offer(doc)
			}
			return
		}
		for _, v := range s.collections[q.Collection] {
			offer(v.doc)
		}
	})
	if usedIndex {
		s.indexLookups.Add(1)
	} else {
		s.indexScans.Add(1)
	}
	return rows
}

// Count returns the number of documents in the collection.
func (s *DocumentStore) Count(collection string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.collections[collection])
}

// Stats returns a copy of the operation counters.
func (s *DocumentStore) Stats() DocStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Reads, st.Queries = s.reads.Load(), s.queries.Load()
	return st
}

// Watch registers fn to be called synchronously, in commit order, for
// every subsequent change. The returned cancel function unregisters it.
func (s *DocumentStore) Watch(fn func(ChangeEvent)) (cancel func()) {
	w := &watcher{fn: fn}
	s.watcherMu.Lock()
	s.setWatchers(append(slices.Clone(s.loadWatchers()), w))
	s.watcherMu.Unlock()
	return func() {
		s.watcherMu.Lock()
		s.setWatchers(slices.DeleteFunc(slices.Clone(s.loadWatchers()),
			func(x *watcher) bool { return x == w }))
		s.watcherMu.Unlock()
	}
}

func (s *DocumentStore) loadWatchers() []*watcher {
	if p := s.watchers.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *DocumentStore) setWatchers(ws []*watcher) { s.watchers.Store(&ws) }

// dispatch delivers ev to all watchers, in the order they registered.
// Callers hold streamMu, which is what makes delivery order equal commit
// order. The event is a few words and the watcher list is read as it
// stands: delivery allocates nothing.
func (s *DocumentStore) dispatch(ev ChangeEvent) {
	for _, w := range s.loadWatchers() {
		w.fn(ev)
	}
}
