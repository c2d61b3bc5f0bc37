package storage

import (
	"errors"
	"fmt"
	"sort"
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
	Before     map[string]any // nil for inserts
	After      map[string]any // nil for deletes
	Version    uint64         // document version after the change
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
type DocumentStore struct {
	mu          sync.RWMutex
	collections map[string]map[string]versionedDoc
	indexes     map[string]map[string]fieldIndex // collection → field → index
	idxStats    IndexStats
	clk         clock.Clock
	stats       DocStats // Reads is kept in reads
	// reads counts Get calls, which hold mu only for reading.
	reads atomic.Uint64

	watcherMu sync.Mutex
	watchers  map[int]func(ChangeEvent)
	nextWatch int
	// streamMu serializes event dispatch so watchers observe commit order
	// even when mutations race.
	streamMu sync.Mutex
}

type versionedDoc struct {
	doc     map[string]any
	version uint64
}

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
		watchers:    make(map[int]func(ChangeEvent)),
	}
}

// cloneDoc deep-copies one level of nesting, which covers the document
// shapes used throughout the system (scalar fields plus one map level).
func cloneDoc(d map[string]any) map[string]any {
	if d == nil {
		return nil
	}
	out := make(map[string]any, len(d))
	for k, v := range d {
		if m, ok := v.(map[string]any); ok {
			inner := make(map[string]any, len(m))
			for ik, iv := range m {
				inner[ik] = iv
			}
			out[k] = inner
			continue
		}
		out[k] = v
	}
	return out
}

// Insert adds a new document; fails with ErrExists if id is taken.
func (s *DocumentStore) Insert(collection, id string, doc map[string]any) error {
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
	stored := cloneDoc(doc)
	coll[id] = versionedDoc{doc: stored, version: 1}
	s.updateIndexesLocked(collection, id, nil, stored)
	s.stats.Inserts++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeInsert,
		After: cloneDoc(stored), Version: 1, Time: now,
	})
	return nil
}

// Update replaces the document at id; fails with ErrNotFound if absent.
func (s *DocumentStore) Update(collection, id string, doc map[string]any) error {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()

	s.mu.Lock()
	coll := s.collections[collection]
	old, ok := coll[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	stored := cloneDoc(doc)
	v := versionedDoc{doc: stored, version: old.version + 1}
	coll[id] = v
	s.updateIndexesLocked(collection, id, old.doc, stored)
	s.stats.Updates++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeUpdate,
		Before: cloneDoc(old.doc), After: cloneDoc(stored), Version: v.version, Time: now,
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
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	updated := cloneDoc(old.doc)
	for k, v := range patch {
		if v == nil {
			delete(updated, k)
			continue
		}
		updated[k] = v
	}
	v := versionedDoc{doc: updated, version: old.version + 1}
	coll[id] = v
	s.updateIndexesLocked(collection, id, old.doc, updated)
	s.stats.Updates++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeUpdate,
		Before: cloneDoc(old.doc), After: cloneDoc(updated), Version: v.version, Time: now,
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
		return fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	delete(coll, id)
	s.updateIndexesLocked(collection, id, old.doc, nil)
	s.stats.Deletes++
	now := s.clk.Now()
	s.mu.Unlock()

	s.dispatch(ChangeEvent{
		Collection: collection, ID: id, Kind: ChangeDelete,
		Before: cloneDoc(old.doc), Version: old.version + 1, Time: now,
	})
	return nil
}

// Get returns a copy of the document and its version.
func (s *DocumentStore) Get(collection, id string) (map[string]any, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.reads.Add(1)
	v, ok := s.collections[collection][id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, collection, id)
	}
	return cloneDoc(v.doc), v.version, nil
}

// Query evaluates q against the store and returns matching documents
// (copies) with the query's sort and limit applied. Every returned doc
// has its ID injected under "id" if not already present. When an
// equality index covers one of the filter's Eq legs, only the index's
// candidates are evaluated; results are identical to a full scan.
func (s *DocumentStore) Query(q query.Query) []map[string]any {
	snapshot := s.queryCandidates(q)
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()
	return q.Apply(snapshot)
}

// Count returns the number of documents in the collection.
func (s *DocumentStore) Count(collection string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.collections[collection])
}

// Collections lists collection names, sorted.
func (s *DocumentStore) Collections() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.collections))
	for name := range s.collections {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats returns a copy of the operation counters.
func (s *DocumentStore) Stats() DocStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Reads = s.reads.Load()
	return st
}

// Watch registers fn to be called synchronously, in commit order, for
// every subsequent change. The returned cancel function unregisters it.
func (s *DocumentStore) Watch(fn func(ChangeEvent)) (cancel func()) {
	s.watcherMu.Lock()
	id := s.nextWatch
	s.nextWatch++
	s.watchers[id] = fn
	s.watcherMu.Unlock()
	return func() {
		s.watcherMu.Lock()
		delete(s.watchers, id)
		s.watcherMu.Unlock()
	}
}

// dispatch delivers ev to all watchers. Callers hold streamMu, which is
// what makes delivery order equal commit order.
func (s *DocumentStore) dispatch(ev ChangeEvent) {
	s.watcherMu.Lock()
	ids := make([]int, 0, len(s.watchers))
	for id := range s.watchers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(ChangeEvent), len(ids))
	for i, id := range ids {
		fns[i] = s.watchers[id]
	}
	s.watcherMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}
