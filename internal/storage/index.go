package storage

import (
	"strconv"

	"speedkit/internal/query"
)

// This file adds hash-based secondary indexes to the document store.
// Listing pages are equality queries ("category = shoes"), and the
// invalidation-heavy workloads re-evaluate them constantly; an equality
// index turns those from collection scans into candidate lookups.
//
// Index maintenance is synchronous with the mutation (inside the same
// critical section), so an index is never stale relative to a read.

// fieldIndex maps canonical value keys to the documents carrying that
// value, by ID. A posting holds the stored document itself, which every
// write re-files anyway, so a query reads its candidates off the posting
// without looking each up in the collection.
type fieldIndex map[string]map[string]query.Doc

// indexKey canonicalizes a value for index lookup with the same numeric
// coercion the query engine applies: int64(5), 5, and 5.0 share a key,
// while "5" (a string) does not.
func indexKey(v any) (string, bool) {
	switch n := v.(type) {
	case nil:
		return "z:null", true
	case bool:
		return "b:" + strconv.FormatBool(n), true
	case string:
		return "s:" + n, true
	}
	if f, ok := query.ToFloat(v); ok {
		if f == 0 {
			f = 0 // -0 equals 0 and must share its key
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64), true
	}
	return "", false // unindexable type (maps, slices)
}

// IndexStats counts index usage.
type IndexStats struct {
	// Lookups counts queries answered through an index.
	Lookups uint64
	// Scans counts queries that fell back to a full collection scan.
	Scans uint64
}

// CreateIndex builds an equality index on collection.field, backfilling
// from existing documents. Creating an existing index is a no-op. An
// index reads a document the way a predicate does (Doc.Lookup) and files
// scalar values only.
func (s *DocumentStore) CreateIndex(collection, field string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexes == nil {
		s.indexes = make(map[string]map[string]fieldIndex)
	}
	byField, ok := s.indexes[collection]
	if !ok {
		byField = make(map[string]fieldIndex)
		s.indexes[collection] = byField
	}
	if _, exists := byField[field]; exists {
		return
	}
	idx := make(fieldIndex)
	for id, v := range s.collections[collection] {
		indexAdd(idx, field, id, v.doc)
	}
	byField[field] = idx
}

// IndexStats returns the usage counters.
func (s *DocumentStore) IndexStats() IndexStats {
	return IndexStats{Lookups: s.indexLookups.Load(), Scans: s.indexScans.Load()}
}

// indexAdd registers doc's field value under id. Callers hold s.mu.
func indexAdd(idx fieldIndex, field, id string, doc query.Doc) {
	v, ok := doc.Lookup(field)
	if !ok {
		return
	}
	key, ok := indexKey(v)
	if !ok {
		return
	}
	set, ok := idx[key]
	if !ok {
		set = make(map[string]query.Doc)
		idx[key] = set
	}
	set[id] = doc
}

// indexRemove unregisters doc's field value. Callers hold s.mu.
func indexRemove(idx fieldIndex, field, id string, doc query.Doc) {
	v, ok := doc.Lookup(field)
	if !ok {
		return
	}
	key, ok := indexKey(v)
	if !ok {
		return
	}
	if set, ok := idx[key]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(idx, key)
		}
	}
}

// updateIndexesLocked maintains every index of the collection across one
// document transition; a zero Doc is the side on which the document does
// not exist, and has no field to file. Callers hold s.mu.
func (s *DocumentStore) updateIndexesLocked(collection, id string, before, after query.Doc) {
	for field, idx := range s.indexes[collection] {
		indexRemove(idx, field, id, before)
		indexAdd(idx, field, id, after)
	}
}

// lookupIndexLocked returns the candidates of an equality lookup,
// and whether an index on the field exists. Callers hold s.mu (read).
func (s *DocumentStore) lookupIndexLocked(collection, field string, value any) (map[string]query.Doc, bool) {
	idx, ok := s.indexes[collection][field]
	if !ok {
		return nil, false
	}
	key, ok := indexKey(value)
	if !ok {
		return nil, false
	}
	return idx[key], true
}
