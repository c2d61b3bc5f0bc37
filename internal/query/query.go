package query

import (
	"fmt"
	"sort"
	"strings"
)

// Query is a declarative read over one collection: filter, optional sort,
// optional limit. Query results are first-class cacheable resources in
// Speed Kit — the query's canonical ID is the cache key, and the
// invalidation engine watches the change stream to decide when a cached
// result set may have changed.
type Query struct {
	Collection string
	Filter     Predicate
	SortField  string
	Descending bool
	Limit      int // 0 means unlimited
}

// New returns a query over collection with the given filter. A nil filter
// matches every document.
func New(collection string, filter Predicate) Query {
	if filter == nil {
		filter = True{}
	}
	return Query{Collection: collection, Filter: filter}
}

// OrderBy returns a copy sorted by field (ascending unless desc).
func (q Query) OrderBy(field string, desc bool) Query {
	q.SortField = field
	q.Descending = desc
	return q
}

// WithLimit returns a copy limited to n results.
func (q Query) WithLimit(n int) Query {
	if n < 0 {
		n = 0
	}
	q.Limit = n
	return q
}

// ID returns the canonical cache key for this query. Two queries with the
// same canonical form map to the same key, so permuted AND operands or
// reordered IN sets share one cached result.
func (q Query) ID() string {
	var b strings.Builder
	b.WriteString("q:")
	b.WriteString(q.Collection)
	b.WriteString("?")
	if q.Filter != nil {
		b.WriteString(q.Filter.Canonical())
	} else {
		b.WriteString("TRUE")
	}
	if q.SortField != "" {
		dir := "asc"
		if q.Descending {
			dir = "desc"
		}
		fmt.Fprintf(&b, "&sort=%s:%s", q.SortField, dir)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, "&limit=%d", q.Limit)
	}
	return b.String()
}

// Match reports whether a single document satisfies the query filter.
func (q Query) Match(doc map[string]any) bool {
	if q.Filter == nil {
		return true
	}
	return q.Filter.Match(doc)
}

// Apply evaluates the query against an in-memory snapshot of documents,
// returning matching documents in sorted, limited order. The input slice
// is not modified.
func (q Query) Apply(docs []map[string]any) []map[string]any {
	out := make([]map[string]any, 0, len(docs))
	for _, d := range docs {
		if q.Match(d) {
			out = append(out, d)
		}
	}
	if q.SortField != "" {
		field, desc := q.SortField, q.Descending
		sort.SliceStable(out, func(i, j int) bool {
			a, aok := Lookup(out[i], field)
			b, bok := Lookup(out[j], field)
			if !aok || !bok {
				// Missing sort keys order last regardless of direction.
				return aok && !bok
			}
			c, comparable := compare(a, b)
			if !comparable {
				return false
			}
			if desc {
				return c > 0
			}
			return c < 0
		})
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// EqualityLookups extracts the field→value pairs the predicate pins with
// top-level equality: a bare Eq, or the Eq legs of a top-level And. A
// document can only match the predicate if it carries these exact values,
// which lets a store answer the query from an equality index and apply
// the full filter only to the candidates. Returns nil when no equality
// legs exist.
func EqualityLookups(p Predicate) map[string]any {
	switch c := p.(type) {
	case *Cmp:
		if c.Op == OpEq {
			return map[string]any{c.Field: c.Value}
		}
	case And:
		out := map[string]any{}
		for _, leg := range c {
			if cmp, ok := leg.(*Cmp); ok && cmp.Op == OpEq {
				out[cmp.Field] = cmp.Value
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// ReadsField reports whether the query's filter or sort reads the given
// field. The invalidation engine uses this to skip queries that cannot be
// affected by a write that only touched other fields.
func (q Query) ReadsField(field string) bool {
	if q.SortField == field {
		return true
	}
	if q.Filter == nil {
		return false
	}
	fields := map[string]struct{}{}
	q.Filter.Fields(fields)
	_, ok := fields[field]
	return ok
}
