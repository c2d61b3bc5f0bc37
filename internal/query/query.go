package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
func (q Query) Match(doc Doc) bool {
	if q.Filter == nil {
		return true
	}
	return q.Filter.Match(doc)
}

// Apply evaluates the query against an in-memory snapshot of documents,
// returning the matching ones in sorted, limited order (see Select for
// the order). The input slice is not modified.
func (q Query) Apply(docs []Doc) []Doc {
	return q.Select(func(offer func(Doc)) {
		for _, d := range docs {
			offer(d)
		}
	})
}

// Select evaluates the query over the candidates scan offers, one call of
// offer each, in any order. A candidate is filtered as it is offered and
// its sort key read once; only matches are ordered, and with a Limit only
// the best Limit of them are kept while the scan runs, so a listing costs
// one read of each candidate and memory for the rows it returns.
//
// The order of the result is by sort key (ascending or descending;
// documents without the field last either way), then by document ID, then
// by the order of offering. Keys of unlike kinds — a number beside a
// string, or beside a bool, a null, a NaN, a list or a nested document —
// are neither before nor after each other; that is not an ordering, and a
// result that meets it is what a stable sort by key over all the matches
// in ID order gives, which is how every result was computed when all the
// candidates were ordered before they were filtered. For that, scan is
// run a second time if rows were dropped before the unlike key showed up.
func (q Query) Select(scan func(offer func(Doc))) []Doc {
	s := selection{q: q, bound: q.Limit}
	scan(s.offer)
	if s.unordered() && s.matched > len(s.rows) {
		s = selection{q: q}
		scan(s.offer)
	}
	return s.docs()
}

// selection is the state of one Select.
type selection struct {
	q Query
	// rows holds every match; or, with a bound, the best bound of them
	// under compareRows — once it is full, as a max-heap with the worst
	// row kept on top, which every later match challenges.
	rows    []row
	bound   int // 0 keeps every match
	matched int
	kinds   uint8 // the keyKinds seen among the matches, one bit each
}

type row struct {
	doc  Doc
	seq  uint32 // position among the matches, the last tie-break
	kind keyKind
	num  float64 // the key when kind is keyNumber
	str  string  // the key when kind is keyString
}

type keyKind uint8

const (
	keyMissing keyKind = iota // no sort field, or the document lacks it
	keyNumber
	keyString
	// keyOther is a value compare calls equal to every other: a NaN, a
	// bool, a null, a list, a nested document.
	keyOther
)

func (s *selection) offer(d Doc) {
	if !s.q.Match(d) {
		return
	}
	r := row{doc: d, seq: uint32(s.matched)}
	s.matched++
	if s.q.SortField != "" {
		if v, ok := d.Lookup(s.q.SortField); ok {
			r.kind = keyOther
			if f, isNum := ToFloat(v); isNum {
				if !math.IsNaN(f) {
					r.kind, r.num = keyNumber, f
				}
			} else if str, isStr := v.(string); isStr {
				r.kind, r.str = keyString, str
			}
		}
	}
	s.kinds |= 1 << r.kind

	if s.bound <= 0 || len(s.rows) < s.bound {
		s.rows = append(s.rows, r)
		if len(s.rows) == s.bound {
			for i := s.bound/2 - 1; i >= 0; i-- {
				s.siftDown(i)
			}
		}
	} else if s.compareRows(&r, &s.rows[0]) < 0 {
		s.rows[0] = r
		s.siftDown(0)
	}
}

// unordered reports whether the sort keys met so far are of more than
// one kind.
func (s *selection) unordered() bool {
	present := s.kinds &^ (1 << keyMissing)
	return present&(present-1) != 0
}

func (s *selection) siftDown(i int) {
	h := s.rows
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if s.compareRows(&h[c], &h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// docs puts the kept rows in order and returns their documents.
func (s *selection) docs() []Doc {
	rows := s.rows
	if s.unordered() {
		slices.SortFunc(rows, func(a, b row) int { return compareIDs(&a, &b) })
		slices.SortStableFunc(rows, func(a, b row) int { return s.compareKeys(&a, &b) })
	} else {
		slices.SortFunc(rows, func(a, b row) int { return s.compareRows(&a, &b) })
	}
	if limit := s.q.Limit; limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := make([]Doc, len(rows))
	for i := range rows {
		out[i] = rows[i].doc
	}
	return out
}

// compareKeys orders two rows by sort key alone, 0 when the query has
// none or the keys do not order: compare's answer in the query's
// direction, with an absent key after every present one.
func (s *selection) compareKeys(a, b *row) int {
	if a.kind == keyMissing || b.kind == keyMissing {
		switch {
		case a.kind != keyMissing:
			return -1
		case b.kind != keyMissing:
			return 1
		}
		return 0
	}
	c := 0
	if a.kind == b.kind {
		switch a.kind {
		case keyNumber:
			c = cmp.Compare(a.num, b.num)
		case keyString:
			c = strings.Compare(a.str, b.str)
		}
	}
	if s.q.Descending {
		return -c
	}
	return c
}

// compareIDs orders two rows by document ID, then by offering.
func compareIDs(a, b *row) int {
	if c := strings.Compare(a.doc.ID(), b.doc.ID()); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// compareRows is the total order of the result: key, ID, offering.
func (s *selection) compareRows(a, b *row) int {
	if c := s.compareKeys(a, b); c != 0 {
		return c
	}
	return compareIDs(a, b)
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
