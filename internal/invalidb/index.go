package invalidb

import (
	"math"
	"slices"

	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// The predicate index. A query's filter is read as a conjunction — the
// filter itself when it is one comparison, the legs of a top-level And
// otherwise — and the query is filed under legs of it that every
// matching document must satisfy:
//
//   - under the first equality leg with a scalar operand, in the bucket
//     of that (field, value);
//   - inside that bucket — or the collection-wide root bucket when it has
//     no such leg — under the closed interval its numeric range legs on
//     one field allow, or on the bucket's plain list when it has none.
//
// A query with neither kind of leg (Or, Not, Ne, In, Exists, Prefix,
// Contains, True, string or non-scalar operands) ends up on the root
// bucket's plain list: the residual, classified for every event.
//
// A document image reaches a query when it carries the bucket's value
// and a number inside the interval. An image that does not reach a query
// fails a leg of its conjunction and cannot match it, so classifying only
// the queries the before or the after image reaches finds every match;
// the legs the index did not read are checked by classifyImages, which
// sees the whole filter.

// matcher indexes one generation of registrations: an index per
// collection and one for the cross-collection queries. Immutable once
// built.
type matcher struct {
	byCollection map[string]*index
	global       *index
}

type index struct {
	root bucket
	eq   []eqField
}

// eqField holds the buckets of the queries filed under an equality leg
// on one field.
type eqField struct {
	field   string
	byValue map[scalar]*bucket
}

type bucket struct {
	// all are candidates whenever an image reaches the bucket.
	all []*registration
	// ranges has one interval set per field a query in the bucket was
	// filed under.
	ranges []*intervals
}

// intervals answers "which intervals contain v" in O(log n + k): ents is
// sorted by lo and read as an implicit balanced tree (the root of
// ents[l:r] is its middle element), and maxHi[i] is the highest hi in the
// subtree rooted at i, so a subtree that ends below v is skipped whole.
type intervals struct {
	field string
	ents  []interval
	maxHi []float64
}

type interval struct {
	lo, hi float64
	reg    *registration
}

// scalar is a document value or an equality operand as a map key. Values
// of different kinds never compare equal and every numeric type is read
// through query.ToFloat, so two values share a key exactly when the
// predicate language calls them equal.
type scalar struct {
	kind scalarKind
	num  float64
	str  string
}

type scalarKind uint8

const (
	kindNil scalarKind = iota
	kindBool
	kindNumber
	kindString
)

// scalarOf returns v's key. It has none when it is not a scalar, or is
// NaN, which equals nothing.
func scalarOf(v any) (scalar, bool) {
	switch x := v.(type) {
	case nil:
		return scalar{kind: kindNil}, true
	case bool:
		if x {
			return scalar{kind: kindBool, num: 1}, true
		}
		return scalar{kind: kindBool}, true
	case string:
		return scalar{kind: kindString, str: x}, true
	}
	f, ok := query.ToFloat(v)
	return scalar{kind: kindNumber, num: f}, ok && !math.IsNaN(f)
}

func buildMatcher(regs map[string]*registration) *matcher {
	m := &matcher{byCollection: make(map[string]*index), global: &index{}}
	for _, r := range regs {
		ix := m.global
		if r.q.Collection != "" {
			if ix = m.byCollection[r.q.Collection]; ix == nil {
				ix = &index{}
				m.byCollection[r.q.Collection] = ix
			}
		}
		ix.add(r)
	}
	m.global.seal()
	for _, ix := range m.byCollection {
		ix.seal()
	}
	return m
}

func (ix *index) add(r *registration) {
	var conj query.And
	switch f := r.q.Filter.(type) {
	case *query.Cmp:
		conj = query.And{f}
	case query.And:
		conj = f
	}
	b := &ix.root
	for _, leg := range conj {
		if c, ok := leg.(*query.Cmp); ok && c.Op == query.OpEq {
			if key, ok := scalarOf(c.Value); ok {
				b = ix.bucketOf(c.Field, key)
				break
			}
		}
	}
	if field, lo, hi, ok := rangeOf(conj); ok {
		iv := b.intervalsOn(field)
		iv.ents = append(iv.ents, interval{lo: lo, hi: hi, reg: r})
	} else {
		b.all = append(b.all, r)
	}
}

// rangeOf intersects the numeric range legs on the first field that has
// one. Strict bounds are filed as closed: the interval may only be wider
// than the legs.
func rangeOf(conj query.And) (field string, lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, leg := range conj {
		c, isCmp := leg.(*query.Cmp)
		if !isCmp || (ok && c.Field != field) {
			continue
		}
		// A NaN bound compares equal to every number.
		v, isNum := query.ToFloat(c.Value)
		if !isNum || math.IsNaN(v) {
			continue
		}
		switch c.Op {
		case query.OpGt, query.OpGte:
			lo = max(lo, v)
		case query.OpLt, query.OpLte:
			hi = min(hi, v)
		default:
			continue
		}
		field, ok = c.Field, true
	}
	return field, lo, hi, ok
}

func (ix *index) bucketOf(field string, key scalar) *bucket {
	i := slices.IndexFunc(ix.eq, func(f eqField) bool { return f.field == field })
	if i < 0 {
		i = len(ix.eq)
		ix.eq = append(ix.eq, eqField{field: field, byValue: make(map[scalar]*bucket)})
	}
	b := ix.eq[i].byValue[key]
	if b == nil {
		b = &bucket{}
		ix.eq[i].byValue[key] = b
	}
	return b
}

func (b *bucket) intervalsOn(field string) *intervals {
	for _, iv := range b.ranges {
		if iv.field == field {
			return iv
		}
	}
	iv := &intervals{field: field}
	b.ranges = append(b.ranges, iv)
	return iv
}

// seal sorts every interval set and computes its maxHi.
func (ix *index) seal() {
	ix.root.seal()
	for _, f := range ix.eq {
		for _, b := range f.byValue {
			b.seal()
		}
	}
}

func (b *bucket) seal() {
	for _, iv := range b.ranges {
		slices.SortFunc(iv.ents, func(a, b interval) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			}
			return 0
		})
		iv.maxHi = make([]float64, len(iv.ents))
		iv.sealRange(0, len(iv.ents))
	}
}

func (iv *intervals) sealRange(l, r int) float64 {
	if l >= r {
		return math.Inf(-1)
	}
	mid := int(uint(l+r) >> 1)
	iv.maxHi[mid] = max(iv.ents[mid].hi, iv.sealRange(l, mid), iv.sealRange(mid+1, r))
	return iv.maxHi[mid]
}

// sink classifies the candidates the index reaches and keeps the hits
// that fit dst; n counts them all.
type sink struct {
	ev  *storage.ChangeEvent
	dst []hit
	n   int
}

func (s *sink) add(r *registration) {
	kind, ok := classifyImages(r.q, *s.ev)
	if !ok {
		return
	}
	if s.n < len(s.dst) {
		s.dst[s.n] = hit{reg: r, kind: kind}
	}
	s.n++
}

// matchInto classifies the queries ev's images reach in its collection's
// index and in the cross-collection one, writes the hits into dst — each
// query at most once, in no particular order — and returns their number.
// A number above len(dst) says the rest were dropped: the caller runs it
// again with room for all. This runs for every write and must not
// allocate — the caller owns dst.
func (m *matcher) matchInto(ev *storage.ChangeEvent, dst []hit) int {
	s := sink{ev: ev, dst: dst}
	if ix := m.byCollection[ev.Collection]; ix != nil {
		ix.collect(&s)
	}
	m.global.collect(&s)
	return s.n
}

// collect adds the hits among the queries of ix. A query is filed in one
// bucket, and there on the plain list or in one interval set, so the two
// images reach it twice only through the same set: stab tells.
func (ix *index) collect(s *sink) {
	before, after := s.ev.Before, s.ev.After
	ix.root.collect(s, before, after)
	for i := range ix.eq {
		f := &ix.eq[i]
		bb, ba := f.bucketAt(before), f.bucketAt(after)
		if bb == ba {
			if bb != nil {
				bb.collect(s, before, after)
			}
			continue
		}
		if bb != nil {
			bb.collect(s, before, query.Doc{})
		}
		if ba != nil {
			ba.collect(s, query.Doc{}, after)
		}
	}
}

// bucketAt returns the bucket of the value doc carries in f's field, nil
// when no query pins that value.
func (f *eqField) bucketAt(doc query.Doc) *bucket {
	v, ok := doc.Lookup(f.field)
	if !ok {
		return nil
	}
	key, ok := scalarOf(v)
	if !ok {
		return nil
	}
	return f.byValue[key]
}

// collect adds the hits among the queries of b that either image
// reaches; a zero image reaches none of the intervals.
func (b *bucket) collect(s *sink, before, after query.Doc) {
	for _, r := range b.all {
		s.add(r)
	}
	for _, iv := range b.ranges {
		vb, okb := numberAt(before, iv.field)
		va, oka := numberAt(after, iv.field)
		if (okb && math.IsNaN(vb)) || (oka && math.IsNaN(va)) {
			// query.compare orders a NaN equal to any number: it
			// satisfies every >= and <=.
			for i := range iv.ents {
				s.add(iv.ents[i].reg)
			}
			continue
		}
		seen := math.NaN() // inside no interval
		if okb {
			iv.stab(s, vb, seen, 0, len(iv.ents))
			seen = vb
		}
		if oka && va != seen {
			iv.stab(s, va, seen, 0, len(iv.ents))
		}
	}
}

func numberAt(doc query.Doc, field string) (float64, bool) {
	v, ok := doc.Lookup(field)
	if !ok {
		return 0, false
	}
	return query.ToFloat(v)
}

// stab adds the hits among the queries of ents[l:r] whose interval
// contains v, passing over those that contain seen as well: the stab
// for seen found them.
func (iv *intervals) stab(s *sink, v, seen float64, l, r int) {
	for l < r {
		mid := int(uint(l+r) >> 1)
		if iv.maxHi[mid] < v {
			return
		}
		iv.stab(s, v, seen, l, mid)
		e := &iv.ents[mid]
		if e.lo > v {
			return
		}
		if e.hi >= v && !(e.lo <= seen && seen <= e.hi) {
			s.add(e.reg)
		}
		l = mid + 1
	}
}
