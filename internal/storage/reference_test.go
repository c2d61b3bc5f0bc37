package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
)

// referenceQuery is the read path Query had before it read each candidate
// once, kept as the definition its results are checked against: take every
// document of the collection, order them all by ID, filter, stable-sort
// the matches by the sort field, cut at the limit. No index, no heap, and
// the comparator is written out here rather than shared with the query
// package.
//
// One thing is stated rather than inherited: ties are broken by the ID a
// document is stored under. The old path ordered by fmt.Sprint of the
// document's own "id" field when it had one, which is a different order
// for the rare document whose field disagrees with its store ID.
func referenceQuery(coll map[string]map[string]any, q query.Query) []query.Doc {
	all := make([]query.Doc, 0, len(coll))
	for id, m := range coll {
		all = append(all, query.NewDoc(id, m))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID() < all[j].ID() })
	out := all[:0]
	for _, d := range all {
		if q.Match(d) {
			out = append(out, d)
		}
	}
	if q.SortField != "" {
		sort.SliceStable(out, func(i, j int) bool {
			a, aok := out[i].Lookup(q.SortField)
			b, bok := out[j].Lookup(q.SortField)
			if !aok || !bok {
				return aok && !bok // absent keys last, in either direction
			}
			c, comparable := referenceCompare(a, b)
			if !comparable {
				return false
			}
			if q.Descending {
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

func referenceCompare(a, b any) (int, bool) {
	if an, ok := query.ToFloat(a); ok {
		bn, ok := query.ToFloat(b)
		switch {
		case !ok:
			return 0, false
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		}
		return 0, true // equal, or a NaN on either side
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs), true
	}
	return 0, false
}

// modelGen draws documents, mutations and queries for the model test from
// small pools, so that predicates hit, sort keys tie and numeric types mix.
type modelGen struct{ rng *rand.Rand }

func (g modelGen) pick(vs ...any) any { return vs[g.rng.Intn(len(vs))] }

// number returns one of a few values in one of the types that coerce equal.
func (g modelGen) number() any {
	n := g.rng.Intn(6)
	switch g.rng.Intn(4) {
	case 0:
		return n
	case 1:
		return int64(n)
	case 2:
		return float64(n)
	}
	return g.pick(float64(n)+0.5, math.NaN(), math.Copysign(0, -1), uint8(n))
}

func (g modelGen) scalar() any {
	switch g.rng.Intn(8) {
	case 0, 1:
		return g.pick("a", "b", "c", "d", "")
	case 2:
		return g.pick(true, false, nil)
	}
	return g.number()
}

func (g modelGen) doc() map[string]any {
	m := map[string]any{}
	if g.rng.Intn(8) > 0 {
		m["cat"] = g.pick("a", "b", "c", "d")
	}
	if g.rng.Intn(6) > 0 {
		m["price"] = g.number()
	}
	if g.rng.Intn(4) > 0 {
		m["stock"] = g.number() // indexed: 2, int64(2) and 2.0 share a posting, 0 and -0 too
	}
	if g.rng.Intn(3) > 0 {
		m["mixed"] = g.scalar()
	}
	if g.rng.Intn(3) > 0 {
		meta := map[string]any{"rank": g.number()}
		if g.rng.Intn(2) == 0 {
			meta["tag"] = g.pick("a", "b", map[string]any{"deep": 1})
		}
		m["meta"] = meta
	}
	if g.rng.Intn(6) == 0 {
		m["id"] = g.pick("d03", "d17", 5, "zz") // its own, agreeing with the store ID or not
	}
	return m
}

var modelFields = []string{"cat", "price", "stock", "mixed", "meta.rank", "meta.tag", "id", "absent", "meta"}

func (g modelGen) field() string { return modelFields[g.rng.Intn(len(modelFields))] }

func (g modelGen) operand(field string) any {
	if field == "id" && g.rng.Intn(2) == 0 {
		return fmt.Sprintf("d%02d", g.rng.Intn(40))
	}
	return g.scalar()
}

func (g modelGen) predicate(depth int) query.Predicate {
	if depth > 0 && g.rng.Intn(3) == 0 {
		legs := make([]query.Predicate, g.rng.Intn(4))
		for i := range legs {
			legs[i] = g.predicate(depth - 1)
		}
		switch g.rng.Intn(3) {
		case 0:
			return query.And(legs)
		case 1:
			return query.Or(legs)
		}
		return query.Not{P: g.predicate(depth - 1)}
	}
	f := g.field()
	switch query.Op(g.rng.Intn(10)) {
	case query.OpEq:
		return query.Eq(f, g.operand(f))
	case query.OpNe:
		return query.Ne(f, g.operand(f))
	case query.OpGt:
		return query.Gt(f, g.operand(f))
	case query.OpGte:
		return query.Gte(f, g.operand(f))
	case query.OpLt:
		return query.Lt(f, g.operand(f))
	case query.OpLte:
		return query.Lte(f, g.operand(f))
	case query.OpIn:
		set := make([]any, g.rng.Intn(4))
		for i := range set {
			set[i] = g.operand(f)
		}
		return query.In(f, set...)
	case query.OpExists:
		return query.Exists(f)
	case query.OpPrefix:
		return query.Prefix(f, g.pick("", "a", "d0", "d1").(string))
	}
	return query.Contains(f, g.pick("", "a", "1", "z").(string))
}

// query draws a filter — half the time a conjunction led by equality legs
// on the fields the test indexes, the shape an index answers — a sort and
// a limit from none through one to more than the collection holds.
func (g modelGen) query(n int) query.Query {
	var filter query.Predicate
	switch g.rng.Intn(4) {
	case 0:
		filter = query.Eq("cat", g.pick("a", "b", "c", "d", "e"))
	case 1:
		filter = query.And{
			query.Eq("cat", g.pick("a", "b", "c", "d")),
			query.Eq("stock", g.pick(0, 1.0, int64(2), 3, 9, math.Copysign(0, -1))),
			g.predicate(1),
		}
	case 2:
		filter = nil
	default:
		filter = g.predicate(2)
	}
	q := query.New("c", filter)
	if g.rng.Intn(4) > 0 {
		q = q.OrderBy(g.field(), g.rng.Intn(2) == 0)
	}
	return q.WithLimit(g.pick(0, 0, 1, 2, 3, n/2, n, n+5).(int))
}

// TestQueryMatchesReference is the store-side twin of invalidb's
// TestIndexMatchesReference: over seeded random collections — absent
// fields, int/int64/float64 values that coerce equal, NaN and -0 prices,
// nested fields under dotted paths, sort keys of mixed types, documents
// with an "id" of their own — mutated by every kind of write, every
// random query returns the reference's rows in the reference's order,
// whichever equality indexes exist.
func TestQueryMatchesReference(t *testing.T) {
	indexSets := [][]string{nil, {"cat"}, {"cat", "stock"}, {"stock", "meta.tag", "id"}}
	for seed := int64(1); seed <= 40; seed++ {
		g := modelGen{rand.New(rand.NewSource(seed))}
		stores := make([]*DocumentStore, len(indexSets))
		for i, fields := range indexSets {
			stores[i] = NewDocumentStore(clock.NewSimulated(time.Time{}))
			for _, f := range fields[:len(fields)/2] {
				stores[i].CreateIndex("c", f) // before the data, maintained by the writes
			}
		}
		model := map[string]map[string]any{}
		for op := 0; op < 150; op++ {
			id := fmt.Sprintf("d%02d", g.rng.Intn(40))
			_, exists := model[id]
			switch k := g.rng.Intn(10); {
			case !exists || k < 2:
				doc := g.doc()
				model[id] = doc
				for _, s := range stores {
					s.Upsert("c", id, doc)
				}
			case k < 7:
				patch := g.doc()
				if g.rng.Intn(2) == 0 {
					patch[g.pick("cat", "price", "meta", "id").(string)] = nil
				}
				for key, v := range patch {
					if v == nil {
						delete(model[id], key)
					} else {
						model[id][key] = v
					}
				}
				for _, s := range stores {
					if err := s.Patch("c", id, patch); err != nil {
						t.Fatal(err)
					}
				}
			default:
				delete(model, id)
				for _, s := range stores {
					if err := s.Delete("c", id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i, fields := range indexSets {
			for _, f := range fields[len(fields)/2:] {
				stores[i].CreateIndex("c", f) // after the data, backfilled
			}
		}

		for n := 0; n < 150; n++ {
			q := g.query(len(model))
			want := referenceQuery(model, q)
			for i, s := range stores {
				got := s.Query(q)
				if !sameRows(got, want) {
					t.Fatalf("seed %d, indexes %v, %s:\n got %v\nwant %v", seed, indexSets[i], q.ID(), rowIDs(got), rowIDs(want))
				}
			}
		}
	}
}

func rowIDs(docs []query.Doc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID()
	}
	return out
}

// sameRows compares IDs in order and contents by value. NaN is not equal
// to itself under DeepEqual, so contents are compared as printed.
func sameRows(got, want []query.Doc) bool {
	if !reflect.DeepEqual(rowIDs(got), rowIDs(want)) {
		return false
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			return false
		}
	}
	return true
}
