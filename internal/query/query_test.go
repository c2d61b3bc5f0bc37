package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func sampleDocs() []Doc {
	return []Doc{
		NewDoc("p1", map[string]any{"category": "shoes", "price": 89.9, "stock": int64(12)}),
		NewDoc("p2", map[string]any{"category": "shoes", "price": 120.0, "stock": int64(0)}),
		NewDoc("p3", map[string]any{"category": "hats", "price": 25.0, "stock": int64(7)}),
		NewDoc("p4", map[string]any{"category": "shoes", "price": 45.0, "stock": int64(3)}),
		NewDoc("p5", map[string]any{"category": "belts", "price": 35.0}),
	}
}

func TestQueryApplyFilterSortLimit(t *testing.T) {
	q := New("products", Eq("category", "shoes")).OrderBy("price", false).WithLimit(2)
	got := q.Apply(sampleDocs())
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].ID() != "p4" || got[1].ID() != "p1" {
		t.Fatalf("order = %v,%v, want p4,p1", got[0].ID(), got[1].ID())
	}
}

func TestQueryApplyDescending(t *testing.T) {
	q := New("products", nil).OrderBy("price", true)
	got := q.Apply(sampleDocs())
	if got[0].ID() != "p2" {
		t.Fatalf("desc first = %v, want p2", got[0].ID())
	}
}

func TestQueryApplyMissingSortKeyOrdersLast(t *testing.T) {
	q := New("products", nil).OrderBy("stock", false)
	got := q.Apply(sampleDocs())
	if got[len(got)-1].ID() != "p5" {
		t.Fatalf("missing-key doc not last: %v", got[len(got)-1].ID())
	}
}

func TestQueryNilFilterMatchesAll(t *testing.T) {
	q := New("products", nil)
	if len(q.Apply(sampleDocs())) != 5 {
		t.Fatal("nil filter did not match all")
	}
	if !q.Match(docOf(map[string]any{"anything": 1})) {
		t.Fatal("nil filter Match failed")
	}
}

func TestQueryNegativeLimitClamped(t *testing.T) {
	q := New("c", nil).WithLimit(-5)
	if q.Limit != 0 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestQueryIDStability(t *testing.T) {
	a := New("products", And{Eq("category", "shoes"), Lt("price", 100)}).OrderBy("price", false).WithLimit(10)
	b := New("products", And{Lt("price", 100), Eq("category", "shoes")}).OrderBy("price", false).WithLimit(10)
	if a.ID() != b.ID() {
		t.Fatalf("equivalent queries have different IDs:\n%s\n%s", a.ID(), b.ID())
	}
	c := New("products", And{Eq("category", "shoes"), Lt("price", 100)}).OrderBy("price", true).WithLimit(10)
	if a.ID() == c.ID() {
		t.Fatal("different sort direction shares ID")
	}
	d := New("other", a.Filter)
	if a.ID() == d.ID() {
		t.Fatal("different collection shares ID")
	}
}

func TestQueryReadsField(t *testing.T) {
	q := New("p", And{Eq("category", "shoes"), Gt("price", 10)}).OrderBy("rank", false)
	for _, f := range []string{"category", "price", "rank"} {
		if !q.ReadsField(f) {
			t.Errorf("ReadsField(%s) = false", f)
		}
	}
	if q.ReadsField("stock") {
		t.Error("ReadsField(stock) = true")
	}
	empty := New("p", nil)
	if empty.ReadsField("x") {
		t.Error("nil filter reads field")
	}
}

func TestQueryApplyDoesNotMutateInput(t *testing.T) {
	docs := sampleDocs()
	q := New("p", nil).OrderBy("price", true)
	q.Apply(docs)
	if docs[0].ID() != "p1" {
		t.Fatal("Apply reordered the input slice")
	}
}

func TestEqualityLookups(t *testing.T) {
	cases := []struct {
		name string
		p    Predicate
		want map[string]any
	}{
		{"bare eq", Eq("a", 1), map[string]any{"a": 1}},
		{"and of eqs", And{Eq("a", 1), Eq("b", "x")}, map[string]any{"a": 1, "b": "x"}},
		{"and mixed", And{Eq("a", 1), Gt("b", 2)}, map[string]any{"a": 1}},
		{"no eq", Gt("a", 1), nil},
		{"or not extracted", Or{Eq("a", 1), Eq("a", 2)}, nil},
		{"nested and not extracted", And{Or{Eq("a", 1)}}, nil},
		{"ne not extracted", Ne("a", 1), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := EqualityLookups(c.p)
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for k, v := range c.want {
				if got[k] != v {
					t.Fatalf("got %v, want %v", got, c.want)
				}
			}
		})
	}
}

func BenchmarkQueryMatch(b *testing.B) {
	q := MustParse(`products WHERE category = "shoes" AND price < 100 AND stock > 0`)
	doc := docOf(map[string]any{"category": "shoes", "price": 50.0, "stock": int64(5)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Match(doc)
	}
}

func BenchmarkQueryApply1k(b *testing.B) {
	docs := make([]Doc, 1000)
	for i := range docs {
		docs[i] = NewDoc(fmt.Sprintf("p%d", i), map[string]any{"price": float64(i % 200), "category": "shoes"})
	}
	q := MustParse(`products WHERE price < 100 ORDER BY price LIMIT 20`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Apply(docs)
	}
}

func ids(docs []Doc) string {
	var out []string
	for _, d := range docs {
		out = append(out, d.ID())
	}
	return strings.Join(out, ",")
}

// Rows that tie on the sort key come out by ID whatever order they were
// offered in, and rows that tie on both in the order of offering; without
// a sort field the ID is the whole order.
func TestQueryApplyTieOrder(t *testing.T) {
	docs := []Doc{
		NewDoc("c", map[string]any{"v": 1}),
		NewDoc("a", map[string]any{"v": 2}),
		NewDoc("b", map[string]any{"v": 1}),
		NewDoc("a", map[string]any{"v": 2, "second": true}),
		NewDoc("d", map[string]any{}),
	}
	for _, c := range []struct {
		q    Query
		want string
	}{
		{New("x", nil), "a,a,b,c,d"},
		{New("x", nil).WithLimit(3), "a,a,b"},
		{New("x", nil).OrderBy("v", false), "b,c,a,a,d"},
		{New("x", nil).OrderBy("v", true), "a,a,b,c,d"},
		{New("x", nil).OrderBy("v", true).WithLimit(1), "a"},
		{New("x", nil).OrderBy("absent", true).WithLimit(2), "a,a"},
	} {
		got := c.q.Apply(docs)
		if ids(got) != c.want {
			t.Errorf("%s: got %s, want %s", c.q.ID(), ids(got), c.want)
		}
		if len(got) > 1 && got[0].ID() == "a" && got[1].ID() == "a" {
			if _, second := got[0].Lookup("second"); second {
				t.Errorf("%s: equal IDs out of offering order", c.q.ID())
			}
		}
	}
}

// With a Limit the rows kept are the best, not the first: every cut of a
// shuffled collection equals the head of the full order.
func TestQueryApplyLimitKeepsTheBest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := make([]Doc, 200)
	for i := range docs {
		m := map[string]any{"v": float64(rng.Intn(40)), "s": fmt.Sprintf("s%02d", rng.Intn(40))}
		if rng.Intn(10) == 0 {
			delete(m, "v")
		}
		docs[i] = NewDoc(fmt.Sprintf("d%03d", rng.Intn(150)), m)
	}
	for _, field := range []string{"", "v", "s"} {
		for _, desc := range []bool{false, true} {
			q := New("x", Ne("v", 7.0)).OrderBy(field, desc)
			full := q.Apply(docs)
			for _, limit := range []int{1, 2, 24, 100, 199, 500} {
				got := ids(q.WithLimit(limit).Apply(docs))
				want := ids(full[:min(limit, len(full))])
				if got != want {
					t.Fatalf("sort %q desc=%v limit %d:\n got %s\nwant %s", field, desc, limit, got, want)
				}
			}
		}
	}
}

// Sort keys of more than one kind are not ordered among themselves; the
// result is then the stable sort by key of the ID-ordered matches — the
// definition every result used to be computed by.
func TestQueryApplyUnlikeKeysAreAStableSortOverIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := []any{1, 2.5, int64(3), math.NaN(), "a", "b", true, nil, map[string]any{"k": 1}}
	for round := 0; round < 200; round++ {
		docs := make([]Doc, 1+rng.Intn(60))
		for i := range docs {
			m := map[string]any{}
			if rng.Intn(5) > 0 {
				m["v"] = values[rng.Intn(len(values))]
			}
			docs[i] = NewDoc(fmt.Sprintf("d%03d", i), m)
		}
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		desc := rng.Intn(2) == 0
		q := New("x", nil).OrderBy("v", desc).WithLimit(rng.Intn(len(docs) + 2))

		want := slices.Clone(docs)
		sort.Slice(want, func(i, j int) bool { return want[i].ID() < want[j].ID() })
		sort.SliceStable(want, func(i, j int) bool {
			a, aok := want[i].Lookup("v")
			b, bok := want[j].Lookup("v")
			if !aok || !bok {
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
		if q.Limit > 0 && len(want) > q.Limit {
			want = want[:q.Limit]
		}
		if got := q.Apply(docs); ids(got) != ids(want) {
			t.Fatalf("round %d desc=%v limit %d:\n got %s\nwant %s", round, desc, q.Limit, ids(got), ids(want))
		}
	}
}
