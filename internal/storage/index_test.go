package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/query"
)

func seededStore(t *testing.T, n int) *DocumentStore {
	t.Helper()
	s := NewDocumentStore(clock.NewSimulated(time.Time{}))
	cats := []string{"shoes", "hats", "belts"}
	for i := 0; i < n; i++ {
		err := s.Insert("products", fmt.Sprintf("p%03d", i), map[string]any{
			"category": cats[i%len(cats)],
			"price":    float64(i),
			"stock":    int64(i % 10),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestIndexLookupMatchesScan(t *testing.T) {
	s := seededStore(t, 90)
	q := query.MustParse(`products WHERE category = "shoes" AND price < 30 ORDER BY price`)

	scan := s.Query(q)
	s.CreateIndex("products", "category")
	indexed := s.Query(q)

	if len(scan) != len(indexed) {
		t.Fatalf("scan %d vs indexed %d results", len(scan), len(indexed))
	}
	for i := range scan {
		if scan[i].ID() != indexed[i].ID() {
			t.Fatalf("result %d differs: %v vs %v", i, scan[i].ID(), indexed[i].ID())
		}
	}
	st := s.IndexStats()
	if st.Lookups != 1 || st.Scans != 1 {
		t.Fatalf("index stats = %+v", st)
	}
}

func TestIndexMaintainedAcrossMutations(t *testing.T) {
	s := seededStore(t, 30)
	s.CreateIndex("products", "category")
	q := query.New("products", query.Eq("category", "shoes"))
	before := len(s.Query(q))

	// Move a hat into shoes via Patch.
	if err := s.Patch("products", "p001", map[string]any{"category": "shoes"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Query(q)); got != before+1 {
		t.Fatalf("after patch-in: %d, want %d", got, before+1)
	}
	// Move it back out via Update (full replace).
	if err := s.Update("products", "p001", map[string]any{"category": "belts"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Query(q)); got != before {
		t.Fatalf("after update-out: %d, want %d", got, before)
	}
	// Delete a shoe.
	if err := s.Delete("products", "p000"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Query(q)); got != before-1 {
		t.Fatalf("after delete: %d, want %d", got, before-1)
	}
	// Insert a new shoe.
	if err := s.Insert("products", "pnew", map[string]any{"category": "shoes"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Query(q)); got != before {
		t.Fatalf("after insert: %d, want %d", got, before)
	}
	// Removing the field via Patch(nil) drops it from the index.
	if err := s.Patch("products", "pnew", map[string]any{"category": nil}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Query(q)); got != before-1 {
		t.Fatalf("after field removal: %d, want %d", got, before-1)
	}
}

func TestIndexNumericCoercion(t *testing.T) {
	s := NewDocumentStore(clock.NewSimulated(time.Time{}))
	_ = s.Insert("c", "d1", map[string]any{"n": int64(5)})
	_ = s.Insert("c", "d2", map[string]any{"n": 5.0})
	_ = s.Insert("c", "d3", map[string]any{"n": "5"}) // string, distinct
	s.CreateIndex("c", "n")

	if got := len(s.Query(query.New("c", query.Eq("n", 5)))); got != 2 {
		t.Fatalf("numeric lookup = %d docs, want 2", got)
	}
	if got := len(s.Query(query.New("c", query.Eq("n", "5")))); got != 1 {
		t.Fatalf("string lookup = %d docs, want 1", got)
	}
}

func TestIndexBackfill(t *testing.T) {
	s := seededStore(t, 30)
	s.CreateIndex("products", "stock")
	s.CreateIndex("products", "stock") // idempotent
	r := s.Query(query.New("products", query.Eq("stock", 3)))
	if len(r) != 3 {
		t.Fatalf("backfilled lookup = %d docs", len(r))
	}
	if st := s.IndexStats(); st.Lookups != 1 || st.Scans != 0 {
		t.Fatalf("the lookup was not answered from the index: %+v", st)
	}
}

func TestIndexUnindexableValuesSkipped(t *testing.T) {
	s := NewDocumentStore(clock.NewSimulated(time.Time{}))
	_ = s.Insert("c", "d1", map[string]any{"meta": map[string]any{"x": 1}, "tag": "a"})
	s.CreateIndex("c", "meta")
	// Lookup on the map value cannot use the index (unindexable), must
	// fall back to a scan and still work.
	r := s.Query(query.New("c", query.Eq("tag", "a")))
	if len(r) != 1 {
		t.Fatalf("scan fallback = %d docs", len(r))
	}
}

func TestIndexSmallestCandidateSetChosen(t *testing.T) {
	s := NewDocumentStore(clock.NewSimulated(time.Time{}))
	// 100 docs share tag "common"; only 1 has rare="yes".
	for i := 0; i < 100; i++ {
		_ = s.Insert("c", fmt.Sprintf("d%03d", i), map[string]any{
			"tag":  "common",
			"rare": map[bool]string{true: "yes", false: "no"}[i == 42],
		})
	}
	s.CreateIndex("c", "tag")
	s.CreateIndex("c", "rare")
	q := query.New("c", query.And{query.Eq("tag", "common"), query.Eq("rare", "yes")})
	r := s.Query(q)
	if len(r) != 1 || r[0].ID() != "d042" {
		t.Fatalf("result = %v", r)
	}
}

func TestIndexPropertyEquivalentToScan(t *testing.T) {
	// Property: for random document sets and random mutations, an indexed
	// equality query returns exactly the scan result.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		indexed := NewDocumentStore(clock.NewSimulated(time.Time{}))
		plain := NewDocumentStore(clock.NewSimulated(time.Time{}))
		indexed.CreateIndex("c", "k")

		apply := func(s *DocumentStore, op int, id string, val int) {
			doc := map[string]any{"k": int64(val % 5)}
			switch op {
			case 0:
				_ = s.Insert("c", id, doc)
			case 1:
				_ = s.Update("c", id, doc)
			case 2:
				_ = s.Patch("c", id, doc)
			case 3:
				_ = s.Delete("c", id)
			}
		}
		for i := 0; i < 200; i++ {
			op := rng.Intn(4)
			id := fmt.Sprintf("d%d", rng.Intn(30))
			val := rng.Intn(10)
			apply(indexed, op, id, val)
			apply(plain, op, id, val)
		}
		for v := 0; v < 5; v++ {
			q := query.New("c", query.Eq("k", int64(v))).OrderBy("id", false)
			a, b := indexed.Query(q), plain.Query(q)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].ID() != b[i].ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueryIndexedVsScan(b *testing.B) {
	s := NewDocumentStore(clock.NewSimulated(time.Time{}))
	for i := 0; i < 10000; i++ {
		_ = s.Insert("products", fmt.Sprintf("p%05d", i), map[string]any{
			"category": fmt.Sprintf("cat%d", i%100),
			"price":    float64(i),
		})
	}
	q := query.MustParse(`products WHERE category = "cat7" ORDER BY price LIMIT 10`)

	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Query(q)
		}
	})
	s.CreateIndex("products", "category")
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Query(q)
		}
	})
}
