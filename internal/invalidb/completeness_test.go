package invalidb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// TestInvalidationCompleteness is the semantic guarantee the cached
// listing pages depend on: whenever a mutation changes a registered
// query's rendered result set, the engine must emit an invalidation for
// that query (missing one would mean a permanently stale page, which no
// Δ can fix). The test compares the engine's signals against ground
// truth computed by re-evaluating every query before and after each of a
// few thousand random mutations.
func TestInvalidationCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	docs := storage.NewDocumentStore(nil)
	eng := New(Config{})

	queries := map[string]query.Query{
		"/cheap":       query.MustParse(`items WHERE price < 50 ORDER BY price`),
		"/mid":         query.MustParse(`items WHERE price >= 50 AND price < 150 ORDER BY price DESC LIMIT 5`),
		"/cat-a":       query.MustParse(`items WHERE cat = "a"`),
		"/cat-b-cheap": query.MustParse(`items WHERE cat = "b" AND price < 100 LIMIT 3`),
		"/named":       query.MustParse(`items WHERE name CONTAINS "x" ORDER BY name`),
		"/all":         query.New("items", nil).WithLimit(10),
		// Pages defined by the ID a document is stored under, which is no
		// field of it: the store and the matcher must read it alike.
		"/one":      query.MustParse(`items WHERE id = "d07"`),
		"/featured": query.MustParse(`items WHERE id IN ["d01", "d02", "d13"] ORDER BY price`),
		"/by-id":    query.MustParse(`items WHERE price < 100 ORDER BY id DESC LIMIT 4`),
	}
	for id, q := range queries {
		eng.Register(id, q)
	}

	var fired map[string]bool
	defer docs.Watch(func(ev storage.ChangeEvent) {
		for _, inv := range eng.Process(ev) {
			fired[inv.RegistrationID] = true
		}
	})()

	snapshot := func() map[string][]query.Doc {
		out := make(map[string][]query.Doc, len(queries))
		for id, q := range queries {
			out[id] = docs.Query(q)
		}
		return out
	}

	randomDoc := func() map[string]any {
		name := ""
		if rng.Float64() < 0.5 {
			name = fmt.Sprintf("x-%d", rng.Intn(5))
		} else {
			name = fmt.Sprintf("y-%d", rng.Intn(5))
		}
		return map[string]any{
			"price": float64(rng.Intn(200)),
			"cat":   []string{"a", "b", "c"}[rng.Intn(3)],
			"name":  name,
		}
	}

	ids := make([]string, 25)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%02d", i)
	}

	misses := 0
	for step := 0; step < 3000; step++ {
		before := snapshot()
		fired = map[string]bool{}

		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(3) {
		case 0:
			// Upsert handles both insert and replace.
			docs.Upsert("items", id, randomDoc())
		case 1:
			_ = docs.Patch("items", id, map[string]any{"price": float64(rng.Intn(200))})
		case 2:
			_ = docs.Delete("items", id)
		}

		after := snapshot()
		for qid := range queries {
			if !reflect.DeepEqual(before[qid], after[qid]) && !fired[qid] {
				misses++
				t.Errorf("step %d: result of %s changed without invalidation", step, qid)
				if misses > 5 {
					t.Fatal("too many completeness misses")
				}
			}
		}
	}
}

// TestInvalidationPrecisionBound quantifies over-invalidation: signals
// for queries whose rendered result did NOT change (legal but each one
// costs a purge). For this LIMIT 3 query over ~10 matching docs, most
// membership changes happen beyond the cutoff, so a majority of signals
// are spurious by construction — the engine matches predicates, not
// result windows. The bound documents that trade-off; pushing precision
// higher would require the matcher to maintain materialized top-K state
// per query (the design the paper family's InvaliDB implements for its
// sorted real-time queries).
func TestInvalidationPrecisionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := storage.NewDocumentStore(nil)
	eng := New(Config{})
	q := query.MustParse(`items WHERE price < 100 ORDER BY price LIMIT 3`)
	eng.Register("/q", q)

	var signals int
	defer docs.Watch(func(ev storage.ChangeEvent) { signals += len(eng.Process(ev)) })()

	spurious := 0
	for step := 0; step < 2000; step++ {
		before := docs.Query(q)
		sigBefore := signals
		id := fmt.Sprintf("d%d", rng.Intn(20))
		docs.Upsert("items", id, map[string]any{"price": float64(rng.Intn(200))})
		if signals > sigBefore {
			after := docs.Query(q)
			if reflect.DeepEqual(before, after) {
				spurious++
			}
		}
	}
	if signals == 0 {
		t.Fatal("vacuous: no signals at all")
	}
	if ratio := float64(spurious) / float64(signals); ratio > 0.8 {
		t.Fatalf("spurious invalidation ratio %.2f too high (%d/%d)", ratio, spurious, signals)
	}
	// And never a completeness miss: every real change must have fired.
	// (Covered exhaustively by TestInvalidationCompleteness.)
}
