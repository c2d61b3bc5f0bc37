package invalidb

import (
	"fmt"
	"testing"

	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// broadFixture registers `queries` one-sided range queries spread evenly
// over `collections` collections and a round-robin stream of price
// updates. ≈45 % of a collection's queries match each event (Gte over a
// uniform threshold), so the event's cost is the hits it must classify,
// sort and report: the index has little to prune.
func broadFixture(queries, collections int) (*Engine, []storage.ChangeEvent) {
	e := New(Config{})
	for i := 0; i < queries; i++ {
		coll := fmt.Sprintf("coll-%03d", i%collections)
		e.Register(fmt.Sprintf("reg-%05d", i), query.Query{
			Collection: coll,
			Filter:     query.Gte("price", float64(i%100)),
		})
	}
	events := make([]storage.ChangeEvent, 256)
	for i := range events {
		coll, id := fmt.Sprintf("coll-%03d", i%collections), fmt.Sprintf("doc-%04d", i)
		events[i] = storage.ChangeEvent{
			Collection: coll,
			ID:         id,
			Kind:       storage.ChangeUpdate,
			Before:     query.NewDoc(id, map[string]any{"price": float64(40 + i%10)}),
			After:      query.NewDoc(id, map[string]any{"price": float64(45 + i%10)}),
			Version:    uint64(i + 1),
		}
	}
	return e, events
}

// selectiveFixture is the write_storm shape of cmd/speedkit-load:
// `queries` facet pages `category = c AND price >= lo AND price < hi`
// over 10 categories in one collection, and price updates that move a
// product within or across its category's bands. An event matches 1–2
// queries however many are registered.
func selectiveFixture(queries int) (*Engine, []storage.ChangeEvent) {
	const categories = 10
	e := New(Config{})
	bands := queries / categories
	for i := 0; i < queries; i++ {
		band := i / categories
		e.Register(fmt.Sprintf("/facet/c%d/band-%04d", i%categories, band), query.Query{
			Collection: "products",
			Filter: query.And{
				query.Eq("category", fmt.Sprintf("c%d", i%categories)),
				query.Gte("price", float64(band*5)),
				query.Lt("price", float64(band*5+5)),
			},
		})
	}
	events := make([]storage.ChangeEvent, 256)
	for i := range events {
		cat, id := fmt.Sprintf("c%d", i%categories), fmt.Sprintf("p-%04d", i)
		price := float64((i*37)%(bands*5)) + 0.5
		events[i] = storage.ChangeEvent{
			Collection: "products",
			ID:         id,
			Kind:       storage.ChangeUpdate,
			Before:     query.NewDoc(id, map[string]any{"category": cat, "price": price, "stock": int64(i)}),
			After:      query.NewDoc(id, map[string]any{"category": cat, "price": price + float64(i%7), "stock": int64(i)}),
			Version:    uint64(i + 1),
		}
	}
	return e, events
}

// BenchmarkInvalidationMatching measures per-event matching cost on the
// two shapes that bound it. This is the bench behind
// BENCH_invalidation.json (suite "invalidation-matching"): `selective`
// costs what its 1–2 hits cost, not what 2 048 registrations would
// (TestProcessCostFollowsHits holds the allocations to that), and `broad`
// is the output-bound case the index cannot help.
func BenchmarkInvalidationMatching(b *testing.B) {
	run := func(e *Engine, events []storage.ChangeEvent) func(*testing.B) {
		return func(b *testing.B) {
			e.Process(events[0]) // build the index outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Process(events[i%len(events)])
			}
		}
	}
	b.Run("selective", run(selectiveFixture(2048)))
	b.Run("broad", run(broadFixture(1024, 64)))
}
