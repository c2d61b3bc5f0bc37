package storage_test

import (
	"fmt"
	"testing"

	"speedkit/internal/clock"
	"speedkit/internal/origin"
	"speedkit/internal/query"
	"speedkit/internal/storage"
	"speedkit/internal/workload"
)

// The benchmarks behind BENCH_store.json (suite "store"). A page is the
// unit wherever a page is what the store is read for: the listing and the
// facet go through origin.Render, as a miss at the edge does.

// storefront is the deployment's store and origin (core.NewStorefront,
// cmd/speedkit-load/deploy.go): the seeded catalog, an equality index on
// category, the ten category listings and `facets` price-band pages
// `category = c AND price >= lo AND price < hi`, bands tiling [5, 205)
// per category as write_storm's do.
func storefront(b *testing.B, products, facets int) (*storage.DocumentStore, *origin.Server, []string) {
	b.Helper()
	docs := storage.NewDocumentStore(clock.System)
	docs.CreateIndex("products", "category")
	if err := workload.SeedCatalog(docs, 2, products); err != nil {
		b.Fatal(err)
	}
	org := origin.NewServer(docs, clock.System)
	b.Cleanup(org.Close)
	org.RegisterProducts("/product/", "products", "cart", "reco", "tier")
	for _, cat := range workload.Categories {
		org.RegisterQueryPage(workload.CategoryPath(cat), "Category: "+cat,
			query.New("products", query.Eq("category", cat)).OrderBy("price", false).WithLimit(24),
			"cart", "tier")
	}
	k := len(workload.Categories)
	paths := make([]string, facets)
	for j := range paths {
		c, band := j%k, j/k
		bands := float64((facets - c + k - 1) / k)
		lo, hi := 5+200*float64(band)/bands, 5+200*float64(band+1)/bands
		paths[j] = fmt.Sprintf("/facet/%s/band-%d", workload.Categories[c], band)
		org.RegisterQueryPage(paths[j], fmt.Sprintf("%s %.2f-%.2f", workload.Categories[c], lo, hi),
			query.New("products", query.And{
				query.Eq("category", workload.Categories[c]), query.Gte("price", lo), query.Lt("price", hi),
			}).OrderBy("price", false).WithLimit(24),
			"cart", "tier")
	}
	return docs, org, paths
}

func renderLoop(b *testing.B, org *origin.Server, paths []string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := org.Render(paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreListing renders the deployment's category page — Eq on
// the indexed field, ORDER BY price, LIMIT 24 — over catalog_cold's
// catalog: 5 000 candidates, all of them matches, 24 rows.
func BenchmarkStoreListing(b *testing.B) {
	b.Run("50k", func(b *testing.B) {
		_, org, _ := storefront(b, 50000, 0)
		renderLoop(b, org, []string{workload.CategoryPath("shoes"), workload.CategoryPath("hats")})
	})
}

// BenchmarkStoreFacet renders write_storm's facet pages in turn: 100
// candidates from the category posting, 0–2 of them inside the band.
func BenchmarkStoreFacet(b *testing.B) {
	b.Run("1k-2048", func(b *testing.B) {
		_, org, paths := storefront(b, 1000, 2048)
		renderLoop(b, org, paths)
	})
}

// BenchmarkStoreGet is the store's share of a product-page render.
func BenchmarkStoreGet(b *testing.B) {
	docs, _, _ := storefront(b, 1000, 0)
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = workload.ProductID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := docs.Get("products", ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePatch is one price write with the category index to
// maintain and one watcher that keeps nothing: what the store itself
// spends on a write before InvaliDB sees the event. The patches are built
// outside the loop; the caller's map is not the store's cost.
func BenchmarkStorePatch(b *testing.B) {
	docs, _, _ := storefront(b, 1000, 0)
	cancel := docs.Watch(func(storage.ChangeEvent) {})
	defer cancel()
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = workload.ProductID(i)
	}
	patches := make([]map[string]any, 64)
	for i := range patches {
		patches[i] = map[string]any{"price": 5 + float64(i*3)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := docs.Patch("products", ids[i%len(ids)], patches[i%len(patches)]); err != nil {
			b.Fatal(err)
		}
	}
}
