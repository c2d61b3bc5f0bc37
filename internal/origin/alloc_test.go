package origin

import (
	"runtime/debug"
	"sync"
	"testing"

	"speedkit/internal/clock"
	"speedkit/internal/query"
	"speedkit/internal/storage"
	"speedkit/internal/workload"
)

// TestRenderAllocations pins what a render costs on the storefront the
// load generator serves: a product page is its body and its sorted block
// names; a 24-item listing adds the query's own allocations and one
// detail link per item. The page is appended into one pooled scratch
// buffer and copied out once, and numbers are formatted from the value
// the document holds, so neither a growing builder nor a boxed number
// shows up here.
func TestRenderAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	docs := storage.NewDocumentStore(clock.System)
	docs.CreateIndex("products", "category")
	if err := workload.SeedCatalog(docs, 1, 2000); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(docs, clock.System)
	t.Cleanup(srv.Close)
	srv.RegisterProducts("/product/", "products", "cart", "reco", "tier")
	cat := workload.Categories[0]
	srv.RegisterQueryPage(workload.CategoryPath(cat), "Category: "+cat,
		query.New("products", query.Eq("category", cat)).OrderBy("price", false).WithLimit(24),
		"cart", "tier")
	for _, c := range []struct {
		path string
		want int
	}{
		{"/product/" + workload.ProductID(7), productRenderAllocs},
		{workload.CategoryPath(cat), listingRenderAllocs},
	} {
		page, err := srv.Render(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if cap(page.Body) != len(page.Body) {
			t.Fatalf("%s: body cap %d over len %d", c.path, cap(page.Body), len(page.Body))
		}
		n := testing.AllocsPerRun(100, func() { page, _ = srv.Render(c.path) })
		if n > float64(c.want) {
			t.Fatalf("rendering %s allocates %.0f, want at most %d", c.path, n, c.want)
		}
	}
}

// What a render allocates (12 and 82 while the page grew in
// strings.Builders and every number was printed through fmt.Fprint).
const (
	productRenderAllocs = 2
	listingRenderAllocs = 37
)

// TestConcurrentRendersShareNoBuffer: renders on many goroutines at once
// draw scratch buffers from one pool; each body is its own copy, equal to
// the page rendered alone.
func TestConcurrentRendersShareNoBuffer(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	paths := []string{"/", "/product/p1", "/product/p2", "/product/p3", "/category/shoes"}
	want := make(map[string]string, len(paths))
	for _, p := range paths {
		page, err := srv.Render(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = string(page.Body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 200; i++ {
				p := paths[(g+i)%len(paths)]
				page, err := srv.Render(p)
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, page.Body)
			}
			for i, body := range held {
				if p := paths[(g+i)%len(paths)]; string(body) != want[p] {
					t.Errorf("goroutine %d render %d of %s: body changed after it was returned", g, i, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// raceEnabled reports whether the test binary was built with the race
// detector: its instrumentation adds allocations (sync.Pool drops items at
// random), so allocation pins hold only without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
