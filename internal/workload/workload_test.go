package workload

import (
	"math/rand"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/storage"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Config{Seed: 1})
	b := NewGenerator(Config{Seed: 1})
	for i := 0; i < 500; i++ {
		opA, opB := a.Next(), b.Next()
		if opA != opB {
			t.Fatalf("op %d diverged: %+v vs %+v", i, opA, opB)
		}
	}
	c := NewGenerator(Config{Seed: 2})
	diff := false
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorOpMixRoughlyMatchesConfig(t *testing.T) {
	g := NewGenerator(Config{Seed: 3, WriteFraction: 0.1})
	writes, views := 0, 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		switch op.Kind {
		case UpdatePrice, UpdateStock:
			writes++
		case ViewHome, ViewCategory, ViewProduct:
			views++
		}
	}
	frac := float64(writes) / 20000
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("write fraction = %v, want ~0.1", frac)
	}
	if views == 0 {
		t.Fatal("no views generated")
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	g := NewGenerator(Config{Seed: 4, Products: 1000, WriteFraction: 0})
	counts := map[string]int{}
	total := 0
	for i := 0; i < 30000; i++ {
		op := g.Next()
		if op.Kind == ViewProduct {
			counts[op.ProductID]++
			total++
		}
	}
	// Zipf: the single most popular product should draw >10% of views,
	// and the top-10 more than half.
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	if float64(top)/float64(total) < 0.10 {
		t.Fatalf("head product only %.3f of views — not Zipfian", float64(top)/float64(total))
	}
}

func TestGeneratorFunnelShape(t *testing.T) {
	g := NewGenerator(Config{Seed: 5, Users: 10, WriteFraction: 0})
	kinds := map[OpKind]int{}
	for i := 0; i < 20000; i++ {
		kinds[g.Next().Kind]++
	}
	// Every funnel stage must be exercised.
	for _, k := range []OpKind{ViewHome, ViewCategory, ViewProduct, AddToCart, Checkout} {
		if kinds[k] == 0 {
			t.Fatalf("op kind %v never generated", k)
		}
	}
	// Funnel narrows: home >= checkout.
	if kinds[Checkout] >= kinds[ViewProduct] {
		t.Fatalf("funnel inverted: %d checkouts vs %d product views", kinds[Checkout], kinds[ViewProduct])
	}
}

func TestGeneratorGapsPositiveAndLoadConsistent(t *testing.T) {
	g := NewGenerator(Config{Seed: 6, MeanOpsPerSecond: 100, WriteFraction: 0})
	var total time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Gap < 0 {
			t.Fatal("negative gap")
		}
		total += op.Gap
	}
	opsPerSec := float64(n) / total.Seconds()
	if opsPerSec < 85 || opsPerSec > 115 {
		t.Fatalf("ops/s = %v, want ~100", opsPerSec)
	}
	if g.Elapsed() != total {
		t.Fatal("Elapsed mismatch")
	}
}

func TestGeneratorDiurnalModulation(t *testing.T) {
	g := NewGenerator(Config{Seed: 7, Diurnal: true, MeanOpsPerSecond: 10})
	// Collect per-6-hour op counts over 2 simulated days.
	buckets := map[int]int{}
	for g.Elapsed() < 48*time.Hour {
		g.Next()
		buckets[int(g.Elapsed().Hours())/6]++
	}
	// Afternoon buckets (12-18h) must outdraw night buckets (0-6h).
	night := buckets[0] + buckets[4]
	afternoon := buckets[2] + buckets[6]
	if afternoon <= night {
		t.Fatalf("diurnal curve flat: night=%d afternoon=%d", night, afternoon)
	}
}

func TestGeneratorBursts(t *testing.T) {
	g := NewGenerator(Config{Seed: 8, BurstEvery: time.Minute, BurstSize: 20,
		WriteFraction: 0, MeanOpsPerSecond: 10})
	// Scan ~5 simulated minutes; expect bursts of consecutive writes.
	maxRun, run := 0, 0
	for g.Elapsed() < 5*time.Minute {
		op := g.Next()
		if op.Kind.IsWrite() && op.Kind != Checkout {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 15 {
		t.Fatalf("max write run = %d, want a burst of ~20", maxRun)
	}
}

func TestOpKindStringAndIsWrite(t *testing.T) {
	for k := ViewHome; k <= UpdateStock; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if OpKind(99).String() != "unknown" {
		t.Fatal("unknown kind named")
	}
	if !UpdatePrice.IsWrite() || !Checkout.IsWrite() || ViewHome.IsWrite() || AddToCart.IsWrite() {
		t.Fatal("IsWrite wrong")
	}
}

func TestPathHelpers(t *testing.T) {
	if ProductID(7) != "p00007" {
		t.Fatalf("ProductID = %s", ProductID(7))
	}
	if ProductPath(7) != "/product/p00007" {
		t.Fatalf("ProductPath = %s", ProductPath(7))
	}
	if CategoryPath("shoes") != "/category/shoes" {
		t.Fatalf("CategoryPath = %s", CategoryPath("shoes"))
	}
	if CategoryOf(0) != "shoes" || CategoryOf(10) != "shoes" || CategoryOf(1) != "shirts" {
		t.Fatal("CategoryOf wrong")
	}
}

func TestSeedCatalog(t *testing.T) {
	docs := storage.NewDocumentStore(clock.NewSimulated(time.Time{}))
	if err := SeedCatalog(docs, 1, 100); err != nil {
		t.Fatal(err)
	}
	if docs.Count("products") != 100 {
		t.Fatalf("count = %d", docs.Count("products"))
	}
	doc, _, err := docs.Get("products", ProductID(42))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := doc.Lookup("price")
	price, ok := v.(float64)
	if !ok || price < 5 || price >= 205 {
		t.Fatalf("price = %v", v)
	}
	if cat, _ := doc.Lookup("category"); cat != CategoryOf(42) {
		t.Fatalf("category = %v", cat)
	}
	// Double seeding collides.
	if err := SeedCatalog(docs, 1, 10); err == nil {
		t.Fatal("double seed accepted")
	}
}

func TestApplyWrite(t *testing.T) {
	docs := storage.NewDocumentStore(clock.NewSimulated(time.Time{}))
	if err := SeedCatalog(docs, 1, 10); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	before, _, _ := docs.Get("products", ProductID(3))

	path, err := ApplyWrite(docs, rng, Op{Kind: UpdatePrice, ProductID: ProductID(3)})
	if err != nil || path != "/product/p00003" {
		t.Fatalf("path=%s err=%v", path, err)
	}
	after, _, _ := docs.Get("products", ProductID(3))
	was, _ := before.Lookup("price")
	if now, _ := after.Lookup("price"); was == now {
		t.Fatal("price unchanged")
	}

	path, err = ApplyWrite(docs, rng, Op{Kind: UpdateStock, ProductID: ProductID(3)})
	if err != nil || path == "" {
		t.Fatalf("stock write: path=%s err=%v", path, err)
	}

	path, err = ApplyWrite(docs, rng, Op{Kind: AddToCart, ProductID: ProductID(3)})
	if err != nil || path != "" {
		t.Fatalf("cart op wrote: path=%s err=%v", path, err)
	}

	if _, err := ApplyWrite(docs, rng, Op{Kind: UpdatePrice, ProductID: "ghost"}); err == nil {
		t.Fatal("write to missing product accepted")
	}
}
