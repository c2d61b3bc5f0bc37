package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"speedkit/internal/workload"
)

type opKind uint8

const (
	opLoad opKind = iota
	opWrite
)

// op is one visitor action. The op list is generated from the seed
// before timing starts; the program under test sees only the ops.
type op struct {
	kind opKind
	// fresh starts a new device (empty cache, new sketch) before a load.
	fresh bool
	// arg is the page path of a load, or the query string of a write.
	arg string
}

// opGen draws ops for one visitor of one workload.
type opGen struct {
	w     *mix
	rng   *rand.Rand
	zipf  *rand.Zipf
	facet *rand.Zipf
	paths *pathTable
	loads int
	// n counts ops drawn; writeAt is the write's place in the current
	// block of writePeriod ops.
	n, writeAt int
}

// writePeriod is the block of ops that holds exactly one write, at a
// random place: runs then differ in which ops are writes, not in how
// many, and the per-op counts of a workload that writes repeat.
func (w *mix) writePeriod() int { return int(math.Round(1 / w.writeShare)) }

// pathTable interns every page path of a workload so op lists share
// their strings.
type pathTable struct {
	products   []string
	categories []string
	facets     []string
}

func newPathTable(w *mix) *pathTable {
	t := &pathTable{products: make([]string, w.products)}
	for i := range t.products {
		t.products[i] = workload.ProductPath(i)
	}
	for _, c := range workload.Categories {
		t.categories = append(t.categories, workload.CategoryPath(c))
	}
	for j := 0; j < w.facets; j++ {
		t.facets = append(t.facets, facetPath(j))
	}
	return t
}

// Facet page j lists one price band of one category: categories
// round-robin over j, bands count up.
func facetCategory(j int) int { return j % len(workload.Categories) }
func facetBand(j int) int     { return j / len(workload.Categories) }

func facetPath(j int) string {
	return "/facet/" + workload.Categories[facetCategory(j)] + "/band-" + strconv.Itoa(facetBand(j))
}

// facetBands is how many bands category c has when n facet pages are
// spread round-robin over the categories.
func facetBands(n, c int) int {
	k := len(workload.Categories)
	return (n - c + k - 1) / k
}

// Catalog prices lie in [priceLo, priceLo+priceSpan), as SeedCatalog
// and the write ops draw them.
const (
	priceLo   = 5.0
	priceSpan = 200.0
)

// facetRange is the half-open price band [lo, hi) of facet page j. The
// bands of one category are disjoint and cover the price range, so a
// price write leaves one band and enters another.
func facetRange(n, j int) (lo, hi float64) {
	bands := float64(facetBands(n, facetCategory(j)))
	b := float64(facetBand(j))
	return priceLo + priceSpan*b/bands, priceLo + priceSpan*(b+1)/bands
}

// newOpGen seeds a generator. salt separates the warm-up list from the
// measured one; visitor separates the visitors.
func newOpGen(w *mix, paths *pathTable, seed int64, salt, visitor int) *opGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(salt)*7919 + int64(visitor)))
	g := &opGen{w: w, rng: rng, paths: paths}
	if w.zipf {
		g.zipf = rand.NewZipf(rng, 1.07, 1, uint64(w.products-1))
	}
	if w.facets > 0 {
		g.facet = rand.NewZipf(rng, 1.07, 1, uint64(w.facets-1))
	}
	return g
}

func (g *opGen) product() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.w.products)
}

func (g *opGen) next() op {
	if g.w.writeShare == 0 {
		return g.load()
	}
	at := g.n % g.w.writePeriod()
	if at == 0 {
		g.writeAt = g.rng.Intn(g.w.writePeriod())
	}
	g.n++
	if at != g.writeAt {
		return g.load()
	}
	id := workload.ProductID(g.product())
	// 60% price, 40% stock, as workload.Generator mixes them.
	if g.rng.Float64() < 0.4 {
		return op{kind: opWrite, arg: "product=" + id + "&stock=" + strconv.Itoa(g.rng.Intn(100))}
	}
	price := priceLo + g.rng.Float64()*priceSpan
	return op{kind: opWrite, arg: "product=" + id + "&price=" + strconv.FormatFloat(price, 'f', 2, 64)}
}

func (g *opGen) load() op {
	o := op{kind: opLoad, fresh: g.loads%g.w.session == 0}
	g.loads++
	// The internal/workload path mix: 10% home, 20% listing, 70% product.
	switch r := g.rng.Float64(); {
	case r < 0.1:
		o.arg = "/"
	case r < 0.3 && g.facet != nil:
		o.arg = g.paths.facets[g.facet.Uint64()]
	case r < 0.3:
		o.arg = g.paths.categories[g.product()%len(g.paths.categories)]
	default:
		o.arg = g.paths.products[g.product()]
	}
	return o
}

func (g *opGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// opLists generates n ops per visitor.
func opLists(w *mix, paths *pathTable, seed int64, salt, visitors, n int) [][]op {
	lists := make([][]op, visitors)
	for v := range lists {
		lists[v] = newOpGen(w, paths, seed, salt, v).take(n)
	}
	return lists
}

// opsHash is FNV-1a over every op of every visitor: equal seeds give
// equal hashes.
func opsHash(lists [][]op) uint32 {
	h := fnv.New32a()
	for v, ops := range lists {
		fmt.Fprintf(h, "v%d\n", v)
		for _, o := range ops {
			fmt.Fprintf(h, "%d %t %s\n", o.kind, o.fresh, o.arg)
		}
	}
	return h.Sum32()
}
