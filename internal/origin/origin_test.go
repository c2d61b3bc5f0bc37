package origin

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/netsim"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
)

func newTestOrigin(t *testing.T) (*Server, *storage.DocumentStore, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	docs := storage.NewDocumentStore(clk)
	for _, p := range []struct {
		id    string
		price float64
		cat   string
	}{
		{"p1", 89.9, "shoes"}, {"p2", 120, "shoes"}, {"p3", 25, "hats"},
	} {
		if err := docs.Insert("products", p.id, map[string]any{"price": p.price, "category": p.cat, "name": "Item " + p.id}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(docs, clk)
	t.Cleanup(srv.Close)
	srv.RegisterStatic("/", []byte("<h1>Home</h1>"), "greeting", "cart")
	srv.RegisterProducts("/product/", "products", "cart", "reco")
	srv.RegisterQueryPage("/category/shoes", "Shoes",
		query.MustParse(`products WHERE category = "shoes" ORDER BY price`), "cart")
	srv.RegisterBlock("greeting", GreetingBlock)
	srv.RegisterBlock("cart", CartBlock)
	srv.RegisterBlock("reco", RecommendationsBlock)
	return srv, docs, clk
}

func TestRenderStatic(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	p, err := srv.Render("/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(p.Body)
	if !strings.Contains(body, "<h1>Home</h1>") {
		t.Fatalf("body missing content: %s", body)
	}
	for _, b := range []string{"greeting", "cart"} {
		if !strings.Contains(body, BlockPlaceholder(b)) {
			t.Fatalf("missing placeholder %s", b)
		}
	}
	if len(p.Blocks) != 2 || p.Blocks[0] != "cart" {
		t.Fatalf("blocks = %v", p.Blocks)
	}
	if p.Version != 1 || p.ContentType != "text/html" {
		t.Fatalf("page meta = %+v", p)
	}
}

func TestRenderProductPage(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	p, err := srv.Render("/product/p1")
	if err != nil {
		t.Fatal(err)
	}
	body := string(p.Body)
	if !strings.Contains(body, "89.9") || !strings.Contains(body, "Item p1") {
		t.Fatalf("product fields missing: %s", body)
	}
	if !strings.Contains(body, BlockPlaceholder("reco")) {
		t.Fatal("reco placeholder missing")
	}
}

// TestRenderEscapesData: what a document holds is text on the page, never
// markup. A value that spells a block placeholder would otherwise be one:
// a device fills every placeholder its shell holds, so a product could
// mint itself a user's cart fragment. Keys, values, document IDs and the
// path are escaped on the product page and on the listing alike; the
// shell's own placeholder is the only one left.
func TestRenderEscapesData(t *testing.T) {
	srv, docs, _ := newTestOrigin(t)
	const evil = BlockPrefix + "cart-->" + `<script>alert("x")</script>`
	if err := docs.Insert("products", `p"4`, map[string]any{
		"price": 1.0, "category": "shoes", "name": evil, "<b>": "bold", "tags": []any{"<i>"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{`/product/p"4`, "/category/shoes"} {
		p, err := srv.Render(path)
		if err != nil {
			t.Fatal(err)
		}
		body := string(p.Body)
		if n := strings.Count(body, BlockPlaceholder("cart")); n != 1 {
			t.Errorf("%s: %d cart placeholders, want the shell's one:\n%s", path, n, body)
		}
		for _, markup := range []string{"<script", "<b>", "<i>", `p"4`} {
			if strings.Contains(body, markup) {
				t.Errorf("%s: data rendered as markup %q:\n%s", path, markup, body)
			}
		}
		if !strings.Contains(body, "&lt;script&gt;alert(&#34;x&#34;)&lt;/script&gt;") {
			t.Errorf("%s: the value is not on the page as text:\n%s", path, body)
		}
	}
}

func TestRenderProductMissingDoc(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	if _, err := srv.Render("/product/ghost"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRenderQueryPage(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	p, err := srv.Render("/category/shoes")
	if err != nil {
		t.Fatal(err)
	}
	body := string(p.Body)
	// Ascending price: p1 (89.9) before p2 (120); p3 (hat) absent.
	i1, i2 := strings.Index(body, `data-id="p1"`), strings.Index(body, `data-id="p2"`)
	if i1 == -1 || i2 == -1 || i1 > i2 {
		t.Fatalf("listing order wrong: %s", body)
	}
	if strings.Contains(body, "p3") {
		t.Fatal("hat leaked into shoes listing")
	}
}

func TestRenderNoRoute(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	if _, err := srv.Render("/nope"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
	// A bare product prefix (no ID) is not a route either.
	if _, err := srv.Render("/product/"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestProductChangeBumpsVersion(t *testing.T) {
	srv, docs, _ := newTestOrigin(t)
	if v := srv.Version("/product/p1"); v != 1 {
		t.Fatalf("initial version = %d", v)
	}
	if err := docs.Patch("products", "p1", map[string]any{"price": 79.9}); err != nil {
		t.Fatal(err)
	}
	if v := srv.Version("/product/p1"); v != 2 {
		t.Fatalf("version after write = %d", v)
	}
	// Unrelated product unaffected.
	if v := srv.Version("/product/p2"); v != 1 {
		t.Fatalf("unrelated version = %d", v)
	}
	// Rendered page carries the new version and content.
	p, _ := srv.Render("/product/p1")
	if p.Version != 2 || !strings.Contains(string(p.Body), "79.9") {
		t.Fatalf("render after write: v=%d", p.Version)
	}
}

func TestManualInvalidate(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	srv.Invalidate("/category/shoes")
	if v := srv.Version("/category/shoes"); v != 2 {
		t.Fatalf("version = %d", v)
	}
	if srv.Stats().Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}
}

func TestQueryPagesExport(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	qp := srv.QueryPages()
	if len(qp) != 1 {
		t.Fatalf("query pages = %v", qp)
	}
	if _, ok := qp["/category/shoes"]; !ok {
		t.Fatal("shoes page missing")
	}
}

func TestCloseStopsVersionBumps(t *testing.T) {
	srv, docs, _ := newTestOrigin(t)
	srv.Close()
	_ = docs.Patch("products", "p1", map[string]any{"price": 1.0})
	if v := srv.Version("/product/p1"); v != 1 {
		t.Fatalf("closed server still bumping versions: %d", v)
	}
}

func TestRenderBlockUnknownIsEmpty(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	if b := srv.RenderBlock("ghost", nil); b != nil {
		t.Fatalf("unknown block rendered %q", b)
	}
}

func TestBuiltinBlocks(t *testing.T) {
	u := &session.User{ID: "u1", Name: "Ada", LoggedIn: true, Tier: "gold"}
	u.AddToCart("p1", 3)
	u.RecordView("p9")

	silver := &session.User{ID: "u2", LoggedIn: true, Tier: "silver"}
	for _, c := range []struct{ got, want string }{
		{string(GreetingBlock(u)), "<p>Welcome back, Ada!</p>"},
		{string(GreetingBlock(nil)), "<p>Welcome!</p>"},
		{string(CartBlock(u)), `<div class="cart">3 items</div>`},
		{string(CartBlock(nil)), `<div class="cart">0 items</div>`},
		{string(RecommendationsBlock(u)), `<div class="reco">Recently viewed: p9</div>`},
		{string(RecommendationsBlock(nil)), `<div class="reco">Popular products</div>`},
		{string(TierPriceBlock(u)), `<div class="tier">gold: 10% off</div>`},
		{string(TierPriceBlock(silver)), `<div class="tier">silver: 5% off</div>`},
		{string(TierPriceBlock(nil)), `<div class="tier">standard: 0% off</div>`},
	} {
		if c.got != c.want {
			t.Errorf("fragment %q, want %q", c.got, c.want)
		}
	}
}

// TestBuiltinBlocksAllocateOnce: a personalized fragment is one
// allocation, the fragment itself, and its append form writes into a
// buffer with room without allocating. Each form renders what the other
// does, for a user with a history longer than the reco block shows and
// for none.
func TestBuiltinBlocksAllocateOnce(t *testing.T) {
	u := &session.User{ID: "u1", Name: "Ada", LoggedIn: true, Tier: "gold"}
	u.AddToCart("p1", 3)
	for _, id := range []string{"p1", "p2", "p3", "p4", "p5"} {
		u.RecordView(id)
	}
	buf := make([]byte, 0, 256)
	for _, b := range []struct {
		name string
		r    BlockRenderer
		a    BlockAppender
	}{
		{"greeting", GreetingBlock, AppendGreeting},
		{"cart", CartBlock, AppendCart},
		{"reco", RecommendationsBlock, AppendRecommendations},
		{"tier", TierPriceBlock, AppendTierPrice},
	} {
		for _, who := range []*session.User{u, nil} {
			if got, want := string(b.a(buf[:0], who)), string(b.r(who)); got != want {
				t.Errorf("%s appends %q, renders %q", b.name, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { b.r(u) }); allocs != 1 {
			t.Errorf("%s renders in %v allocations, want 1", b.name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { b.a(buf[:0], u) }); allocs != 0 {
			t.Errorf("%s appends in %v allocations, want 0", b.name, allocs)
		}
	}
}

func TestRecommendationsBlockLimitsToFour(t *testing.T) {
	u := session.Generate(newRand(), 1, netsim.EU)
	for i := 0; i < 10; i++ {
		u.RecordView("px")
	}
	s := string(RecommendationsBlock(u))
	if strings.Count(s, "px") != 4 {
		t.Fatalf("reco shows %d items: %s", strings.Count(s, "px"), s)
	}
}

func TestHasRoute(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	cases := []struct {
		path           string
		routed, serves bool
	}{
		{"/", true, true},
		{"/category/shoes", true, true},
		{"/product/p1", true, true},
		{"/product/ghost", true, false}, // routed, but no document: Render fails, so Serves says no
		{"/product/", false, false},     // bare prefix
		{"/nope", false, false},
	}
	for _, c := range cases {
		if got := srv.HasRoute(c.path); got != c.routed {
			t.Errorf("HasRoute(%s) = %v, want %v", c.path, got, c.routed)
		}
		if got := srv.Serves(c.path); got != c.serves {
			t.Errorf("Serves(%s) = %v, want %v", c.path, got, c.serves)
		}
		if _, err := srv.Render(c.path); (err == nil) != c.serves {
			t.Errorf("Render(%s) err = %v, Serves said %v", c.path, err, c.serves)
		}
	}
}

func TestStatsCount(t *testing.T) {
	srv, _, _ := newTestOrigin(t)
	_, _ = srv.Render("/")
	srv.RenderBlock("cart", nil)
	st := srv.Stats()
	if st.Renders != 1 || st.BlockRenders != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
