// Package origin implements the first-party web service that Speed Kit
// accelerates: a storefront-style server that renders pages from the
// document store. Pages come in three flavours — static assets, product
// detail pages, and query-backed listing pages — and may embed dynamic
// blocks: named placeholders for personalized fragments (greeting, cart,
// recommendations) that are NEVER rendered into the cacheable page body.
// The client proxy fetches or computes those fragments on-device, which
// is what makes the anonymous page shell safely cacheable on shared
// infrastructure.
package origin

import (
	"errors"
	"fmt"
	"html"
	"sort"
	"strconv"
	"strings"
	"sync"

	"speedkit/internal/clock"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
)

// ErrNoRoute is returned for paths no registration covers.
var ErrNoRoute = errors.New("origin: no route")

// A dynamic-block placeholder is BlockPrefix, the block name, then
// BlockSuffix. The proxy's assembler scans shells for exactly these
// bytes.
const (
	BlockPrefix = "<!--block:"
	BlockSuffix = "-->"
)

// BlockPlaceholder renders the marker the proxy later replaces with the
// personalized fragment.
func BlockPlaceholder(name string) string {
	return BlockPrefix + name + BlockSuffix
}

// Page is one rendered, anonymous (cacheable) representation.
type Page struct {
	Path        string
	Body        []byte
	Version     uint64
	ContentType string
	// Blocks lists the dynamic block names embedded as placeholders.
	Blocks []string
	// Links lists same-site pages this page references (listing pages
	// link their items' detail pages). The client proxy may prefetch
	// them to warm its cache for the user's likely next click.
	Links []string
}

// BlockRenderer produces a personalized fragment for a user. Renderers
// run on-device (inside the client proxy) or over the first-party origin
// channel — never on shared infrastructure.
type BlockRenderer func(u *session.User) []byte

// Server renders pages and tracks per-path content versions.
type Server struct {
	docs *storage.DocumentStore
	clk  clock.Clock

	mu       sync.Mutex
	static   map[string]*staticSpec
	products map[string]*productSpec // path prefix -> spec
	queries  map[string]*querySpec   // exact path -> spec
	versions map[string]uint64
	blocks   map[string]BlockRenderer
	stats    Stats

	cancelWatch func()
}

// Stats counts origin activity.
type Stats struct {
	Renders, BlockRenders, Invalidations uint64
}

type staticSpec struct {
	body   []byte
	blocks []string
}

type productSpec struct {
	collection string
	blocks     []string
}

type querySpec struct {
	q      query.Query
	title  string
	blocks []string
}

// NewServer creates an origin over the given document store. The server
// watches the store's change stream and bumps versions of product pages
// whose backing document changes; listing pages are invalidated
// externally by the invalidation engine.
func NewServer(docs *storage.DocumentStore, clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System
	}
	s := &Server{
		docs:     docs,
		clk:      clk,
		static:   make(map[string]*staticSpec),
		products: make(map[string]*productSpec),
		queries:  make(map[string]*querySpec),
		versions: make(map[string]uint64),
		blocks:   make(map[string]BlockRenderer),
	}
	s.cancelWatch = docs.Watch(s.onChange)
	return s
}

// Close detaches the server from the change stream.
func (s *Server) Close() {
	if s.cancelWatch != nil {
		s.cancelWatch()
		s.cancelWatch = nil
	}
}

// onChange bumps product-page versions when their document changes.
func (s *Server) onChange(ev storage.ChangeEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for prefix, spec := range s.products {
		if spec.collection == ev.Collection {
			path := prefix + ev.ID
			s.versions[path]++
			s.stats.Invalidations++
		}
	}
}

// RegisterStatic serves body at path with the given dynamic blocks.
func (s *Server) RegisterStatic(path string, body []byte, blocks ...string) {
	s.mu.Lock()
	s.static[path] = &staticSpec{body: body, blocks: blocks}
	s.mu.Unlock()
}

// RegisterProducts serves documents of collection under pathPrefix+id
// (e.g. prefix "/product/" and doc "p1" → "/product/p1").
func (s *Server) RegisterProducts(pathPrefix, collection string, blocks ...string) {
	s.mu.Lock()
	s.products[pathPrefix] = &productSpec{collection: collection, blocks: blocks}
	s.mu.Unlock()
}

// RegisterQueryPage serves the query's result set at path.
func (s *Server) RegisterQueryPage(path, title string, q query.Query, blocks ...string) {
	s.mu.Lock()
	s.queries[path] = &querySpec{q: q, title: title, blocks: blocks}
	s.mu.Unlock()
}

// RegisterBlock installs a personalized fragment renderer.
func (s *Server) RegisterBlock(name string, r BlockRenderer) {
	s.mu.Lock()
	s.blocks[name] = r
	s.mu.Unlock()
}

// QueryPages returns the registered listing paths and their queries, for
// wiring into the invalidation engine.
func (s *Server) QueryPages() map[string]query.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]query.Query, len(s.queries))
	for p, spec := range s.queries {
		out[p] = spec.q
	}
	return out
}

// Version returns the current content version of path (1 if never
// invalidated).
func (s *Server) Version(path string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.versions[path] + 1
}

// Invalidate bumps the version of path (called by the invalidation engine
// for listing pages, or directly by tests).
func (s *Server) Invalidate(path string) {
	s.mu.Lock()
	s.versions[path]++
	s.stats.Invalidations++
	s.mu.Unlock()
}

// route resolves path to the registration that covers it: at most one of
// the specs is non-nil, docID names a product page's backing document.
// Callers hold mu.
func (s *Server) route(path string) (st *staticSpec, q *querySpec, p *productSpec, docID string) {
	if st = s.static[path]; st != nil {
		return st, nil, nil, ""
	}
	if q = s.queries[path]; q != nil {
		return nil, q, nil, ""
	}
	for prefix, spec := range s.products {
		if strings.HasPrefix(path, prefix) && len(path) > len(prefix) {
			return nil, nil, spec, path[len(prefix):]
		}
	}
	return nil, nil, nil, ""
}

// HasRoute reports whether some registration covers path. It does not
// check that a product page's backing document exists — only routing.
func (s *Server) HasRoute(path string) bool {
	s.mu.Lock()
	st, q, p, _ := s.route(path)
	s.mu.Unlock()
	return st != nil || q != nil || p != nil
}

// Serves reports whether Render would produce a page for path: it is
// routed and, for a product page, its backing document exists. It is the
// existence check for answers that render nothing (a 304), so that a path
// no page stands behind is never answered for, tracked or journaled.
func (s *Server) Serves(path string) bool {
	s.mu.Lock()
	st, q, p, docID := s.route(path)
	s.mu.Unlock()
	if p != nil {
		_, _, err := s.docs.Get(p.collection, docID)
		return err == nil
	}
	return st != nil || q != nil
}

// Render produces the anonymous, cacheable representation of path.
func (s *Server) Render(path string) (Page, error) {
	s.mu.Lock()
	version := s.versions[path] + 1
	st, qspec, pspec, docID := s.route(path)
	s.stats.Renders++
	s.mu.Unlock()

	switch {
	case st != nil:
		return s.renderShell(path, version, string(st.body), st.blocks), nil
	case qspec != nil:
		return s.renderQueryPage(path, version, qspec)
	case pspec != nil:
		return s.renderProductPage(path, version, pspec, docID)
	default:
		return Page{}, fmt.Errorf("%w: %s", ErrNoRoute, path)
	}
}

// renderShell wraps content, which is markup, in the page shell. Data the
// page shows goes in escaped (see writeText), so a placeholder in the shell
// is one the origin wrote: a document value that spells one, or a tag,
// arrives as text.
func (s *Server) renderShell(path string, version uint64, content string, blocks []string) Page {
	var b strings.Builder
	b.WriteString("<!doctype html><html><head><title>")
	b.WriteString(html.EscapeString(path))
	b.WriteString("</title></head><body>")
	b.WriteString(content)
	for _, name := range blocks {
		b.WriteString(`<div class="dyn" data-block="`)
		b.WriteString(name)
		b.WriteString(`">`)
		b.WriteString(BlockPlaceholder(name))
		b.WriteString("</div>")
	}
	b.WriteString("</body></html>")
	sorted := append([]string(nil), blocks...)
	sort.Strings(sorted)
	return Page{
		Path:        path,
		Body:        []byte(b.String()),
		Version:     version,
		ContentType: "text/html",
		Blocks:      sorted,
	}
}

func (s *Server) renderProductPage(path string, version uint64, spec *productSpec, docID string) (Page, error) {
	doc, _, err := s.docs.Get(spec.collection, docID)
	if err != nil {
		return Page{}, fmt.Errorf("origin: render %s: %w", path, err)
	}
	var b strings.Builder
	writeAttr(&b, "<article id=", docID)
	b.WriteString(">")
	for i := 0; i < doc.Len(); i++ {
		k, v := doc.Field(i)
		writeAttr(&b, "<p class=", k)
		b.WriteString(">")
		writeText(&b, v)
		b.WriteString("</p>")
	}
	b.WriteString("</article>")
	return s.renderShell(path, version, b.String(), spec.blocks), nil
}

// detailPrefixFor returns the product-page prefix registered for the
// collection, if any — it turns listing items into prefetchable links.
func (s *Server) detailPrefixFor(collection string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for prefix, spec := range s.products {
		if spec.collection == collection {
			return prefix, true
		}
	}
	return "", false
}

func (s *Server) renderQueryPage(path string, version uint64, spec *querySpec) (Page, error) {
	docs := s.docs.Query(spec.q)
	detailPrefix, linkable := s.detailPrefixFor(spec.q.Collection)
	var links []string
	var b strings.Builder
	b.WriteString("<h1>")
	b.WriteString(html.EscapeString(spec.title))
	b.WriteString("</h1><ul>")
	for _, d := range docs {
		// A document's own "id" field, when it has one, is what the page
		// has always shown and linked; Lookup falls back to the store ID.
		id, _ := d.Lookup("id")
		if sid, ok := id.(string); ok {
			writeAttr(&b, "<li data-id=", sid)
		} else {
			fmt.Fprintf(&b, "<li data-id=%q", id)
		}
		b.WriteString(">")
		for i := 0; i < d.Len(); i++ {
			k, v := d.Field(i)
			if k == "id" {
				continue
			}
			writeAttr(&b, "<span class=", k)
			b.WriteString(">")
			writeText(&b, v)
			b.WriteString("</span>")
		}
		b.WriteString("</li>")
		if linkable {
			links = append(links, detailPrefix+fmt.Sprint(id))
		}
	}
	b.WriteString("</ul>")
	page := s.renderShell(path, version, b.String(), spec.blocks)
	page.Links = links
	return page, nil
}

// writeAttr writes prefix and then value as a double-quoted attribute
// value, escaped. html.EscapeString hands back a string with nothing to
// escape as it is, so clean data costs no allocation.
func writeAttr(b *strings.Builder, prefix, value string) {
	b.WriteString(prefix)
	b.WriteByte('"')
	b.WriteString(html.EscapeString(value))
	b.WriteByte('"')
}

// writeText writes a document value as element text. A string is escaped,
// and so is what a list or a nested document prints, since either may hold
// strings; a number or a bool prints as %v prints it, as it cannot carry
// markup.
func writeText(b *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		b.WriteString(html.EscapeString(x))
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64:
		fmt.Fprint(b, x)
	default:
		b.WriteString(html.EscapeString(fmt.Sprint(x)))
	}
}

// RenderBlock produces the personalized fragment for a user. Unknown
// blocks render an empty fragment rather than failing the page.
func (s *Server) RenderBlock(name string, u *session.User) []byte {
	s.mu.Lock()
	r := s.blocks[name]
	s.stats.BlockRenders++
	s.mu.Unlock()
	if r == nil {
		return nil
	}
	return r(u)
}

// Stats returns a copy of the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// --- built-in block renderers ---------------------------------------------

// Renderers run once per block per page load. The greeting, cart and tier
// renderers build their fragment in one allocation sized up front.

// maxIntLen is the longest decimal rendering of an int64.
const maxIntLen = 20

// GreetingBlock renders a per-user greeting; anonymous users get a
// generic one.
func GreetingBlock(u *session.User) []byte {
	if u == nil || !u.LoggedIn {
		return []byte("<p>Welcome!</p>")
	}
	const pre, post = "<p>Welcome back, ", "!</p>"
	b := make([]byte, 0, len(pre)+len(u.Name)+len(post))
	b = append(b, pre...)
	b = append(b, u.Name...)
	return append(b, post...)
}

// CartBlock renders the cart widget from on-device state.
func CartBlock(u *session.User) []byte {
	if u == nil {
		return []byte(`<div class="cart">0 items</div>`)
	}
	const pre, post = `<div class="cart">`, ` items</div>`
	b := make([]byte, 0, len(pre)+maxIntLen+len(post))
	b = append(b, pre...)
	b = strconv.AppendInt(b, int64(u.CartSize()), 10)
	return append(b, post...)
}

// RecommendationsBlock renders recently viewed products — personalization
// computed entirely from device-local history.
func RecommendationsBlock(u *session.User) []byte {
	if u == nil || len(u.History()) == 0 {
		return []byte(`<div class="reco">Popular products</div>`)
	}
	h := u.History()
	if len(h) > 4 {
		h = h[len(h)-4:]
	}
	return []byte(fmt.Sprintf(`<div class="reco">Recently viewed: %s</div>`, strings.Join(h, ", ")))
}

// TierPriceBlock renders loyalty-tier pricing hints.
func TierPriceBlock(u *session.User) []byte {
	tier := "standard"
	if u != nil && u.LoggedIn {
		tier = u.Tier
	}
	discount := 0
	switch tier {
	case "silver":
		discount = 5
	case "gold":
		discount = 10
	}
	const pre, mid, post = `<div class="tier">`, ": ", `% off</div>`
	b := make([]byte, 0, len(pre)+len(tier)+len(mid)+maxIntLen+len(post))
	b = append(b, pre...)
	b = append(b, tier...)
	b = append(b, mid...)
	b = strconv.AppendInt(b, int64(discount), 10)
	return append(b, post...)
}
