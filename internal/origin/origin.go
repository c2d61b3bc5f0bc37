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
		return s.renderShell(path, version, st.body, st.blocks), nil
	case qspec != nil:
		return s.renderQueryPage(path, version, qspec)
	case pspec != nil:
		return s.renderProductPage(path, version, pspec, docID)
	default:
		return Page{}, fmt.Errorf("%w: %s", ErrNoRoute, path)
	}
}

// renderBufs holds the scratch buffers a render appends its page into,
// before the page is copied once into a body of its exact size.
var renderBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// maxPooledBuf bounds the scratch buffer a render hands back to the pool:
// one huge page must not pin its buffer for every render after it.
const maxPooledBuf = 1 << 20

// openPage takes a scratch buffer and appends the shell's head for path
// to it; the page's content follows, and closePage ends it.
func openPage(path string) (*[]byte, []byte) {
	bp := renderBufs.Get().(*[]byte)
	b := append((*bp)[:0], "<!doctype html><html><head><title>"...)
	b = append(b, html.EscapeString(path)...)
	return bp, append(b, "</title></head><body>"...)
}

// closePage appends the shell's tail, one placeholder per block, to b,
// copies the page out of the scratch buffer bp into a body of its exact
// size and hands the buffer back. Data the page shows went in escaped
// (see appendText), so a placeholder in the shell is one the origin wrote:
// a document value that spells one, or a tag, arrives as text.
func closePage(bp *[]byte, b []byte, path string, version uint64, blocks []string) Page {
	for _, name := range blocks {
		b = append(b, `<div class="dyn" data-block="`...)
		b = append(b, name...)
		b = append(b, `">`...)
		b = append(b, BlockPrefix...)
		b = append(b, name...)
		b = append(b, BlockSuffix...)
		b = append(b, "</div>"...)
	}
	b = append(b, "</body></html>"...)
	body := append(make([]byte, 0, len(b)), b...)
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		renderBufs.Put(bp)
	}
	sorted := append([]string(nil), blocks...)
	sort.Strings(sorted)
	return Page{
		Path:        path,
		Body:        body,
		Version:     version,
		ContentType: "text/html",
		Blocks:      sorted,
	}
}

// renderShell wraps content, which is markup, in the page shell.
func (s *Server) renderShell(path string, version uint64, content []byte, blocks []string) Page {
	bp, b := openPage(path)
	return closePage(bp, append(b, content...), path, version, blocks)
}

func (s *Server) renderProductPage(path string, version uint64, spec *productSpec, docID string) (Page, error) {
	doc, _, err := s.docs.Get(spec.collection, docID)
	if err != nil {
		return Page{}, fmt.Errorf("origin: render %s: %w", path, err)
	}
	bp, b := openPage(path)
	b = appendAttr(b, "<article id=", docID)
	b = append(b, '>')
	for i := 0; i < doc.Len(); i++ {
		k, v := doc.Field(i)
		b = appendAttr(b, "<p class=", k)
		b = append(b, '>')
		b = appendText(b, v)
		b = append(b, "</p>"...)
	}
	b = append(b, "</article>"...)
	return closePage(bp, b, path, version, spec.blocks), nil
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
	if linkable {
		links = make([]string, 0, len(docs))
	}
	bp, b := openPage(path)
	b = append(b, "<h1>"...)
	b = append(b, html.EscapeString(spec.title)...)
	b = append(b, "</h1><ul>"...)
	for _, d := range docs {
		// A document's own "id" field, when it has one, is what the page
		// has always shown and linked; Lookup falls back to the store ID.
		id, _ := d.Lookup("id")
		sid, isString := id.(string)
		if isString {
			b = appendAttr(b, "<li data-id=", sid)
		} else {
			b = fmt.Appendf(b, "<li data-id=%q", id)
		}
		b = append(b, '>')
		for i := 0; i < d.Len(); i++ {
			k, v := d.Field(i)
			if k == "id" {
				continue
			}
			b = appendAttr(b, "<span class=", k)
			b = append(b, '>')
			b = appendText(b, v)
			b = append(b, "</span>"...)
		}
		b = append(b, "</li>"...)
		if linkable {
			if !isString {
				sid = fmt.Sprint(id)
			}
			links = append(links, detailPrefix+sid)
		}
	}
	b = append(b, "</ul>"...)
	page := closePage(bp, b, path, version, spec.blocks)
	page.Links = links
	return page, nil
}

// appendAttr appends prefix and then value as a double-quoted attribute
// value, escaped. html.EscapeString hands back a string with nothing to
// escape as it is, so clean data costs no allocation.
func appendAttr(b []byte, prefix, value string) []byte {
	b = append(b, prefix...)
	b = append(b, '"')
	b = append(b, html.EscapeString(value)...)
	return append(b, '"')
}

// appendText appends a document value as element text. A string is
// escaped, and so is what a list or a nested document prints, since either
// may hold strings; a number or a bool prints as %v prints it, as it
// cannot carry markup, straight from the value the document holds.
func appendText(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return append(b, html.EscapeString(x)...)
	case bool, int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, float32, float64:
		return fmt.Append(b, x)
	default:
		return append(b, html.EscapeString(fmt.Sprint(x))...)
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

// Renderers run once per block per page load. Each built-in comes in two
// forms: AppendX appends the fragment to a buffer the caller owns, which
// is how a device writes it straight into the page it assembles, and XBlock
// renders it into one allocation sized up front, which is what the origin
// answers a blocks request with (RegisterBlock).

// BlockAppender is the append form of a BlockRenderer: it appends the
// fragment for u to dst and returns the extended buffer.
type BlockAppender func(dst []byte, u *session.User) []byte

// maxIntLen is the longest decimal rendering of an int64.
const maxIntLen = 20

const (
	greetingAnon              = "<p>Welcome!</p>"
	greetingPre, greetingPost = "<p>Welcome back, ", "!</p>"
)

// AppendGreeting appends a per-user greeting; anonymous users get a
// generic one.
func AppendGreeting(dst []byte, u *session.User) []byte {
	if u == nil || !u.LoggedIn {
		return append(dst, greetingAnon...)
	}
	dst = append(dst, greetingPre...)
	dst = append(dst, u.Name...)
	return append(dst, greetingPost...)
}

// GreetingBlock renders AppendGreeting's fragment.
func GreetingBlock(u *session.User) []byte {
	n := len(greetingAnon)
	if u != nil && u.LoggedIn {
		n = len(greetingPre) + len(u.Name) + len(greetingPost)
	}
	return AppendGreeting(make([]byte, 0, n), u)
}

const cartPre, cartPost = `<div class="cart">`, ` items</div>`

// AppendCart appends the cart widget, rendered from on-device state.
func AppendCart(dst []byte, u *session.User) []byte {
	n := 0
	if u != nil {
		n = u.CartSize()
	}
	dst = append(dst, cartPre...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, cartPost...)
}

// CartBlock renders AppendCart's fragment.
func CartBlock(u *session.User) []byte {
	return AppendCart(make([]byte, 0, len(cartPre)+maxIntLen+len(cartPost)), u)
}

// recoItems is how many recently viewed products the reco block lists.
const recoItems = 4

const (
	recoPopular       = `<div class="reco">Popular products</div>`
	recoPre, recoPost = `<div class="reco">Recently viewed: `, `</div>`
	recoSep           = ", "
)

// AppendRecommendations appends the user's recently viewed products —
// personalization computed entirely from device-local history.
func AppendRecommendations(dst []byte, u *session.User) []byte {
	var buf [recoItems]string
	return appendReco(dst, recent(buf[:0], u))
}

// RecommendationsBlock renders AppendRecommendations' fragment.
func RecommendationsBlock(u *session.User) []byte {
	var buf [recoItems]string
	ids := recent(buf[:0], u)
	n := len(recoPopular)
	if len(ids) > 0 {
		n = len(recoPre) + len(recoPost) + (len(ids)-1)*len(recoSep)
		for _, id := range ids {
			n += len(id)
		}
	}
	return appendReco(make([]byte, 0, n), ids)
}

// recent appends u's last recoItems views to dst (none for no user).
func recent(dst []string, u *session.User) []string {
	if u == nil {
		return dst
	}
	return u.AppendRecent(dst, recoItems)
}

// appendReco appends the reco fragment listing ids, or the generic one
// when there are none.
func appendReco(dst []byte, ids []string) []byte {
	if len(ids) == 0 {
		return append(dst, recoPopular...)
	}
	dst = append(dst, recoPre...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, recoSep...)
		}
		dst = append(dst, id...)
	}
	return append(dst, recoPost...)
}

const tierPre, tierMid, tierPost = `<div class="tier">`, ": ", `% off</div>`

// AppendTierPrice appends loyalty-tier pricing hints.
func AppendTierPrice(dst []byte, u *session.User) []byte {
	tier, discount := tierOf(u)
	dst = append(dst, tierPre...)
	dst = append(dst, tier...)
	dst = append(dst, tierMid...)
	dst = strconv.AppendInt(dst, int64(discount), 10)
	return append(dst, tierPost...)
}

// TierPriceBlock renders AppendTierPrice's fragment.
func TierPriceBlock(u *session.User) []byte {
	tier, _ := tierOf(u)
	return AppendTierPrice(make([]byte, 0, len(tierPre)+len(tier)+len(tierMid)+maxIntLen+len(tierPost)), u)
}

// tierOf is u's loyalty tier and its discount in percent; anonymous
// users price at "standard".
func tierOf(u *session.User) (string, int) {
	tier := "standard"
	if u != nil && u.LoggedIn {
		tier = u.Tier
	}
	switch tier {
	case "silver":
		return tier, 5
	case "gold":
		return tier, 10
	}
	return tier, 0
}
