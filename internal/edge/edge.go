// Package edge implements a streaming HTTP caching reverse proxy in
// front of a speedkit-server: the CDN tier of the paper promoted from
// an in-process simulator to a real socket.
//
// Protocol behavior:
//
//   - The edge answers exactly three routes: GET /v1/page, GET /v1/sketch
//     and POST /v1/purge, beside its own GET /healthz and /metrics. Any other
//     method or path is a 404 in the JSON envelope, answered by the edge
//     itself: it makes no upstream request and echoes nothing of the
//     request back. The personalized /v1/blocks API is the origin's alone;
//     a device sends it there, never through the shared tier, so no user
//     ID, cookie or request body ever reaches the edge to be leaked.
//   - Page fetches are cached, keyed by the ?path= value — the same key
//     space the Cache Sketch and the invalidation pipeline speak.
//     Cacheability is decided by the upstream's Cache-Control and the
//     sketch, never by URL heuristics: path-pattern cacheability is
//     exactly the web-cache-deception trap, where an attacker-shaped URL
//     tricks the edge into storing a personalized response under a
//     "static" key. Freshness is the max-age the upstream states; an
//     answer that states none is stored already expired and revalidated
//     before it is served.
//   - GET /v1/sketch is answered from the copy the edge polls, with the
//     Age it has reached, for as long as that is below the max-age the
//     copy came with; past it the edge fetches a new one first (see
//     serveSketch). The sketch is anonymous by construction, so holding
//     it teaches the edge nothing.
//   - Concurrent misses for one key coalesce into a single origin
//     fetch; late joiners stream the shared in-flight body (see fill).
//   - The held sketch is the edge's invalidation feed: no tier pushes
//     purges to it. Hits whose key the Bloom sketch flags on a generation
//     newer than the one held when the copy was requested (its watermark)
//     are revalidated upstream with If-None-Match; a 304 renews the entry
//     without moving the body again. So is every entry stored before the
//     held sketch's epoch was installed: an upstream that restarted
//     without its history vouches for none of them. Client If-None-Match
//     gets 304s locally.
//   - A hit needs a sketch that vouches for it. The edge holds its sketch
//     in a cachesketch.Client, the device's holder, with Δ the max-age the
//     sketch came with: while it holds none, or the one it holds is Δ old,
//     every TTL-fresh hit is revalidated instead and counted as degraded.
//     An edge cut off from its server so stops vouching for its copies
//     after Δ, as a device does.
//   - Every upstream answer reaches the device through one header
//     allow-list (relay); nothing else the upstream sends is relayed.
//   - An answer's header values are formatted once: an entry's ETag and
//     Content-Length when the entry is made, the rest into one values
//     array per answer (see values), the X-Edge-Cache states not at all.
//   - Every page answer states a sketch epoch (X-Sketch-Epoch): a hit the
//     held sketch's, the only epoch the edge serves hits under; a relayed
//     or refreshed answer the upstream's.
//   - Entries, purges and the sketch epoch are journaled to a
//     WAL-plus-snapshot disk tier (see disk.go); a restart recovers the
//     cache crash-safely, warm against the same upstream epoch.
//
// GDPR boundary: this package is shared infrastructure. It must never
// reach internal/session or internal/gdpr, through any import — the edge
// caches only sketch-governed public representations and carries only
// anonymous trace identifiers (internal/tracectx). It counts into an
// obs registry of its own (speedkit.edge.*, see metrics.go), which links
// neither. The gdprboundary and piiflow analyzers enforce this at lint
// time; the smoke gate's PII byte-scan enforces it over the disk tier
// and the /metrics scrape at run time.
package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/httpbody"
	"speedkit/internal/tracectx"
)

// Metadata keys stored per entry. metaETag and metaLength are header
// values every answer from the entry states unchanged, formatted once where
// the entry is made (answerMeta).
const (
	metaGen         = "sketch-gen"
	metaContentType = "content-type"
	metaETag        = "etag"
	metaLength      = "content-length"
)

// fillTimeout is the longest deadline an upstream request gets: New
// bounds the upstream client's Timeout by it, and that Timeout is the
// deadline of a coalesced origin fetch detached from its leader's request
// context, so a hung upstream still releases the followers.
const fillTimeout = 60 * time.Second

// unsizedReserve is the first buffer of a fill whose upstream declared no
// length (or one too large to reserve on its word), grown geometrically
// past it. The server's page answers always declare theirs.
const unsizedReserve = 4096

// Options parameterizes a Proxy.
type Options struct {
	// Upstream is the speedkit-server base URL (e.g. "http://host:8080").
	Upstream string
	// Client is the upstream client: its Transport carries every upstream
	// request, under its Timeout (see httpbody.Sender), and nil is a 10 s
	// timeout over http.DefaultTransport. The Timeout is the deadline of a
	// fill detached from its leader too, so a client with no Timeout, or
	// one longer than 60 s, is used through a copy bounded at 60 s; the
	// client passed in is left as it is. No redirect is followed: an
	// upstream 3xx is relayed, and stored under no key.
	Client *http.Client
	// Clock drives expiry and Age math (default the system clock).
	Clock clock.Clock
	// CacheDir enables the disk tier when non-empty.
	CacheDir string
	// MaxEntries bounds the in-memory cache (default 4096).
	MaxEntries int
	// SnapshotEvery is the disk-tier journal-records-per-snapshot
	// cadence (default 256).
	SnapshotEvery int
	// Faults optionally injects disk-tier crashes (smoke gate).
	Faults *faults.Injector
}

// Proxy is the edge cache. It implements http.Handler: the protocol's
// three routes and the edge's own operational endpoints.
type Proxy struct {
	upstream string
	send     httpbody.Sender
	clk      clock.Clock

	mem  *cache.Store
	disk *diskTier
	m    metrics

	// sketch holds the sketch the edge installed last, its epoch mark and
	// Δ (the max-age it came with), by the rules a device holds its own.
	sketch *cachesketch.Client
	// sketchMu is held across an on-demand sketch fetch (freshSketch), so
	// the requests waiting on one expired copy share one upstream fetch.
	sketchMu sync.Mutex

	fillsMu sync.Mutex
	fills   map[string]*fill
}

// New builds a Proxy and, when Options.CacheDir is set, recovers the
// disk tier into memory.
func New(o Options) (*Proxy, RecoveryInfo, error) {
	if o.Client != nil {
		if t := o.Client.Timeout; t <= 0 || t > fillTimeout {
			hc := *o.Client
			hc.Timeout = fillTimeout
			o.Client = &hc
		}
	}
	if o.Clock == nil {
		o.Clock = clock.System
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	p := &Proxy{
		upstream: strings.TrimRight(o.Upstream, "/"),
		send:     httpbody.NewSender(o.Client),
		clk:      o.Clock,
		mem:      cache.New(cache.Config{MaxItems: o.MaxEntries, Clock: o.Clock}),
		m:        newMetrics(),
		sketch:   cachesketch.NewClient(o.Clock, 0),
		fills:    make(map[string]*fill),
	}
	var info RecoveryInfo
	if o.CacheDir != "" {
		var err error
		p.disk, info, err = openDisk(o.CacheDir, o.SnapshotEvery, o.Clock, o.Faults, p.mem, &p.m)
		if err != nil {
			return nil, info, err
		}
		// The recovered mark is the epoch the recovered entries were
		// stored under: a restart against the same upstream epoch stays
		// warm and still revalidates what the last epoch change left
		// unrenewed.
		if m := p.disk.mark; m != nil {
			p.sketch.Resume(m.epoch, m.since)
		}
	}
	return p, info, nil
}

// Close flushes and closes the disk tier.
func (p *Proxy) Close() error {
	if p.disk != nil {
		return p.disk.close()
	}
	return nil
}

// Stats returns a copy of the edge counters.
func (p *Proxy) Stats() Stats { return p.m.stats() }

// Crashed reports whether an injected fault killed the disk tier.
func (p *Proxy) Crashed() bool { return p.disk != nil && p.disk.crashed() }

// SketchMaxAge returns the Δ the edge has learned: the max-age the sketch
// it holds came with, zero while it holds none or the upstream stated
// none.
func (p *Proxy) SketchMaxAge() time.Duration { return p.sketch.Delta() }

// Handler returns the edge's full server surface, the protocol's routes
// and the operational endpoints every deployment needs: the Proxy itself.
func (p *Proxy) Handler() http.Handler { return p }

// ServeHTTP routes one request: purges apply locally, page fetches hit
// the cache, the sketch is answered from the edge's copy; GET or HEAD
// /healthz and /metrics are the edge's own. Nothing else is a route: the
// 404 comes from the edge, reaches no upstream and repeats nothing the
// request carried.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	get := r.Method == http.MethodGet
	read := get || r.Method == http.MethodHead
	switch {
	case get && r.URL.Path == "/v1/page":
		if key := httpbody.PathParam(r.URL.RawQuery); key != "" {
			p.servePage(w, r, key)
			return
		}
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "missing ?path=")
	case get && r.URL.Path == "/v1/sketch":
		p.serveSketch(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/purge":
		p.handlePurge(w, r)
	case read && r.URL.Path == "/healthz":
		io.WriteString(w, "ok\n")
	case read && r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.writeMetrics(w)
	default:
		httpbody.WriteError(w, http.StatusNotFound, httpbody.CodeNotFound, "no such endpoint")
	}
}

// handlePurge evicts one key, journaling the purge, and answers 204 with
// no body. No tier of the system sends purges: the held sketch carries
// every invalidation to the edge within one poll. The load harness and the
// -edge gate still POST here themselves. A purge is an idempotent eviction
// with nothing to report back, and a sender that closes the response
// unread keeps its connection only when there is no body left to discard.
//
// kept for cmd/speedkit-load (ROADMAP 13(i))
func (p *Proxy) handlePurge(w http.ResponseWriter, r *http.Request) {
	path := httpbody.PathParam(r.URL.RawQuery)
	if path == "" {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "missing ?path=")
		return
	}
	p.Purge(path)
	w.WriteHeader(http.StatusNoContent)
}

// Purge evicts key from memory and journals the eviction.
func (p *Proxy) Purge(key string) {
	p.mem.Delete(key)
	if p.disk != nil {
		p.disk.appendPurge(key)
	}
	p.m.purges.Inc()
}

// sketchAge returns the Age a response handing sn on at now states —
// rounded up, as WriteHTTP rounds it — and whether the edge may send it:
// it holds a copy, knows the max-age it came with, and the age is still
// below that. The value compared is the value written, or a copy checked
// just before a second boundary would go out just after it, dead on
// arrival.
func sketchAge(sn *cachesketch.Snapshot, now time.Time) (age time.Duration, servable bool) {
	if sn == nil {
		return 0, false
	}
	age = sn.Age(now)
	return age, age < sn.MaxAge
}

// InstallSketch hands the edge a sketch snapshot: a poll's, an on-demand
// fetch's, or one its owner already holds (tests). The edge keeps it by
// the rules a device installs by (cachesketch.Client.Install): a copy
// that does not supersede the held one is dropped, and another epoch
// moves the mark before which no stored entry is a hit unrevalidated.
// When the epoch state changes, the disk tier journals it.
func (p *Proxy) InstallSketch(sn *cachesketch.Snapshot) {
	if p.sketch.Install(sn) && p.disk != nil {
		p.disk.appendEpoch(p.sketch)
	}
}

// RefreshSketch pulls the current sketch from the upstream. The edge
// consumes the same public endpoint clients do; it holds no private
// channel into the server.
func (p *Proxy) RefreshSketch(ctx context.Context) error {
	_, err := p.fetchSketch(ctx)
	return err
}

// fetchSketch is RefreshSketch returning what it fetched.
func (p *Proxy) fetchSketch(ctx context.Context) (*cachesketch.Snapshot, error) {
	sent := p.clk.Now()
	resp, err := p.send.Send(ctx, http.MethodGet, p.upstream+"/v1/sketch", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("edge: sketch fetch: %d", resp.StatusCode)
	}
	sn, err := cachesketch.ReadHTTP(resp, sent)
	if err != nil {
		return nil, fmt.Errorf("edge: %w", err)
	}
	p.InstallSketch(sn)
	p.m.sketchRefreshes.Inc()
	return sn, nil
}

// freshSketch returns a sketch the edge may hand on now and the Age to
// state: the held copy while it is servable, else one fetched on demand —
// no copy yet, the poller behind or switched off, no max-age learned. One
// upstream fetch serves every request waiting on the same expired copy:
// the first takes sketchMu and fetches, the rest find the new copy when
// they get the lock. An expired copy is never the answer; a failed fetch
// is the error.
func (p *Proxy) freshSketch(ctx context.Context) (*cachesketch.Snapshot, time.Duration, error) {
	sn := p.sketch.Snapshot()
	if age, servable := sketchAge(sn, p.clk.Now()); servable {
		return sn, age, nil
	}
	p.sketchMu.Lock()
	defer p.sketchMu.Unlock()
	sn = p.sketch.Snapshot()
	if age, servable := sketchAge(sn, p.clk.Now()); servable {
		return sn, age, nil
	}
	sn, err := p.fetchSketch(ctx)
	if err != nil {
		return nil, 0, err
	}
	// Straight from the upstream it goes out even without a max-age, as a
	// relay would pass it; one that states a max-age and arrives past it
	// is some cache's expired copy.
	age, servable := sketchAge(sn, p.clk.Now())
	if !servable && sn.MaxAge > 0 {
		return nil, 0, fmt.Errorf("edge: upstream sketch arrived %v old, max-age %v", age, sn.MaxAge)
	}
	return sn, age, nil
}

// serveSketch answers a device's sketch fetch with the bytes the edge
// received, under the Cache-Control it learned and the Age the copy has
// reached (cachesketch.WriteHTTP). It reads nothing from the request but
// its context.
func (p *Proxy) serveSketch(w http.ResponseWriter, r *http.Request) {
	sn, age, err := p.freshSketch(r.Context())
	if err != nil {
		p.m.upstreamErrors.Inc()
		httpbody.WriteError(w, http.StatusBadGateway, httpbody.CodeUnavailable, "upstream: "+err.Error())
		return
	}
	var cacheControl string
	if sn.MaxAge > 0 {
		cacheControl = "public, max-age=" + strconv.Itoa(int(sn.MaxAge/time.Second))
	}
	w.Header()[xEdgeCache] = stateSketch
	if err := sn.WriteHTTP(w, cacheControl, age); err != nil {
		w.Header().Del(xEdgeCache)
		httpbody.WriteError(w, http.StatusInternalServerError, httpbody.CodeInternal, err.Error())
		return
	}
	p.m.sketchServes.Inc()
}

// servePage is the cache path for one page key.
func (p *Proxy) servePage(w http.ResponseWriter, r *http.Request, key string) {
	// PeekAny, not Get: Get reaps expired entries, but an expired copy
	// is still valuable — its version enables a conditional refresh
	// (saving the body transfer on 304) and its body backs the
	// serve-stale path when the upstream is down.
	e, ok := p.mem.PeekAny(key)
	if !ok {
		p.coalesce(w, r, key)
		return
	}
	if !e.Expired(p.clk.Now()) && p.vouched(key, e) {
		// Promote in the eviction order; the entry is unexpired, so this
		// cannot reap it.
		p.mem.Get(key)
		p.m.hits.Inc()
		p.serveEntry(w, r, e, stateHit, p.sketch.Snapshot().EpochValue())
		return
	}
	p.revalidatePath(w, r, key, e)
}

// vouched reports whether the held sketch vouches for a TTL-fresh entry,
// which the sketch overrides. One within Δ that does not flag the key
// vouches for it. A key it flags might be stale, unless the entry was
// validated at or after the held generation (its watermark). No sketch, or
// one Δ old, vouches for nothing: the edge degrades to revalidating, and
// counts it. Watermarks count in the held sketch's epoch, so an entry
// stored before that epoch was installed is not vouched for until a
// revalidation renews it. Check loads the snapshot before the generation
// and the mark are read, so neither is older than its verdict.
func (p *Proxy) vouched(key string, e cache.Entry) bool {
	switch p.sketch.Check(key) {
	case cachesketch.RefreshSketch:
		p.m.degraded.Inc()
		return false
	case cachesketch.Revalidate:
		if entryGen(e) < p.sketch.Generation() {
			return false
		}
	}
	return !e.StoredAt.Before(p.sketch.EpochSince())
}

// revalidatePath refreshes a stale entry with a conditional GET.
func (p *Proxy) revalidatePath(w http.ResponseWriter, r *http.Request, key string, e cache.Entry) {
	hdr := http.Header{"If-None-Match": {e.Metadata[metaETag]}}
	copyTraceparent(r, hdr)
	held := p.sketch.Snapshot()
	resp, err := p.send.Send(r.Context(), http.MethodGet, p.upstream+"/v1/page?path="+httpbody.QueryValue(key), nil, hdr)
	received := p.clk.Now()
	if err != nil {
		p.serveStale(w, r, e)
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		gen, keep := p.watermark(held, resp.Header)
		ne := p.renewEntry(e, resp, gen)
		p.keepOrDrop(ne, keep)
		p.m.revalidated.Inc()
		p.serveEntry(w, r, ne, stateRevalidated, resp.Header[cachesketch.EpochHeader])
		return
	case resp.StatusCode >= 500:
		// A transient upstream failure must not evict a servable copy.
		p.serveStale(w, r, e)
		return
	}
	body, err := httpbody.ReadAll(resp)
	if err != nil {
		p.serveStale(w, r, e)
		return
	}
	if resp.StatusCode == http.StatusOK {
		p.m.misses.Inc()
		// Same storability gate as lead(): an upstream that turned
		// no-store/private must not be re-cached through revalidation.
		if cacheable(resp.Header) {
			gen, keep := p.watermark(held, resp.Header)
			ne := p.entryFromResponse(key, resp, body, received, gen)
			p.keepOrDrop(ne, keep)
			p.serveEntry(w, r, ne, stateMiss, resp.Header[cachesketch.EpochHeader])
			return
		}
	}
	// The upstream disowned the copy — it turned no-store/private, or the
	// resource is gone (4xx): drop the entry and hand its answer on under
	// the miss path's header allow-list, with no edge freshness headers.
	p.Purge(key)
	h := w.Header()
	relay(resp.Header, int64(len(body))).set(h)
	h[xEdgeCache] = stateMiss
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
	p.m.bytesServed.Add(len(body))
}

// serveStale answers from a copy the upstream failed to refresh rather
// than fail: the sketch already bounds how stale it can be.
func (p *Proxy) serveStale(w http.ResponseWriter, r *http.Request, e cache.Entry) {
	p.m.upstreamErrors.Inc()
	p.m.servedStale.Inc()
	p.serveEntry(w, r, e, stateStale, p.sketch.Snapshot().EpochValue())
}

// coalesce is the miss path: one leader fetches, followers stream the
// shared in-flight body.
func (p *Proxy) coalesce(w http.ResponseWriter, r *http.Request, key string) {
	p.fillsMu.Lock()
	if f, ok := p.fills[key]; ok {
		p.fillsMu.Unlock()
		p.m.coalescedWaiters.Inc()
		p.follow(w, f)
		return
	}
	f := newFill()
	p.fills[key] = f
	p.fillsMu.Unlock()
	p.m.misses.Inc()
	p.lead(w, r, key, f)
}

// lead performs the single origin fetch of a coalesced miss, streaming
// the body to its own client while publishing it to followers.
func (p *Proxy) lead(w http.ResponseWriter, r *http.Request, key string, f *fill) {
	defer func() {
		p.fillsMu.Lock()
		delete(p.fills, key)
		p.fillsMu.Unlock()
	}()
	hdr := http.Header{}
	copyTraceparent(r, hdr)
	held := p.sketch.Snapshot()
	// The fetch is shared state, not the leader's own: a leader whose
	// client disconnects mid-stream must not cancel the fill out from
	// under its followers, so the upstream request runs under no context
	// of the leader's (its traceparent is in hdr). The client's Timeout,
	// at most fillTimeout, is its deadline: a parent that cannot end takes
	// the Sender's shared deadline, which costs the miss no context and no
	// timer of its own.
	resp, err := p.send.Send(context.Background(), http.MethodGet, p.upstream+"/v1/page?path="+httpbody.QueryValue(key), nil, hdr)
	// The copy dates from the answer, not from the commit after the body
	// has streamed: a sketch of another epoch installed in between must
	// find it stored before the install (see Client.EpochSince).
	received := p.clk.Now()
	if err != nil {
		f.finish(err)
		p.m.upstreamErrors.Inc()
		httpbody.WriteError(w, http.StatusBadGateway, httpbody.CodeUnavailable, "upstream: "+err.Error())
		return
	}
	defer resp.Body.Close()
	// The followers get what the leader's client gets: the allow-listed
	// headers, with the upstream length, so a truncated fill is detectable
	// by clients instead of ending in a clean-looking chunk terminator.
	vals := relay(resp.Header, resp.ContentLength)
	f.publishHeader(resp.StatusCode, vals)
	h := w.Header()
	vals.set(h)
	h[xEdgeCache] = stateMiss
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	// The body is read straight into the buffer the followers stream from
	// and the cache will keep: reserved whole when the upstream declared a
	// length, grown as bytes arrive when it did not.
	reserve := resp.ContentLength
	if reserve < 0 || reserve > httpbody.MaxReserve {
		reserve = unsizedReserve
	}
	buf := make([]byte, 0, reserve)
	var streamErr error
	for {
		if len(buf) == cap(buf) {
			// Out of room: move to a larger array. Followers may still be
			// copying out of the old one, which is left as it is.
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 {
			buf = buf[:len(buf)+n]
			f.publish(buf)
			if _, werr := w.Write(buf[len(buf)-n:]); werr == nil && flusher != nil {
				flusher.Flush()
			}
			p.m.bytesServed.Add(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			streamErr = rerr
			break
		}
	}
	f.finish(streamErr)
	if streamErr != nil {
		p.m.upstreamErrors.Inc()
		return
	}
	if resp.StatusCode == http.StatusOK && cacheable(resp.Header) {
		if cap(buf) != len(buf) {
			// A body of undeclared length leaves growth slack behind; the
			// cache would hold it for the entry's lifetime.
			buf = append(make([]byte, 0, len(buf)), buf...)
		}
		if gen, keep := p.watermark(held, resp.Header); keep {
			p.commit(p.entryFromResponse(key, resp, buf, received, gen))
		}
	}
}

// follow streams another request's in-flight fill.
func (p *Proxy) follow(w http.ResponseWriter, f *fill) {
	status, vals, err := f.waitHeader()
	if err != nil {
		httpbody.WriteError(w, http.StatusBadGateway, httpbody.CodeUnavailable, "upstream: "+err.Error())
		return
	}
	h := w.Header()
	vals.set(h)
	h[xEdgeCache] = stateCoalesced
	w.WriteHeader(status)
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, done := f.next(off)
		if len(chunk) > 0 {
			if _, werr := w.Write(chunk); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off += len(chunk)
			p.m.bytesServed.Add(len(chunk))
		}
		if done {
			return
		}
	}
}

// serveEntry answers from a committed entry: a local 304 on a matching
// If-None-Match, 200 otherwise. state is the X-Edge-Cache value; epoch is
// the EpochHeader value the answer states (none when empty): the held
// sketch's for a copy served from the cache, the only epoch the edge
// serves hits under; the upstream's for one it has just answered.
func (p *Proxy) serveEntry(w http.ResponseWriter, r *http.Request, e cache.Entry, state, epoch []string) {
	var vals values
	vals[slotETag] = e.Metadata[metaETag]
	vals[slotType] = e.Metadata[metaContentType]
	vals[slotCacheControl], vals[slotAge] = freshAndAge(e, p.clk.Now())
	notModified := httpbody.MatchETag(r.Header.Get("If-None-Match"), vals[slotETag])
	if !notModified {
		vals[slotLength] = e.Metadata[metaLength]
	}
	h := w.Header()
	vals.set(h)
	h[xEdgeCache] = state
	if len(epoch) > 0 {
		h[cachesketch.EpochHeader] = epoch
	}
	if notModified {
		p.m.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(e.Body)
	p.m.bytesServed.Add(len(e.Body))
}

// commit stores an entry in memory and journals it.
func (p *Proxy) commit(e cache.Entry) {
	p.mem.Put(e)
	if p.disk != nil {
		p.disk.appendFill(e)
	}
}

// keepOrDrop commits a revalidated copy, or, when watermark refused to
// keep it, drops the copy it would have replaced: that one was validated
// before the held sketch's epoch was installed, and stored at the install
// instant it would still read as vouched for.
func (p *Proxy) keepOrDrop(e cache.Entry, keep bool) {
	if keep {
		p.commit(e)
		return
	}
	p.Purge(e.Key)
}

// watermark returns the sketch generation a copy is validated at, given
// held, the snapshot the edge held when it sent the copy's request, and
// whether the copy may be stored at all. It is held's generation, not the
// one held when the copy commits: a write that lands while the copy
// streams, flagged by a sketch installed before the commit, is then still
// newer than the copy, and the next hit revalidates it.
//
// With no sketch held at the request, or another epoch's held at the
// commit, held's generations say nothing about the held sketch's, so the
// copy is validated at none: 0. It is stored only if its answer states
// the epoch held at the commit (cachesketch.PageEpoch): an answer from
// another incarnation, committed after the install it raced, would be
// dated after the epoch mark, and a write there that the held sketch does
// not flag would leave it a hit past Δ. The answer's header is read on
// that path alone.
func (p *Proxy) watermark(held *cachesketch.Snapshot, h http.Header) (gen uint64, keep bool) {
	now := p.sketch.Snapshot()
	switch {
	case now == nil:
		return 0, true
	case held != nil && now.Epoch == held.Epoch:
		return held.Generation, true
	}
	return 0, cachesketch.PageEpoch(h) == now.Epoch
}

// renewEntry extends a 304-validated entry: same body, fresh expiry, gen
// as its validation watermark (see watermark).
func (p *Proxy) renewEntry(e cache.Entry, resp *http.Response, gen uint64) cache.Entry {
	now := p.clk.Now()
	e.StoredAt = now
	e.ExpiresAt = now.Add(freshness(resp.Header))
	e.Metadata = cloneMeta(e.Metadata)
	e.Metadata[metaGen] = strconv.FormatUint(gen, 10)
	return e
}

// entryFromResponse builds the cached representation of a 200 page
// response received at now, validated at sketch generation gen (see
// watermark). Only protocol metadata is retained: key, body, version,
// expiry, content type, the watermark, and the answer values they format
// to. The key is copied: the request's is a window onto its request line
// (httpbody.PathParam), which an entry would otherwise keep whole for as
// long as it is stored. A hit reads its key without one.
func (p *Proxy) entryFromResponse(key string, resp *http.Response, body []byte, now time.Time, gen uint64) cache.Entry {
	version, _ := httpbody.ParseETag(resp.Header.Get("ETag"))
	e := cache.Entry{
		Key:       strings.Clone(key),
		Body:      body,
		Version:   version,
		StoredAt:  now,
		ExpiresAt: now.Add(freshness(resp.Header)),
		Metadata: map[string]string{
			metaGen: strconv.FormatUint(gen, 10),
		},
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		e.Metadata[metaContentType] = ct
	}
	answerMeta(&e)
	return e
}

// answerMeta formats into e's metadata the header values every answer
// from e states unchanged, its ETag and Content-Length: once, where the
// entry is made, by a fill (entryFromResponse) or by a recovery
// (decodeEntry). A renewal keeps them with the body and version they
// describe.
func answerMeta(e *cache.Entry) {
	if e.Metadata == nil {
		e.Metadata = make(map[string]string, 2)
	}
	e.Metadata[metaETag] = httpbody.ETag(e.Version)
	e.Metadata[metaLength] = strconv.Itoa(len(e.Body))
}

// freshAndAge formats the Cache-Control and Age values an answer from e
// states at now, into one string: "" for a header it states none of.
func freshAndAge(e cache.Entry, now time.Time) (cacheControl, age string) {
	var buf [48]byte
	b := buf[:0]
	if fresh := e.FreshFor(now); fresh > 0 {
		b = strconv.AppendInt(append(b, "max-age="...), int64(fresh/time.Second), 10)
	}
	cut := len(b)
	if held := now.Sub(e.StoredAt); held > 0 {
		b = strconv.AppendInt(b, int64(held/time.Second), 10)
	}
	s := string(b)
	return s[:cut], s[cut:]
}

// freshness derives an entry TTL from upstream Cache-Control: the max-age
// it states, zero included — the server floors what is left of the TTL
// its expiration table holds, so "max-age=0" is a copy that table already
// counts as gone. A response that states none proves no freshness, so it
// gets none: its copy is revalidated before it is served.
func freshness(h http.Header) time.Duration {
	maxAge, _ := httpbody.ParseMaxAge(h.Get("Cache-Control"))
	return maxAge
}

// --- small helpers -------------------------------------------------------

// cloneMeta copies a metadata map so a renewed entry never aliases the
// stored one's map.
func cloneMeta(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// entryGen reads the sketch-generation watermark of an entry.
func entryGen(e cache.Entry) uint64 {
	v, _ := strconv.ParseUint(e.Metadata[metaGen], 10, 64)
	return v
}

// cacheable reports whether the upstream allows storing the response.
func cacheable(h http.Header) bool {
	cc := strings.ToLower(h.Get("Cache-Control"))
	return !strings.Contains(cc, "no-store") && !strings.Contains(cc, "private")
}

// copyTraceparent forwards the anonymous trace identity of an incoming
// request; the edge never invents or strips one mid-trace. The forwarded
// value is the request's own, shared (len == cap), not copied.
func copyTraceparent(r *http.Request, dst http.Header) {
	if tp := r.Header[tracectx.MapKey]; len(tp) > 0 {
		if _, ok := tracectx.ParseTraceparent(tp[0]); ok {
			dst[tracectx.MapKey] = tp[:1:1]
		}
	}
}

// xEdgeCache is the header an answer states its cache state in, with one
// of the shared values below.
const xEdgeCache = "X-Edge-Cache"

// The X-Edge-Cache values. Every answer shares them, so each has len ==
// cap and is never written: a header added to one answer reallocates.
var (
	stateHit         = []string{"hit"}
	stateMiss        = []string{"miss"}
	stateCoalesced   = []string{"coalesced"}
	stateRevalidated = []string{"revalidated"}
	stateStale       = []string{"stale"}
	stateSketch      = []string{"sketch"}
)

// answerHeaders names the headers an edge answer states values of its
// own for, in the slot order of its values array, in canonical form
// ("Etag"): they index header maps directly. The allow-list an upstream
// answer is relayed through is every slot before slotAge.
var answerHeaders = [...]string{
	"Content-Type", "Content-Length", "Etag", "Cache-Control",
	"X-Blocks", "X-Served-By", "X-Sketch-Generation", cachesketch.EpochHeader,
	"Age",
}

const (
	slotType = iota
	slotLength
	slotETag
	slotCacheControl
	_ // X-Blocks
	_ // X-Served-By
	_ // X-Sketch-Generation
	_ // the epoch
	slotAge
)

// values is one answer's header values, a slot per answerHeaders name, ""
// for a header the answer does not state: the answer's one allocation for
// them (httpbody.SetValues). A fill's followers share its leader's.
type values [len(answerHeaders)]string

// set states v's headers in h.
func (v *values) set(h http.Header) { httpbody.SetValues(h, answerHeaders[:], v[:]) }

// relay reads the headers worth relaying from an upstream answer: a closed
// allow-list of protocol metadata, the first value of each, the one rule
// for every answer the edge hands on. length, when not negative, is the
// Content-Length stated. Everything else the upstream sends — cookies,
// hop-by-hop and connection headers, anything unnamed — stays behind.
func relay(src http.Header, length int64) *values {
	v := new(values)
	for i := range v[:slotAge] {
		if vs := src[answerHeaders[i]]; len(vs) > 0 {
			v[i] = vs[0]
		}
	}
	if length >= 0 {
		v[slotLength] = strconv.FormatInt(length, 10)
	}
	return v
}
