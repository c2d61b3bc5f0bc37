package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"speedkit"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/edge"
	"speedkit/internal/faults"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpbody"
	"speedkit/internal/httpclient"
	"speedkit/internal/proxy"
	"speedkit/internal/workload"
)

// runEdge is the -edge gate: a real speedkit-server and a speedkit edge
// proxy joined only by HTTP over loopback listeners, exercised through
// the edge's public surface the way a POP deployment would be. The gate
// asserts, in order:
//
//  1. Coalescing — a client stampede on one cold path reaches the
//     origin exactly once, and every response body is byte-identical.
//  2. Purge propagation — a backend write flows through the
//     invalidation pipeline to an edge purge, and the next edge read is
//     a miss serving the new version.
//  3. The closed surface and the paper's topology — the blocks API sent
//     to the edge is the edge's own 404 and never reaches the origin; a
//     logged-in, consenting device whose transport sends pages to the
//     edge and blocks to the origin loads a personalized page, its
//     origin-sourced fragment from the origin, and no request reaching
//     the edge carries its user ID, in the URL or the body.
//  4. Sketch distribution — a device's sketch fetch through the edge is
//     answered from the edge's own copy (X-Edge-Cache: sketch, one
//     origin fetch for any number of devices) with the Age it has
//     reached, and the device dates what it got no later than the
//     instant the origin served it: Δ counts from the server's snapshot,
//     not from each hop's arrival.
//  5. Crash durability — with seed-pinned kills armed on the disk
//     tier's WAL append path, a mid-fill tear is recovered warm by an
//     in-process restart over the same directory: every entry
//     acknowledged before the tear is served byte-identical, without
//     touching the origin — the journaled sketch epoch matches the one
//     the upstream still serves, so nothing is revalidated.
//  6. The sketch as the only invalidation feed — an edge nobody purges,
//     whose polls are the gate's own RefreshSketch calls, never a timer:
//     (i) after a write it serves the old version until its next poll and
//     the new one after it, through one conditional origin fetch, with
//     its held sketch younger than Δ at every read; (ii) a write and a
//     poll that land while a fill is in flight — the origin has rendered
//     the old page and holds its answer — leave that fill unvouched, so
//     the next read does not serve the old version as a hit.
//  7. GDPR — no PII field name and no simulated user identity appears
//     in any byte the edge persisted, scanned over both cache
//     directories exactly like the -crash gate scans the durability
//     tier, nor in the /metrics scrapes of the edge the device went
//     through and of the recovered edge.
//
// Violations exit non-zero, so `make edge` is a CI gate, not a demo.
func runEdge(seed int64, products int) {
	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "EDGE VIOLATION: "+format+"\n", args...)
	}
	// scrapes holds each edge's /metrics body for check 7.
	var scrapes [][]byte
	scrape := func(p *edge.Proxy) {
		w := httptest.NewRecorder()
		p.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		scrapes = append(scrapes, w.Body.Bytes())
	}

	// Origin: a real storefront behind the HTTP API, wrapped in a
	// middleware counting page fetches so coalescing is observable. The
	// system clock (what cmd/speedkit-server runs on) matters here: the
	// default frozen simulated clock would keep the CDN's 10 ms purge
	// propagation deadline from ever coming due.
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Delta: edgeGateDelta, Clock: clock.System},
		Products: products,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: storefront: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()
	users := speedkit.NewUsers(seed, 10)
	api := httpapi.New(svc, users).Handler()
	counter := &pageCounter{next: api}
	origin, originBase := serveLoopback(counter)
	defer origin.Close()

	// --- Phase A: coalescing + purge propagation (no faults) ---------

	dirA, err := os.MkdirTemp("", "speedkit-edge-a-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: scratch dir: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dirA)
	pa, _, err := edge.New(edge.Options{Upstream: originBase, CacheDir: dirA})
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: proxy A: %v\n", err)
		os.Exit(1)
	}
	// The device of check 3 is a logged-in user who consents to
	// personalization; edge A's listener counts every request that
	// carries its ID.
	var member *speedkit.User
	for _, u := range users {
		if u.LoggedIn && u.ConsentPersonalization {
			member = u
			break
		}
	}
	if member == nil {
		fmt.Fprintf(os.Stderr, "edge: no logged-in, consenting user among %d (seed %d)\n", len(users), seed)
		os.Exit(1)
	}
	guardA := &identityGuard{next: pa.Handler(), id: []byte(member.ID)}
	edgeSrvA, edgeBaseA := serveLoopback(guardA)

	// Check 2 has the write pipeline purge edge A, synchronously so the gate
	// is deterministic, as the load harness purges its edge; no shipped tier
	// sends purges (check 6 runs an edge without them). The answer must be
	// the purge contract: 204 and no body.
	cancel := svc.OnPurge(func(path string) {
		resp, err := http.Post(edgeBaseA+"/v1/purge?path="+url.QueryEscape(path), "", nil)
		if err != nil {
			fail("purge %s: %v", path, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNoContent || len(body) != 0 {
			fail("purge %s answered %d with %d body bytes (err %v), want 204 and none", path, resp.StatusCode, len(body), err)
		}
	})

	// 1. Stampede: 100 clients race one cold path. The origin holds the
	// one fill open until every other client has attached to it, so how
	// many coalesce does not depend on how the goroutines are scheduled.
	const stampede = 100
	hot := "/product/p00042"
	before := counter.pages.Load()
	bodies := make([]string, stampede)
	etags := make([]string, stampede)
	release := make(chan struct{})
	counter.hold.Store(&release)
	var wg sync.WaitGroup
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, hdr, status, err := edgeGet(edgeBaseA, hot, "")
			if err != nil || status != http.StatusOK {
				bodies[i] = fmt.Sprintf("error: status=%d err=%v", status, err)
				return
			}
			bodies[i] = body
			etags[i] = hdr.Get("ETag")
		}(i)
	}
	for deadline := clock.System.Now().Add(10 * time.Second); pa.Stats().CoalescedWaiters < stampede-1 && clock.System.Now().Before(deadline); {
		clock.Sleep(clock.System, time.Millisecond)
	}
	counter.hold.Store(nil)
	close(release)
	wg.Wait()
	for i := 1; i < stampede; i++ {
		if bodies[i] != bodies[0] {
			fail("stampede response %d diverged: %.60q vs %.60q", i, bodies[i], bodies[0])
			break
		}
	}
	if fetched := counter.pages.Load() - before; fetched != 1 {
		fail("stampede of %d reached the origin %d times, want exactly 1", stampede, fetched)
	}
	if s := pa.Stats(); s.CoalescedWaiters != stampede-1 {
		fail("stampede of %d coalesced %d waiters, want %d (stats %+v)", stampede, s.CoalescedWaiters, stampede-1, s)
	} else {
		fmt.Printf("edge: stampede of %d -> 1 origin fetch, %d waiters coalesced\n",
			stampede, s.CoalescedWaiters)
	}

	// 2. Purge propagation: a backend write must invalidate the edge
	// copy; the next read is a miss serving a new version. The simulated
	// CDN inside the origin applies its own purges after a propagation
	// delay (10 ms default), so outwait it — otherwise the refetch can
	// legitimately pick up the pre-purge POP copy, the residual
	// staleness the sketch bounds within Δ.
	if err := svc.Docs().Patch("products", "p00042", map[string]any{"price": 49.99}); err != nil {
		fail("backend write: %v", err)
	}
	clock.Sleep(clock.System, 50*time.Millisecond)
	body2, hdr2, status2, err := edgeGet(edgeBaseA, hot, "")
	if err != nil || status2 != http.StatusOK {
		fail("post-purge read: status=%d err=%v", status2, err)
	}
	if state := hdr2.Get("X-Edge-Cache"); state != "miss" {
		fail("post-purge read state %q, want miss (purge did not reach the edge)", state)
	}
	if hdr2.Get("ETag") == etags[0] {
		fail("post-purge read served the old version %s", etags[0])
	} else {
		fmt.Printf("edge: write purged %s, edge refetched %s -> %s\n", hot, etags[0], hdr2.Get("ETag"))
	}
	_ = body2

	// 3. The edge is no relay: the blocks API sent to it is its own 404,
	// and no blocks request reaches the origin through it.
	probe := users[0]
	if probe == member {
		probe = users[1]
	}
	blockNames := []string{"cart", "recommendations"}
	resp, err := http.Post(edgeBaseA+"/v1/blocks", "application/octet-stream",
		bytes.NewReader(httpbody.BlocksRequest(probe.ID, blockNames)))
	if err != nil {
		fail("blocks sent to the edge: %v", err)
	} else {
		var eb httpbody.ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || derr != nil || eb.Error.Code != httpbody.CodeNotFound {
			fail("blocks sent to the edge: status %d, code %q (%v), want the edge's 404", resp.StatusCode, eb.Error.Code, derr)
		}
	}
	if n := counter.blocks.Load(); n != 0 {
		fail("blocks sent to the edge reached the origin %d times, want 0", n)
	}

	// The paper's topology: the device sends pages to the edge and its
	// blocks to the origin, so its origin-sourced fragment arrives while
	// its identity never crosses the shared tier.
	behindEdge := httpclient.NewBehindEdge(edgeBaseA, originBase, nil)
	dev := proxy.NewSplit(proxy.Config{
		User:         member,
		Delta:        edgeGateDelta,
		Clock:        clock.System,
		OriginBlocks: map[string]bool{"reco": true},
	}, behindEdge, behindEdge)
	if load, err := dev.Load(context.Background(), "/"); err != nil {
		fail("personalized load behind the edge: %v", err)
	} else if !bytes.Contains(load.Body, []byte(`class="reco"`)) {
		fail("personalized load behind the edge has no reco fragment: %.120q", load.Body)
	}
	if s := dev.Stats(); s.BlocksOrigin != 1 {
		fail("device took %d fragments from the origin, want 1 (stats %+v)", s.BlocksOrigin, s)
	}
	if n := counter.blocks.Load(); n != 1 {
		fail("%d blocks requests reached the origin, want the device's 1", n)
	}
	if n := guardA.carried.Load(); n != 0 {
		fail("%d requests reaching the edge carried the device user's ID", n)
	} else if violations == 0 {
		fmt.Println("edge: blocks sent to the edge -> 404, 0 origin requests; behind the edge a device took its reco fragment from the origin, its user ID in no edge request")
	}

	// 4. Sketch distribution. Nothing polls in this gate, so the first
	// request finds the edge without a copy and makes it fetch one; every
	// later one is answered from that copy.
	resp, err = http.Get(edgeBaseA + "/v1/sketch")
	if err != nil {
		fail("sketch through edge: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
		resp.Body.Close()
		if state := resp.Header.Get("X-Edge-Cache"); resp.StatusCode != http.StatusOK || state != "sketch" {
			fail("sketch through edge: status %d, state %q, want 200 sketch", resp.StatusCode, state)
		}
	}
	served := counter.sketchServedAt()
	device := cachesketch.NewClient(clock.System, edgeGateDelta)
	transport := httpclient.NewDirect(edgeBaseA, nil)
	var stamp time.Time
	for i := 0; i < 3; i++ {
		sn, err := transport.FetchSketch(context.Background())
		if err != nil {
			fail("device sketch fetch %d through edge: %v", i, err)
			break
		}
		// The Δ check, on the stamp the device will count from: it is the
		// send time less the Age the edge stated, so it cannot be later
		// than the origin's answer — which a stamp of the send alone is,
		// by however long the edge has held the copy.
		if sn.TakenAt.After(served) {
			fail("device dates the sketch %v after the origin served it: Δ would run from the edge's hand-off", sn.TakenAt.Sub(served))
		}
		stamp = sn.TakenAt
		device.Install(sn)
		if device.NeedsRefresh() {
			fail("sketch served by the edge was dead on arrival (age %v)", device.Age())
		}
	}
	if n := counter.sketches.Load(); n != 1 {
		fail("4 sketch requests at the edge reached the origin %d times, want 1", n)
	}
	if s := pa.Stats(); s.SketchServes != 4 {
		fail("sketch serves %d, want 4", s.SketchServes)
	} else if violations == 0 {
		fmt.Printf("edge: 4 sketch requests -> 1 origin fetch, device stamp %v before the origin's answer, Δ budget used %v of %v\n",
			served.Sub(stamp).Round(time.Millisecond), device.Age().Round(time.Millisecond), edgeGateDelta)
	}
	cancel()
	scrape(pa)
	edgeSrvA.Close()
	if err := pa.Close(); err != nil {
		fail("proxy A close: %v", err)
	}

	// --- Phase B: kill mid-fill, restart, serve byte-identical -------

	dirB, err := os.MkdirTemp("", "speedkit-edge-b-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: scratch dir: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dirB)
	inj := faults.New(clock.System, seed, faults.Rule{
		Component: faults.WALAppend, Kind: faults.Crash, Probability: 0.15,
	})
	pb, _, err := edge.New(edge.Options{Upstream: originBase, CacheDir: dirB, Faults: inj})
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: proxy B: %v\n", err)
		os.Exit(1)
	}
	edgeSrvB, edgeBaseB := serveLoopback(pb.Handler())
	// Primed as speedkit-edge primes it: the disk tier journals the
	// upstream's sketch epoch beside the entries.
	if err := pb.RefreshSketch(context.Background()); err != nil {
		fail("proxy B sketch: %v", err)
	}

	// Fill distinct pages until the injected kill tears a WAL frame.
	// Entries acknowledged before the tear are the durable set.
	durable := map[string]string{}
	crashedAt := ""
	for i := 1; i <= 60 && crashedAt == ""; i++ {
		path := fmt.Sprintf("/product/p%05d", i)
		body, _, status, err := edgeGet(edgeBaseB, path, "")
		if err != nil || status != http.StatusOK {
			fail("fill %s: status=%d err=%v", path, status, err)
			break
		}
		if pb.Crashed() {
			crashedAt = path
		} else {
			durable[path] = body
		}
	}
	if crashedAt == "" {
		fail("injected kill did not fire in 60 fills (seed %d) — pick another seed", seed)
	} else {
		fmt.Printf("edge: kill tore the WAL mid-fill at %s; %d entries acknowledged before it\n",
			crashedAt, len(durable))
	}
	edgeSrvB.Close()
	if err := pb.Close(); err != nil {
		fail("proxy B close: %v", err)
	}

	// In-process restart over the same directory: recovery must be warm
	// (a torn tail truncates; it never cold-starts) and complete.
	pb2, rec, err := edge.New(edge.Options{Upstream: originBase, CacheDir: dirB})
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: proxy B restart: %v\n", err)
		os.Exit(1)
	}
	edgeSrvB2, edgeBaseB2 := serveLoopback(pb2.Handler())
	if rec.ColdStart {
		fail("torn-tail restart cold-started: %+v", rec)
	}
	if rec.Entries != len(durable) {
		fail("restart recovered %d entries, want %d acknowledged before the tear", rec.Entries, len(durable))
	}
	// The upstream did not restart: the recovered epoch is the one it still
	// serves, so the recovered entries stay hits.
	if err := pb2.RefreshSketch(context.Background()); err != nil {
		fail("proxy B restart sketch: %v", err)
	}
	before = counter.pages.Load()
	for path, want := range durable {
		body, hdr, status, err := edgeGet(edgeBaseB2, path, "")
		if err != nil || status != http.StatusOK {
			fail("recovered read %s: status=%d err=%v", path, status, err)
			continue
		}
		if body != want {
			fail("recovered body for %s diverged from the pre-crash fill", path)
		}
		if state := hdr.Get("X-Edge-Cache"); state != "hit" {
			fail("recovered read %s state %q, want hit", path, state)
		}
	}
	if refetched := counter.pages.Load() - before; refetched != 0 {
		fail("recovered reads reached the origin %d times, want 0", refetched)
	} else if violations == 0 {
		fmt.Printf("edge: restart recovered %d entries warm, served byte-identical, 0 origin fetches\n",
			len(durable))
	}
	scrape(pb2)
	edgeSrvB2.Close()
	if err := pb2.Close(); err != nil {
		fail("proxy B2 close: %v", err)
	}

	runUnpurged(svc, counter, originBase, fail)

	// 7. GDPR: no user identity in any byte the edge persisted. The
	// cache holds the anonymous shared shell verbatim, so the scan looks
	// for identity values — IDs, names, emails of the simulated
	// population — not field names (shell markup legitimately contains
	// words like "cart" that collide with the field-name needles the
	// -crash gate uses over structured durability records).
	idents := []string{}
	for _, u := range users {
		for _, v := range []string{u.ID, u.Name, u.Email} {
			if v != "" {
				idents = append(idents, v)
			}
		}
	}
	for _, dir := range []string{dirA, dirB} {
		hits, err := scanBytes(dir, idents)
		if err != nil {
			fail("PII scan over %s: %v", dir, err)
		}
		for _, h := range hits {
			fail("%s in edge-persisted bytes under %s", h, dir)
		}
	}
	for i, body := range scrapes {
		for _, id := range idents {
			if bytes.Contains(body, []byte(id)) {
				fail("%q in the /metrics scrape of edge %d", id, i)
			}
		}
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "\nedge: %d violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("edge: all invariants hold — coalescing, purge propagation, closed surface, identity only at the origin, sketch distribution, crash recovery, the sketch as the only invalidation feed, zero PII persisted or scraped")
}

// runUnpurged is check 6: edge C, memory-only, which nobody purges, so the
// sketch it holds is its only invalidation feed. It polls only when the
// check calls RefreshSketch.
func runUnpurged(svc *core.Service, counter *pageCounter, originBase string, fail func(string, ...any)) {
	ctx := context.Background()
	pc, _, err := edge.New(edge.Options{Upstream: originBase})
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: proxy C: %v\n", err)
		os.Exit(1)
	}
	edgeSrvC, base := serveLoopback(pc.Handler())
	defer func() {
		edgeSrvC.Close()
		if err := pc.Close(); err != nil {
			fail("proxy C close: %v", err)
		}
	}()
	var polled time.Time
	poll := func() {
		polled = clock.System.Now()
		if err := pc.RefreshSketch(ctx); err != nil {
			fail("proxy C sketch: %v", err)
		}
	}
	// read returns the ETag and X-Edge-Cache state of one page read. The
	// held sketch is no older than the poll that fetched it: below Δ here,
	// its hits are vouched for by the sketch and not revalidated for want
	// of one.
	read := func(step, path string) (etag, state string) {
		_, hdr, status, err := edgeGet(base, path, "")
		if err != nil || status != http.StatusOK {
			fail("unpurged edge, %s: status=%d err=%v", step, status, err)
		}
		if age := clock.System.Now().Sub(polled); age >= edgeGateDelta {
			fail("unpurged edge, %s: held sketch %v old, not below Δ %v", step, age, edgeGateDelta)
		}
		return hdr.Get("ETag"), hdr.Get("X-Edge-Cache")
	}
	// write changes a product's price, then outwaits the simulated CDN's
	// purge delay inside the origin, as check 2 does.
	write := func(i int, price float64) {
		if err := svc.Docs().Patch("products", workload.ProductID(i), map[string]any{"price": price}); err != nil {
			fail("backend write: %v", err)
		}
		clock.Sleep(clock.System, 50*time.Millisecond)
	}

	// (i) A write reaches the edge with its next poll, and not before.
	poll()
	path := workload.ProductPath(7)
	old, state := read("fill", path)
	if state != "miss" {
		fail("unpurged edge, fill of %s: state %q, want miss", path, state)
	}
	if _, state := read("warm read", path); state != "hit" {
		fail("unpurged edge, warm read of %s: state %q, want hit", path, state)
	}
	write(7, 11.11)
	if etag, state := read("read before the poll", path); etag != old || state != "hit" {
		fail("unpurged edge, read before the poll: %s %s, want the old version %s as a hit", state, etag, old)
	}
	pages, conds := counter.pages.Load(), counter.conds.Load()
	poll()
	etag, state := read("read after the poll", path)
	pages, conds = counter.pages.Load()-pages, counter.conds.Load()-conds
	if etag == old || pages != 1 || conds != 1 {
		fail("unpurged edge, read after the poll: %s %s with %d origin page fetches, %d conditional; want a new version through one conditional fetch", state, etag, pages, conds)
	} else {
		fmt.Printf("edge: unpurged edge served %s until its poll, then %s through 1 conditional origin fetch\n", old, etag)
	}

	// (ii) A write and a poll land while a fill is in flight: the origin
	// has rendered the old page and holds the answer.
	path = workload.ProductPath(13)
	held := &answerHold{reached: make(chan struct{}), release: make(chan struct{})}
	counter.holdAnswer.Store(held)
	filled := make(chan [2]string, 1)
	go func() {
		etag, state := read("held fill", path)
		filled <- [2]string{etag, state}
	}()
	select {
	case <-held.reached:
	case got := <-filled:
		fail("unpurged edge: fill of %s answered %s %s before the origin held it", path, got[1], got[0])
		return
	}
	write(13, 22.22)
	poll()
	close(held.release)
	got := <-filled
	old = got[0]
	etag, state = read("read after the held fill", path)
	if etag == old {
		fail("unpurged edge: a fill the poll overtook was stored as validated at the new generation; the next read served the old version %s as %s", old, state)
	} else {
		fmt.Printf("edge: a write and a poll during a fill of %s left it unvouched: next read %s %s, not the fill's %s\n", path, state, etag, old)
	}
	if d := pc.Stats().Degraded; d != 0 {
		fail("unpurged edge revalidated %d hits for want of a sketch within Δ", d)
	}
}

// edgeGateDelta is the Δ the gate's origin announces and its device
// enforces.
const edgeGateDelta = 30 * time.Second

// pageCounter counts page, sketch and blocks requests reaching the
// origin, so the gate can assert how many requests the edge let through,
// and keeps the instant the last sketch response was complete.
type pageCounter struct {
	next     http.Handler
	pages    atomic.Int64
	sketches atomic.Int64
	blocks   atomic.Int64
	sketchAt atomic.Int64 // UnixNano
	// conds counts the page requests that carry If-None-Match.
	conds atomic.Int64
	// hold, while set, keeps page requests waiting until it is closed.
	hold atomic.Pointer[chan struct{}]
	// holdAnswer, while set, holds the next page answer once it is
	// rendered: the origin has chosen the version it serves and the edge
	// has received none of it.
	holdAnswer atomic.Pointer[answerHold]
}

// answerHold is one held page answer: the origin closes reached once the
// answer is rendered and sends it once release is closed.
type answerHold struct{ reached, release chan struct{} }

func (c *pageCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/page":
		c.pages.Add(1)
		if r.Header.Get("If-None-Match") != "" {
			c.conds.Add(1)
		}
		if hold := c.hold.Load(); hold != nil {
			<-*hold
		}
		if held := c.holdAnswer.Swap(nil); held != nil {
			rec := httptest.NewRecorder()
			c.next.ServeHTTP(rec, r)
			close(held.reached)
			<-held.release
			maps.Copy(w.Header(), rec.Header())
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
	case "/v1/sketch":
		c.sketches.Add(1)
		defer func() { c.sketchAt.Store(clock.System.Now().UnixNano()) }()
	case "/v1/blocks":
		c.blocks.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// identityGuard sits where an edge's listener is and counts every request
// whose URL or body carries id, the way speedkit-load's pii_at_edge check
// does, but with the body read too: since the user ID travels in the
// blocks POST body, a guard of the query alone would miss it.
type identityGuard struct {
	next    http.Handler
	id      []byte
	carried atomic.Int64
}

func (g *identityGuard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpbody.WriteError(w, http.StatusBadRequest, httpbody.CodeBadRequest, "unreadable body")
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	if bytes.Contains([]byte(r.URL.RequestURI()), g.id) || bytes.Contains(body, g.id) {
		g.carried.Add(1)
	}
	g.next.ServeHTTP(w, r)
}

// sketchServedAt is when the origin finished its last sketch response.
func (c *pageCounter) sketchServedAt() time.Time { return time.Unix(0, c.sketchAt.Load()) }

// serveLoopback serves h on an ephemeral loopback listener and returns
// the server handle plus its base URL.
func serveLoopback(h http.Handler) (*http.Server, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "edge: listen: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // closed by the caller; Serve's shutdown error is expected
	return hs, "http://" + ln.Addr().String()
}

// edgeGet fetches one page through the edge surface and returns the
// body, headers, and status.
func edgeGet(base, path, inm string) (string, http.Header, int, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/page?path="+url.QueryEscape(path), nil)
	if err != nil {
		return "", nil, 0, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", resp.Header, resp.StatusCode, err
	}
	return string(b), resp.Header, resp.StatusCode, nil
}
