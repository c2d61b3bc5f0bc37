package proxy

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/gdpr"
	"speedkit/internal/origin"
	"speedkit/internal/session"
)

// fakeTransport is a controllable Shared and FirstParty for proxy unit
// tests. A call that succeeds takes its latency on the test's clock.
type fakeTransport struct {
	clk        *clock.Simulated
	sketchSrv  *cachesketch.Server
	pages      map[string]cache.Entry
	fetchSrc   Source
	fetchErr   error
	blockErr   error
	fetchHook  func() error // consulted before each Fetch when set
	fetchLat   time.Duration
	sketchLat  time.Duration
	sketchDown bool
	sketchAge  time.Duration // how long a cache on the path held the sketch
	// calls logs every transport call by method, in order.
	calls []string
	// epochs, by path, replace the sketch server's epoch as the one a page
	// answer states.
	epochs     map[string]uint64
	blockCalls int
	lastBlocks []string
	lastUser   *session.User
}

func (f *fakeTransport) FetchSketch(_ context.Context) (*cachesketch.Snapshot, error) {
	f.calls = append(f.calls, "FetchSketch")
	if f.sketchDown {
		return nil, ErrOffline
	}
	sn := f.sketchSrv.Snapshot()
	sn.TakenAt = sn.TakenAt.Add(-f.sketchAge)
	f.clk.Advance(f.sketchLat)
	return sn, nil
}

func (f *fakeTransport) Fetch(_ context.Context, path string) (cache.Entry, Source, error) {
	f.calls = append(f.calls, "Fetch")
	if f.fetchHook != nil {
		if err := f.fetchHook(); err != nil {
			return cache.Entry{}, 0, err
		}
	}
	if f.fetchErr != nil {
		return cache.Entry{}, 0, f.fetchErr
	}
	e, ok := f.pages[path]
	if !ok {
		return cache.Entry{}, 0, errors.New("no such page")
	}
	// Mimic the service: report the cache fill to the sketch server, and
	// state its epoch.
	f.sketchSrv.ReportCachedRead(path, e.ExpiresAt)
	e.Epoch = f.epoch(path)
	f.clk.Advance(f.fetchLat)
	return e, f.fetchSrc, nil
}

// epoch is the epoch an answer for path states.
func (f *fakeTransport) epoch(path string) uint64 {
	if e, ok := f.epochs[path]; ok {
		return e
	}
	return f.sketchSrv.Epoch()
}

func (f *fakeTransport) Revalidate(_ context.Context, path string, knownVersion uint64) (RevalidationResult, error) {
	f.calls = append(f.calls, "Revalidate")
	if f.fetchErr != nil {
		return RevalidationResult{}, f.fetchErr
	}
	e, ok := f.pages[path]
	if !ok {
		return RevalidationResult{}, errors.New("no such page")
	}
	if e.Version == knownVersion {
		fresh := cache.TTLEntry(f.clk, path, nil, knownVersion, time.Hour)
		fresh.Epoch = f.epoch(path)
		f.sketchSrv.ReportCachedRead(path, fresh.ExpiresAt)
		f.clk.Advance(5 * time.Millisecond)
		return RevalidationResult{NotModified: true, Entry: fresh, Source: SourceOrigin}, nil
	}
	f.sketchSrv.ReportCachedRead(path, e.ExpiresAt)
	e.Epoch = f.epoch(path)
	f.clk.Advance(f.fetchLat)
	return RevalidationResult{Entry: e, Source: f.fetchSrc}, nil
}

func (f *fakeTransport) FetchBlocks(_ context.Context, names []string, u *session.User) ([][]byte, error) {
	f.calls = append(f.calls, "FetchBlocks")
	if f.blockErr != nil {
		return nil, f.blockErr
	}
	f.blockCalls++
	f.lastBlocks = append([]string(nil), names...) // the proxy reuses names
	f.lastUser = u
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte("<origin:" + n + ">")
	}
	f.clk.Advance(30 * time.Millisecond)
	return out, nil
}

// sleepyClock is a simulated clock on which a backoff sleep takes time,
// so a retried load's Latency shows its backoff.
type sleepyClock struct{ *clock.Simulated }

func (c sleepyClock) Sleep(d time.Duration) { c.Advance(d) }

func newTestProxy(t *testing.T, user *session.User) (*Proxy, *fakeTransport, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	tr := &fakeTransport{
		clk:       clk,
		sketchSrv: cachesketch.NewServer(cachesketch.ServerConfig{Clock: clk}),
		pages:     make(map[string]cache.Entry),
		fetchSrc:  SourceCDN,
		fetchLat:  40 * time.Millisecond,
		sketchLat: 15 * time.Millisecond,
	}
	body := []byte("<html>shell " + origin.BlockPlaceholder("greeting") + origin.BlockPlaceholder("cart") + "</html>")
	e := cache.TTLEntry(clk, "/", body, 1, time.Hour)
	e.Metadata = BlocksMetadata([]string{"greeting", "cart"})
	tr.pages["/"] = e

	plain := cache.TTLEntry(clk, "/plain", []byte("<html>no blocks</html>"), 1, time.Hour)
	tr.pages["/plain"] = plain

	p := NewSplit(Config{
		User:    user,
		Delta:   30 * time.Second,
		Clock:   sleepyClock{clk},
		Auditor: gdpr.NewAuditor(),
	}, tr, tr)
	return p, tr, clk
}

func loggedInUser() *session.User {
	return &session.User{ID: "u1", Name: "Ada", Email: "ada@example.com",
		LoggedIn: true, Tier: "gold", ConsentPersonalization: true}
}

// TestLoadColdFetchesOnlyTheShell: a device that holds no copy has
// nothing for a sketch to vouch for, so its load is the shell fetch alone.
func TestLoadColdFetchesOnlyTheShell(t *testing.T) {
	p, tr, _ := newTestProxy(t, loggedInUser())
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchRefreshed || len(tr.calls) != 1 || tr.calls[0] != "Fetch" {
		t.Fatalf("cold load: refreshed %v, transport calls %v; want one Fetch", res.SketchRefreshed, tr.calls)
	}
	if res.Source != SourceCDN {
		t.Fatalf("source = %v", res.Source)
	}
	if res.Latency < 40*time.Millisecond || res.Latency >= 55*time.Millisecond {
		t.Fatalf("latency %v, want the fetch's cost and no sketch's", res.Latency)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
}

func TestLoadSecondHitServedFromDevice(t *testing.T) {
	p, _, _ := newTestProxy(t, loggedInUser())
	_, _ = p.Load(context.Background(), "/")
	// The first load that holds a copy fetches the sketch to vouch for it.
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDevice || !res.SketchRefreshed {
		t.Fatalf("revisit: source %v, refreshed %v; want the device under a new sketch", res.Source, res.SketchRefreshed)
	}
	res, err = p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDevice {
		t.Fatalf("source = %v, want device", res.Source)
	}
	if res.SketchRefreshed {
		t.Fatal("fresh sketch refreshed again")
	}
	if res.Latency > 5*time.Millisecond {
		t.Fatalf("device hit latency %v too high", res.Latency)
	}
	st := p.Stats()
	if st.DeviceHits != 2 || st.CDNHits != 1 || st.Loads != 3 || st.SketchRefreshes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadPersonalizesBlocksOnDevice(t *testing.T) {
	u := loggedInUser()
	u.AddToCart("p1", 2)
	p, _, _ := newTestProxy(t, u)
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	body := string(res.Body)
	if !strings.Contains(body, "Welcome back, Ada!") {
		t.Fatalf("greeting not personalized: %s", body)
	}
	if !strings.Contains(body, "2 items") {
		t.Fatalf("cart not personalized: %s", body)
	}
	if strings.Contains(body, "<!--block:") {
		t.Fatalf("placeholder survived: %s", body)
	}
	if res.BlocksPersonalized != 2 {
		t.Fatalf("blocks = %d", res.BlocksPersonalized)
	}
}

func TestLoadWithoutConsentRendersAnonymous(t *testing.T) {
	u := loggedInUser()
	u.ConsentPersonalization = false
	p, _, _ := newTestProxy(t, u)
	res, _ := p.Load(context.Background(), "/")
	body := string(res.Body)
	if strings.Contains(body, "Ada") {
		t.Fatalf("non-consented user personalized: %s", body)
	}
	if !strings.Contains(body, "Welcome!") {
		t.Fatalf("anonymous fragment missing: %s", body)
	}
}

func TestLoadAnonymousVisitor(t *testing.T) {
	p, _, _ := newTestProxy(t, nil)
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Body), "Welcome!") {
		t.Fatal("anonymous visitor body wrong")
	}
}

func TestConsentLedgerOverridesUserFlag(t *testing.T) {
	u := loggedInUser() // flag says consented...
	ledger := gdpr.NewConsentLedger()
	clk := clock.NewSimulated(time.Time{})
	tr := &fakeTransport{
		clk:       clk,
		sketchSrv: cachesketch.NewServer(cachesketch.ServerConfig{Clock: clk}),
		pages:     make(map[string]cache.Entry),
		fetchSrc:  SourceCDN,
	}
	body := []byte(origin.BlockPlaceholder("greeting"))
	e := cache.TTLEntry(clk, "/", body, 1, time.Hour)
	e.Metadata = BlocksMetadata([]string{"greeting"})
	tr.pages["/"] = e
	p := NewSplit(Config{User: u, Clock: clk, Consent: ledger}, tr, tr)

	res, _ := p.Load(context.Background(), "/")
	if strings.Contains(string(res.Body), "Ada") {
		t.Fatal("ledger denial ignored")
	}
	ledger.Grant(u.ID, gdpr.PurposePersonalization, clk.Now())
	res, _ = p.Load(context.Background(), "/")
	if !strings.Contains(string(res.Body), "Ada") {
		t.Fatal("ledger grant ignored")
	}
}

func TestOriginBlocksFetchedOverFirstPartyChannel(t *testing.T) {
	u := loggedInUser()
	p, tr, _ := newTestProxy(t, u)
	p.cfg.OriginBlocks = map[string]bool{"cart": true}
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if tr.blockCalls != 1 || len(tr.lastBlocks) != 1 || tr.lastBlocks[0] != "cart" {
		t.Fatalf("origin block fetch: calls=%d names=%v", tr.blockCalls, tr.lastBlocks)
	}
	if tr.lastUser != u {
		t.Fatal("user not passed over first-party channel")
	}
	if !strings.Contains(string(res.Body), "<origin:cart>") {
		t.Fatalf("origin fragment not assembled: %s", res.Body)
	}
	// Greeting still rendered locally.
	if !strings.Contains(string(res.Body), "Ada") {
		t.Fatal("local block lost")
	}
	st := p.Stats()
	if st.BlocksOrigin != 1 || st.BlocksLocal != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOriginBlocksSkippedWithoutConsent(t *testing.T) {
	u := loggedInUser()
	u.ConsentPersonalization = false
	p, tr, _ := newTestProxy(t, u)
	p.cfg.OriginBlocks = map[string]bool{"cart": true}
	_, _ = p.Load(context.Background(), "/")
	if tr.blockCalls != 0 {
		t.Fatal("origin blocks fetched without consent")
	}
}

func TestNoPIICrossesCDNBoundary(t *testing.T) {
	u := loggedInUser()
	u.AddToCart("p1", 5)
	p, _, clk := newTestProxy(t, u)
	for i := 0; i < 20; i++ {
		_, _ = p.Load(context.Background(), "/")
		clk.Advance(10 * time.Second)
	}
	auditor := p.cfg.Auditor
	if !auditor.Compliant() {
		t.Fatalf("PII leaked to CDN:\n%s", auditor)
	}
	r := auditor.Report(gdpr.BoundaryCDN)
	if r.Requests == 0 {
		t.Fatal("no CDN flows audited")
	}
}

func TestSketchGovernsDeviceCache(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	_, _ = p.Load(context.Background(), "/") // cold: caches shell v1
	_, _ = p.Load(context.Background(), "/") // revisit: fetches the sketch

	// Origin writes the page; server sketch flags it.
	tr.sketchSrv.ReportWrite("/")
	e := tr.pages["/"]
	e.Version = 2
	tr.pages["/"] = e

	// Within Δ the device still serves v1 (bounded staleness)...
	res, _ := p.Load(context.Background(), "/")
	if res.Source != SourceDevice || res.Version != 1 {
		t.Fatalf("within Δ: source=%v version=%d", res.Source, res.Version)
	}
	// ...after Δ the refreshed sketch forces revalidation to v2.
	clk.Advance(31 * time.Second)
	res, _ = p.Load(context.Background(), "/")
	if !res.SketchRefreshed || !res.Revalidated {
		t.Fatalf("post-Δ load: %+v", res)
	}
	if res.Version != 2 {
		t.Fatalf("served version = %d, want 2", res.Version)
	}
	if p.Stats().Revalidations != 1 {
		t.Fatalf("revalidations = %d", p.Stats().Revalidations)
	}
}

// TestSketchOlderThanDeltaOnArrivalVouchesForNothing: a cache between
// device and server handed out a sketch it had held for Δ, taken before
// the page was written, so it clears the key. Trusting it would serve v1
// from the device cache more than Δ after the write; the load must take
// the ladder of a device without a sketch and revalidate.
func TestSketchOlderThanDeltaOnArrivalVouchesForNothing(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	_, _ = p.Load(context.Background(), "/") // cold: caches shell v1

	// The write the held sketch predates: it is not reported, so the
	// snapshot the transport returns does not flag "/".
	e := tr.pages["/"]
	e.Version = 2
	tr.pages["/"] = e
	clk.Advance(31 * time.Second)
	tr.sketchAge = 30 * time.Second

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.SketchRefreshed || !res.Revalidated || res.Degraded != DegradeRevalidate {
		t.Fatalf("load on a sketch dead on arrival: %+v, want a forced revalidation", res)
	}
	if res.Version != 2 || res.Source == SourceDevice {
		t.Fatalf("served version %d from %v, want 2 from upstream", res.Version, res.Source)
	}

	// One second younger and it is a sketch like any other.
	tr.sketchAge = 29 * time.Second
	clk.Advance(31 * time.Second)
	res, _ = p.Load(context.Background(), "/")
	if !res.SketchRefreshed || res.Revalidated || res.Source != SourceDevice {
		t.Fatalf("load on a sketch one second short of Δ: %+v, want a device hit", res)
	}
}

func TestLoadPlainPageNoBlocks(t *testing.T) {
	p, _, _ := newTestProxy(t, loggedInUser())
	res, err := p.Load(context.Background(), "/plain")
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksPersonalized != 0 {
		t.Fatalf("blocks = %d", res.BlocksPersonalized)
	}
	if string(res.Body) != "<html>no blocks</html>" {
		t.Fatalf("body = %s", res.Body)
	}
}

func TestLoadFetchError(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	tr.fetchErr = errors.New("edge down")
	if _, err := p.Load(context.Background(), "/"); err == nil {
		t.Fatal("fetch error swallowed")
	}
}

func TestSourceString(t *testing.T) {
	if SourceDevice.String() != "device" || SourceCDN.String() != "cdn" ||
		SourceOrigin.String() != "origin" || Source(9).String() != "unknown" {
		t.Fatal("names wrong")
	}
}

func TestBlocksMetadata(t *testing.T) {
	if BlocksMetadata(nil) != nil {
		t.Fatal("empty metadata not nil")
	}
	m := BlocksMetadata([]string{"a", "b"})
	if m["blocks"] != "a,b" {
		t.Fatalf("metadata = %v", m)
	}
}

func TestUnknownLocalBlockRendersEmpty(t *testing.T) {
	p, tr, _ := newTestProxy(t, loggedInUser())
	body := []byte("x" + origin.BlockPlaceholder("mystery") + "y")
	e := cache.TTLEntry(tr.clk, "/m", body, 1, time.Hour)
	e.Metadata = BlocksMetadata([]string{"mystery"})
	tr.pages["/m"] = e
	res, err := p.Load(context.Background(), "/m")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != "xy" {
		t.Fatalf("body = %q", res.Body)
	}
}
