package proxy

import (
	"context"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
)

// newPrefetchProxy builds a proxy over a fake transport where the listing
// page "/list" links three detail pages.
func newPrefetchProxy(t *testing.T) (*Proxy, *fakeTransport, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(time.Time{})
	tr := &fakeTransport{
		clk:       clk,
		sketchSrv: cachesketch.NewServer(cachesketch.ServerConfig{Clock: clk}),
		pages:     make(map[string]cache.Entry),
		fetchSrc:  SourceCDN,
		fetchLat:  20 * time.Millisecond,
	}
	listing := cache.TTLEntry(clk, "/list", []byte("<ul>items</ul>"), 1, time.Hour)
	listing.Metadata = EntryMetadata(nil, []string{"/item/1", "/item/2", "/item/3"})
	tr.pages["/list"] = listing
	for _, p := range []string{"/item/1", "/item/2", "/item/3"} {
		tr.pages[p] = cache.TTLEntry(clk, p, []byte("<item>"+p+"</item>"), 1, time.Hour)
	}
	p := NewSplit(Config{Clock: clk}, tr, tr)
	return p, tr, clk
}

func TestPrefetchWarmsLinkedPages(t *testing.T) {
	p, _, _ := newPrefetchProxy(t)
	res, err := p.Load(context.Background(), "/list")
	if err != nil {
		t.Fatal(err)
	}
	p.Prefetch(context.Background(), "/list", 2)
	st := p.Stats()
	if st.Prefetches != 2 {
		t.Fatalf("prefetches = %d, want 2 (K cap)", st.Prefetches)
	}
	// The page's latency is its own fetch's; prefetching comes after it.
	if res.Latency != 20*time.Millisecond {
		t.Fatalf("page latency %v, want the one fetch's 20ms", res.Latency)
	}
	// The next click is a device hit.
	r2, _ := p.Load(context.Background(), "/item/1")
	if r2.Source != SourceDevice {
		t.Fatalf("prefetched page served from %v", r2.Source)
	}
	// The third link was beyond K and stays cold.
	r3, _ := p.Load(context.Background(), "/item/3")
	if r3.Source == SourceDevice {
		t.Fatal("link beyond K was prefetched")
	}
}

// TestPrefetchDisabledByDefault: a load prefetches nothing by itself, and
// neither does Prefetch with k = 0 or for a page the device does not hold.
func TestPrefetchDisabledByDefault(t *testing.T) {
	p, _, _ := newPrefetchProxy(t)
	_, _ = p.Load(context.Background(), "/list")
	p.Prefetch(context.Background(), "/list", 0)
	p.Prefetch(context.Background(), "/item/1", 3)
	if p.Stats().Prefetches != 0 {
		t.Fatal("prefetch ran despite K=0")
	}
}

func TestPrefetchSkipsHeldPages(t *testing.T) {
	p, _, _ := newPrefetchProxy(t)
	_, _ = p.Load(context.Background(), "/item/2") // warm one link by visiting it
	_, _ = p.Load(context.Background(), "/list")
	p.Prefetch(context.Background(), "/list", 3)
	// 3 links, one already held → only 2 prefetches.
	if got := p.Stats().Prefetches; got != 2 {
		t.Fatalf("prefetches = %d, want 2", got)
	}
}

// TestPrefetchStopsWhenOffline: the first link fetch that fails ends the
// prefetch quietly, with nothing counted.
func TestPrefetchStopsWhenOffline(t *testing.T) {
	p, tr, _ := newPrefetchProxy(t)
	_, _ = p.Load(context.Background(), "/list") // caches the listing itself

	goOffline(tr)
	tr.calls = nil
	p.Prefetch(context.Background(), "/list", 3)
	if p.Stats().Prefetches != 0 || len(tr.calls) != 1 {
		t.Fatalf("prefetches %d, transport calls %v; want one failed fetch and none counted", p.Stats().Prefetches, tr.calls)
	}
}

func TestEntryMetadata(t *testing.T) {
	if EntryMetadata(nil, nil) != nil {
		t.Fatal("empty metadata not nil")
	}
	m := EntryMetadata([]string{"cart"}, []string{"/a", "/b"})
	if m["blocks"] != "cart" || m["links"] != "/a,/b" {
		t.Fatalf("metadata = %v", m)
	}
	if m := EntryMetadata(nil, []string{"/a"}); m["links"] != "/a" || m["blocks"] != "" {
		t.Fatalf("links-only metadata = %v", m)
	}
}
