package edge

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
)

func TestEntryEncodingRoundTrip(t *testing.T) {
	e := cache.Entry{
		Key:       "/product/p00042",
		Body:      []byte("the body bytes"),
		Version:   7,
		StoredAt:  time.Unix(1000, 42),
		ExpiresAt: time.Unix(2000, 7),
		Metadata:  map[string]string{metaGen: "9", metaContentType: "text/html"},
	}
	got, ok := decodeEntry(encodeEntry(e))
	if !ok {
		t.Fatal("decode failed")
	}
	if got.Key != e.Key || string(got.Body) != string(e.Body) || got.Version != e.Version {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.StoredAt.Equal(e.StoredAt) || !got.ExpiresAt.Equal(e.ExpiresAt) {
		t.Fatalf("time mismatch: %+v", got)
	}
	if got.Metadata[metaGen] != "9" || got.Metadata[metaContentType] != "text/html" {
		t.Fatalf("metadata mismatch: %+v", got.Metadata)
	}

	// Zero times survive as zero (a never-expiring entry stays one).
	z, ok := decodeEntry(encodeEntry(cache.Entry{Key: "k", Body: []byte("b")}))
	if !ok || !z.ExpiresAt.IsZero() || !z.StoredAt.IsZero() {
		t.Fatalf("zero-time round trip: %+v", z)
	}

	// Truncated inputs fail cleanly, never panic.
	enc := encodeEntry(e)
	for i := 0; i < len(enc); i++ {
		decodeEntry(enc[:i])
	}
}

func TestDiskTierRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSimulated(time.Unix(1000, 0))

	open := func() (*diskTier, *cache.Store, RecoveryInfo) {
		mem := cache.New(cache.Config{Clock: clk})
		var m metrics
		d, info, err := openDisk(dir, 1000, clk, nil, mem, &m)
		if err != nil {
			t.Fatal(err)
		}
		return d, mem, info
	}

	d, _, info := open()
	if info.Entries != 0 || info.ColdStart {
		t.Fatalf("fresh open: %+v", info)
	}
	for _, k := range []string{"/a", "/b", "/c"} {
		d.appendFill(cache.Entry{Key: k, Body: []byte("body " + k), Version: 1})
	}
	d.appendPurge("/b")
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2, mem2, info2 := open()
	if info2.Replayed != 4 || mem2.Len() != 2 {
		t.Fatalf("recovery: info=%+v len=%d", info2, mem2.Len())
	}
	if _, ok := mem2.Get("/b"); ok {
		t.Fatal("purged entry survived recovery")
	}
	if e, ok := mem2.Get("/a"); !ok || string(e.Body) != "body /a" {
		t.Fatalf("entry /a: %+v ok=%v", e, ok)
	}
	d2.close()
}

func TestDiskTierSnapshotAndPrune(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	mem := cache.New(cache.Config{Clock: clk})
	var m metrics
	d, _, err := openDisk(dir, 2, clk, nil, mem, &m)
	if err != nil {
		t.Fatal(err)
	}
	// Cadence 2: the sixth record triggers the third snapshot, one more
	// than stay on disk.
	for _, k := range []string{"/a", "/b", "/c", "/d", "/e", "/f"} {
		e := cache.Entry{Key: k, Body: []byte("body " + k)}
		mem.Put(e)
		d.appendFill(e)
	}
	if m.snapshots.Load() == 0 {
		t.Fatal("no snapshot taken")
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("snapshots on disk = %d, want 2 (pruned)", len(snaps))
	}
	d.close()

	// Recovery from snapshot + tail.
	mem2 := cache.New(cache.Config{Clock: clk})
	var m2 metrics
	d2, info, err := openDisk(dir, 2, clk, nil, mem2, &m2)
	if err != nil {
		t.Fatal(err)
	}
	if mem2.Len() != 6 {
		t.Fatalf("recovered %d entries, want 6 (info=%+v)", mem2.Len(), info)
	}
	if info.SnapshotLSN == 0 {
		t.Fatalf("snapshot not used: %+v", info)
	}
	d2.close()
}

// TestDiskTierTornTailRecovery injects a crash tearing a WAL frame
// mid-append — the kill -9 signature — and asserts the next open
// truncates the torn tail and keeps everything acknowledged before it.
func TestDiskTierTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	mem := cache.New(cache.Config{Clock: clk})
	var m metrics
	// Seeded probabilistic crash: deterministic per seed, so the tear
	// lands on the same append every run; the test counts survivors
	// dynamically instead of hard-coding the offset.
	inj := faults.New(clk, 42, faults.Rule{
		Component: faults.WALAppend, Kind: faults.Crash, Probability: 0.5,
	})
	d, _, err := openDisk(dir, 1000, clk, inj, mem, &m)
	if err != nil {
		t.Fatal(err)
	}
	okBefore := 0
	for i := 0; i < 10 && !d.crashed(); i++ {
		k := "/k" + strings.Repeat("x", i)
		d.appendFill(cache.Entry{Key: k, Body: []byte("body " + k)})
		if !d.crashed() {
			okBefore++
		}
	}
	if !d.crashed() {
		t.Fatal("injected crash did not fire in 10 appends")
	}
	d.close()

	mem2 := cache.New(cache.Config{Clock: clk})
	var m2 metrics
	d2, info, err := openDisk(dir, 1000, clk, nil, mem2, &m2)
	if err != nil {
		t.Fatal(err)
	}
	if info.ColdStart {
		t.Fatalf("torn tail must recover warm, got cold start: %+v", info)
	}
	if mem2.Len() != okBefore {
		t.Fatalf("recovered %d entries, want %d (acknowledged before the tear)", mem2.Len(), okBefore)
	}
	for _, k := range mem2.Keys() {
		e, _ := mem2.Get(k)
		if string(e.Body) != "body "+k {
			t.Fatalf("entry %s corrupted: %q", k, e.Body)
		}
	}
	d2.close()
}

// TestDiskTierMidLogCorruptionColdStarts flips bytes in the middle of a
// sealed segment: recovery must refuse the log and start cold.
func TestDiskTierMidLogCorruptionColdStarts(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	mem := cache.New(cache.Config{Clock: clk})
	var m metrics
	d, _, err := openDisk(dir, 1000, clk, nil, mem, &m)
	if err != nil {
		t.Fatal(err)
	}
	// Damage in the LAST segment is the torn-tail signature and recovers
	// warm; mid-log corruption means a broken frame in a NON-final
	// segment. Write enough to rotate segments (default threshold
	// 1 MiB), then flip bytes in the first one.
	big := strings.Repeat("x", 300_000)
	for _, k := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"} {
		d.appendFill(cache.Entry{Key: k, Body: []byte(big)})
	}
	d.close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("need >=2 wal segments to model mid-log damage, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 3; i < len(data)/3+16 && i < len(data); i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	mem2 := cache.New(cache.Config{Clock: clk})
	var m2 metrics
	d2, info, err := openDisk(dir, 1000, clk, nil, mem2, &m2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ColdStart {
		t.Fatalf("mid-log corruption must cold start: %+v", info)
	}
	if mem2.Len() != 0 {
		t.Fatalf("cold start kept %d entries", mem2.Len())
	}
	// The wiped tier accepts new work.
	d2.appendFill(cache.Entry{Key: "/fresh", Body: []byte("fresh")})
	d2.close()
}

// TestProxyRestartServesIdenticalBodies is the in-process version of the
// smoke gate's crash assertion: fill through one proxy, restart over the
// same directory, and the recovered proxy serves byte-identical bodies
// without touching the upstream.
func TestProxyRestartServesIdenticalBodies(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "persistent body", 1)
	dir := t.TempDir()

	p1, _, err := New(Options{Upstream: u.srv.URL, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, p1, "/v1/page?path=/p", nil)
	want := w.Body.String()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, info, err := New(Options{Upstream: u.srv.URL, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if info.Entries != 1 {
		t.Fatalf("recovered entries = %d: %+v", info.Entries, info)
	}
	prime(t, p2)
	w = get(t, p2, "/v1/page?path=/p", nil)
	if w.Body.String() != want || w.Header().Get("X-Edge-Cache") != "hit" {
		t.Fatalf("restart: state=%q body=%q want=%q", w.Header().Get("X-Edge-Cache"), w.Body.String(), want)
	}
	if n := u.fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1 (recovered hit)", n)
	}
}

// TestDiskTierConcurrentAppend hammers the tier from many goroutines
// with a snapshot cadence low enough that snapshots race appends; run
// under -race this is the regression test for the unguarded
// sinceSnap/dead/snapLSN fields and overlapping snapshot() writers.
func TestDiskTierConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	mem := cache.New(cache.Config{Clock: clk})
	var m metrics
	d, _, err := openDisk(dir, 4, clk, nil, mem, &m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("/g%d/i%d", g, i)
				d.appendFill(cache.Entry{Key: k, Body: []byte("body")})
				if i%5 == 0 {
					d.appendPurge(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	// Everything journaled must survive recovery intact.
	mem2 := cache.New(cache.Config{Clock: clk})
	var m2 metrics
	d2, _, err := openDisk(dir, 1000, clk, nil, mem2, &m2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	if mem2.Len() != mem.Len() {
		t.Fatalf("recovered %d entries, want %d", mem2.Len(), mem.Len())
	}
}
