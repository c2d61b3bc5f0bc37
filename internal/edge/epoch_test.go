package edge

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/wal"
)

// TestEpochChangeRevalidatesOnce: an upstream that restarted without its
// history vouches for no entry the edge stored before it installed the
// new epoch — not even one whose watermark is far above the new
// generations. Each such entry is revalidated once and is a hit again
// after; an entry stored after the install is a hit at once. A straggler
// from the dead incarnation is one more epoch change: one more pass, never
// a stale hit.
func TestEpochChangeRevalidatesOnce(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/a", "a body", 1)
	u.set("/b", "b body", 1)
	clk := clock.NewSimulated(time.Unix(1000, 0))
	p := newTestProxy(t, u, Options{Clock: clk})
	state := func(path string) string {
		t.Helper()
		w := get(t, p, "/v1/page?path="+path, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		return w.Header().Get("X-Edge-Cache")
	}
	expect := func(step, path, want string) {
		t.Helper()
		if got := state(path); got != want {
			t.Fatalf("%s: %s served as %q, want %q", step, path, got, want)
		}
	}

	p.InstallSketch(snapshotIn(1, 9))
	expect("epoch 1", "/a", "miss")
	expect("epoch 1", "/a", "hit")

	clk.Advance(time.Second)
	p.InstallSketch(snapshotIn(2, 0))
	expect("restarted upstream", "/b", "miss")
	expect("restarted upstream", "/a", "revalidated")
	expect("restarted upstream", "/a", "hit")
	expect("restarted upstream", "/b", "hit")

	clk.Advance(time.Second)
	p.InstallSketch(snapshotIn(1, 10))
	expect("straggler", "/a", "revalidated")
	expect("straggler", "/b", "revalidated")
	expect("straggler", "/a", "hit")
	if n := u.fetches.Load(); n != 2 {
		t.Fatalf("%d full-body upstream fetches, want the two misses: every revalidation was a 304", n)
	}
	if n := u.conds.Load(); n != 3 {
		t.Fatalf("%d conditional requests, want 3", n)
	}
}

// TestDiskRestartKeepsTheEpoch: the disk tier journals the epoch the edge
// installed and when its epoch last changed, so a restart that finds the
// upstream in the same epoch serves what it recovered as hits — except an
// entry the last change left unrenewed — and one that finds another epoch
// revalidates each entry once; whether the mark came back from the log or
// from a snapshot that pruned it. An edge that never installed a sketch
// has no epoch to lose.
func TestDiskRestartKeepsTheEpoch(t *testing.T) {
	for _, row := range []struct {
		name string
		// every is the snapshot cadence: 1 checkpoints at every record.
		every int
		// before is the epoch installed before the fill (0: none), then
		// the one installed after it (0: none), then the one the restarted
		// edge installs.
		before, between, after uint64
		// renew reads the entry once between the two installs.
		renew bool
		want  string
	}{
		{"same epoch, from the log", 256, 1, 0, 1, false, "hit"},
		{"same epoch, from a snapshot", 1, 1, 0, 1, false, "hit"},
		{"new epoch, from the log", 256, 1, 0, 2, false, "revalidated"},
		{"new epoch, from a snapshot", 1, 1, 0, 2, false, "revalidated"},
		{"epoch changed before the restart, from the log", 256, 1, 2, 2, false, "revalidated"},
		{"epoch changed before the restart, from a snapshot", 1, 1, 2, 2, false, "revalidated"},
		{"epoch changed and the entry renewed", 256, 1, 2, 2, true, "hit"},
		{"no epoch journaled", 256, 0, 0, 2, false, "hit"},
	} {
		t.Run(row.name, func(t *testing.T) {
			u := newFakeUpstream()
			defer u.close()
			u.set("/p", "the body", 1)
			clk := clock.NewSimulated(time.Unix(1000, 0))
			dir := t.TempDir()
			open := func() *Proxy {
				p, _, err := New(Options{Upstream: u.srv.URL, Clock: clk, CacheDir: dir, SnapshotEvery: row.every})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p1 := open()
			if row.before != 0 {
				p1.InstallSketch(snapshotIn(row.before, 5))
			}
			if w := get(t, p1, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != "miss" {
				t.Fatalf("fill: %q", w.Header().Get("X-Edge-Cache"))
			}
			if row.between != 0 {
				clk.Advance(time.Second)
				p1.InstallSketch(snapshotIn(row.between, 0))
			}
			if row.renew {
				if w := get(t, p1, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != "revalidated" {
					t.Fatalf("renew: %q", w.Header().Get("X-Edge-Cache"))
				}
			}
			if err := p1.Close(); err != nil {
				t.Fatal(err)
			}

			clk.Advance(time.Second)
			p2 := open()
			defer p2.Close()
			p2.InstallSketch(snapshotIn(row.after, 0))
			w := get(t, p2, "/v1/page?path=/p", nil)
			if got := w.Header().Get("X-Edge-Cache"); got != row.want || w.Body.String() != "the body" {
				t.Fatalf("recovered entry served as %q (%q), want %q", got, w.Body.String(), row.want)
			}
			if n := u.fetches.Load(); n != 1 {
				t.Fatalf("%d full-body upstream fetches, want the one fill", n)
			}
		})
	}
}

// TestPreEpochSnapshotIsPassedOver: a cache directory written before the
// epoch mark joined the snapshot opens, its snapshot passed over rather
// than misread. The log above it is a partial history, so the tier starts
// empty, as after any hole — and the next restart is warm again.
func TestPreEpochSnapshotIsPassedOver(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/snap", "snapshot body", 1)
	u.set("/tail", "tail body", 1)
	clk := clock.NewSimulated(time.Unix(1000, 0))
	dir := t.TempDir()
	entry := func(key, body string) []byte {
		return encodeEntry(cache.Entry{Key: key, Body: []byte(body), Version: 1, StoredAt: clk.Now(), ExpiresAt: clk.Now().Add(time.Hour)})
	}
	old, _, err := wal.OpenSnapshotted(wal.Options{Dir: dir, Clock: clk}, [4]byte{'S', 'K', 'E', 'C'},
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Append(append([]byte{recPurge}, "/gone"...)); err != nil {
		t.Fatal(err)
	}
	// The older payload is the entry count, then the entries: a count of
	// one is the byte the newer layout reads as "a mark follows".
	snap := entry("/snap", "snapshot body")
	if _, err := old.Checkpoint(func() []byte {
		return append(binary.AppendUvarint([]byte{1}, uint64(len(snap))), snap...)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Append(append([]byte{recFill}, entry("/tail", "tail body")...)); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() (*Proxy, RecoveryInfo) {
		p, info, err := New(Options{Upstream: u.srv.URL, Clock: clk, CacheDir: dir})
		if err != nil {
			t.Fatalf("opening the cache directory: %v", err)
		}
		return p, info
	}
	p, info := open()
	if !info.ColdStart || info.Entries != 0 {
		t.Fatalf("pre-epoch directory recovered %+v, want an empty cold start", info)
	}
	p.InstallSketch(snapshotIn(1, 0))
	for _, path := range []string{"/snap", "/tail"} {
		if got := get(t, p, "/v1/page?path="+path, nil).Header().Get("X-Edge-Cache"); got != "miss" {
			t.Fatalf("%s served as %q, want a miss", path, got)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p, info = open()
	defer p.Close()
	if info.ColdStart || info.Entries != 2 {
		t.Fatalf("restart after the upgrade recovered %+v, want the two entries warm", info)
	}
}

// TestFreshnessIsTheStatedMaxAge: any max-age the upstream states is the
// entry's freshness, zero included — the server floors what is left of
// its TTL, so "max-age=0" is a copy its expiration table already counts
// as gone. A response without one proves no freshness and gets none.
func TestFreshnessIsTheStatedMaxAge(t *testing.T) {
	for cc, want := range map[string]time.Duration{
		"public, max-age=12": 12 * time.Second,
		"max-age=0":          0,
		"public":             0,
		"":                   0,
	} {
		if got := freshness(http.Header{"Cache-Control": {cc}}); got != want {
			t.Errorf("Cache-Control %q: freshness %v, want %v", cc, got, want)
		}
	}

	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	u.maxAge = 0
	pr := newTestProxy(t, u, Options{Clock: clock.NewSimulated(time.Unix(1000, 0))})
	get(t, pr, "/v1/page?path=/p", nil)
	if w := get(t, pr, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") == "hit" {
		t.Fatal("a copy the upstream sent with max-age=0 was a hit")
	}

	// An answer that states no max-age is stored already expired: the
	// next request revalidates it before the copy is served.
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		if r.Header.Get("If-None-Match") == `"v1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		io.WriteString(w, "body")
	}))
	defer silent.Close()
	ps, _, err := New(Options{Upstream: silent.URL, Clock: clock.NewSimulated(time.Unix(1000, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for _, want := range []string{"miss", "revalidated", "revalidated"} {
		if w := get(t, ps, "/v1/page?path=/p", nil); w.Header().Get("X-Edge-Cache") != want || w.Body.String() != "body" {
			t.Fatalf("no max-age: state %q body %q, want %s", w.Header().Get("X-Edge-Cache"), w.Body.String(), want)
		}
	}
}

// TestSketchServeAllocations pins the edge's answer to a device's sketch
// request: the epoch header is the value the edge received, handed on, so
// a serve costs what it did before there was an epoch.
func TestSketchServeAllocations(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		sn := cachesketch.NewServer(cachesketch.ServerConfig{}).Snapshot()
		if err := sn.WriteHTTP(w, "public, max-age=3600", 0); err != nil {
			t.Error(err)
		}
	}))
	defer upstream.Close()
	p, _, err := New(Options{Upstream: upstream.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.RefreshSketch(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/sketch", nil)
	w := discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(200, func() {
		clear(w.h)
		p.ServeHTTP(w, r)
	}); n > sketchServeAllocs {
		t.Fatalf("a sketch serve allocates %.0f, want at most %d", n, sketchServeAllocs)
	}
	if got := w.h.Get(cachesketch.EpochHeader); got == "" {
		t.Fatal("the served sketch carries no epoch")
	}
}

// sketchServeAllocs is what serving a held sketch allocated before the
// epoch went on the wire (header values, the Cache-Control string rendered
// from the learned max-age).
const sketchServeAllocs = 8

// TestInstallSketchConcurrentWithServes: polls from two incarnations race
// each other and the page path. Run under -race.
func TestInstallSketchConcurrentWithServes(t *testing.T) {
	u := newFakeUpstream()
	defer u.close()
	u.set("/p", "body", 1)
	p := newTestProxy(t, u, Options{CacheDir: t.TempDir()})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(epoch uint64) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				p.InstallSketch(snapshotIn(epoch, i))
			}
		}(uint64(g%2 + 1))
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w := get(t, p, "/v1/page?path=/p", nil); w.Code != http.StatusOK {
					t.Errorf("GET: %d", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}
