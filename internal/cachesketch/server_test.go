package cachesketch

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

func newTestServer() (*Server, *clock.Simulated) {
	clk := clock.NewSimulated(time.Time{})
	s := NewServer(ServerConfig{Capacity: 1000, FalsePositiveRate: 0.01, Clock: clk})
	return s, clk
}

func TestWriteWithoutCachedCopyNotTracked(t *testing.T) {
	s, _ := newTestServer()
	if s.ReportWrite("/p/1") {
		t.Fatal("write to uncached resource entered sketch")
	}
	if s.Contains("/p/1") {
		t.Fatal("uncached write tracked")
	}
	if st := s.Stats(); st.WritesUncached != 1 || st.Adds != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteAfterCachedReadEntersSketchUntilExpiry(t *testing.T) {
	s, clk := newTestServer()
	s.ReportCachedRead("/p/1", clk.Now().Add(60*time.Second))
	clk.Advance(10 * time.Second)
	if !s.ReportWrite("/p/1") {
		t.Fatal("write to cached resource not tracked")
	}
	if !s.Contains("/p/1") {
		t.Fatal("not in sketch after write")
	}
	// Still tracked just before the copy expires...
	clk.Advance(49 * time.Second) // now = 59s
	if !s.Contains("/p/1") {
		t.Fatal("left sketch before copy expiry")
	}
	// ...and gone at/after expiry.
	clk.Advance(time.Second) // now = 60s
	if s.Contains("/p/1") {
		t.Fatal("still in sketch after last copy expired")
	}
	st := s.Stats()
	if st.Adds != 1 || st.Removes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriteAfterCopyExpiredNotTracked(t *testing.T) {
	s, clk := newTestServer()
	s.ReportCachedRead("/p/1", clk.Now().Add(10*time.Second))
	clk.Advance(11 * time.Second)
	if s.ReportWrite("/p/1") {
		t.Fatal("write after copy expiry entered sketch")
	}
}

func TestMultipleCachedReadsTakeMaxExpiry(t *testing.T) {
	s, clk := newTestServer()
	now := clk.Now()
	s.ReportCachedRead("/p/1", now.Add(10*time.Second))
	s.ReportCachedRead("/p/1", now.Add(60*time.Second))
	s.ReportCachedRead("/p/1", now.Add(30*time.Second)) // must not shrink
	s.ReportWrite("/p/1")
	clk.Advance(30 * time.Second)
	if !s.Contains("/p/1") {
		t.Fatal("sketch dropped key before the longest-lived copy expired")
	}
	clk.Advance(30 * time.Second)
	if s.Contains("/p/1") {
		t.Fatal("sketch kept key after longest copy expired")
	}
}

func TestPastExpirationReportIgnored(t *testing.T) {
	s, clk := newTestServer()
	s.ReportCachedRead("/p/1", clk.Now().Add(-time.Second))
	if s.ReportWrite("/p/1") {
		t.Fatal("expired report enabled tracking")
	}
	if st := s.Stats(); st.TableSize != 0 {
		t.Fatalf("expiry table grew on past report: %+v", st)
	}
}

func TestSecondWriteExtendsResidency(t *testing.T) {
	s, clk := newTestServer()
	now := clk.Now()
	s.ReportCachedRead("/p/1", now.Add(20*time.Second))
	s.ReportWrite("/p/1")
	// A fresh copy of v2 gets cached with a longer TTL, then v3 is written.
	s.ReportCachedRead("/p/1", now.Add(90*time.Second))
	clk.Advance(10 * time.Second)
	s.ReportWrite("/p/1")
	st := s.Stats()
	if st.Adds != 1 || st.Extends != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The first removal event (t=20s) must not evict the extended entry.
	clk.Advance(15 * time.Second) // now = 25s
	if !s.Contains("/p/1") {
		t.Fatal("stale removal event evicted an extended entry")
	}
	clk.Advance(65 * time.Second) // now = 90s
	if s.Contains("/p/1") {
		t.Fatal("extended entry never evicted")
	}
	if s.Stats().Removes != 1 {
		t.Fatalf("removes = %d, want exactly 1 (one add, one remove)", s.Stats().Removes)
	}
}

func TestSnapshotReflectsTrackedKeys(t *testing.T) {
	s, clk := newTestServer()
	now := clk.Now()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("/p/%d", i)
		s.ReportCachedRead(key, now.Add(time.Hour))
		s.ReportWrite(key)
	}
	sn := s.Snapshot()
	for i := 0; i < 50; i++ {
		if !sn.MightBeStale(fmt.Sprintf("/p/%d", i)) {
			t.Fatalf("snapshot missing tracked key /p/%d", i)
		}
	}
	// Generation versions the sketch contents: 50 adds happened.
	if sn.Generation != 50 {
		t.Fatalf("generation = %d, want 50 (one per add)", sn.Generation)
	}
	// A second snapshot with no intervening mutation shares the
	// generation and reuses the flattened filter (no second Flatten).
	sn2 := s.Snapshot()
	if sn2.Generation != sn.Generation {
		t.Fatalf("generation changed without mutation: %d -> %d", sn.Generation, sn2.Generation)
	}
	if sn2.Filter != sn.Filter {
		t.Fatal("unchanged generation did not reuse the flattened filter")
	}
	if st := s.Stats(); st.Flattens != 1 || st.Snapshots != 2 {
		t.Fatalf("flattens = %d snapshots = %d, want 1 flatten for 2 snapshots", st.Flattens, st.Snapshots)
	}
	if !sn2.TakenAt.Equal(clk.Now()) {
		t.Fatal("TakenAt wrong")
	}
	// A new write invalidates the cached flatten.
	s.ReportCachedRead("/p/new", clk.Now().Add(time.Hour))
	s.ReportWrite("/p/new")
	sn3 := s.Snapshot()
	if sn3.Generation != sn.Generation+1 || sn3.Filter == sn.Filter {
		t.Fatalf("mutation did not advance generation / re-flatten (gen %d -> %d)", sn.Generation, sn3.Generation)
	}
	if st := s.Stats(); st.Flattens != 2 {
		t.Fatalf("flattens = %d, want 2", st.Flattens)
	}
}

func TestSnapshotIsImmutableAgainstLaterWrites(t *testing.T) {
	s, clk := newTestServer()
	sn := s.Snapshot()
	s.ReportCachedRead("/late", clk.Now().Add(time.Hour))
	s.ReportWrite("/late")
	if sn.MightBeStale("/late") {
		t.Fatal("old snapshot sees later write")
	}
}

// TestSnapshotMarshal: what a device downloads follows what is tracked,
// not the capacity the server was sized for — 21 bytes while nothing is —
// and SketchBytes is the length of exactly that.
func TestSnapshotMarshal(t *testing.T) {
	s, clk := newTestServer()
	m, k := s.counting.Bits(), s.counting.Hashes()
	if m != 16<<10 {
		t.Fatalf("counting filter of %d cells: not sized on the halving ladder", m)
	}
	sizes := []int{}
	for _, tracked := range []int{0, 10, 100, 1000} {
		for i := 0; i < tracked; i++ {
			key := fmt.Sprintf("/p/%d", i)
			s.ReportCachedRead(key, clk.Now().Add(time.Hour))
			s.ReportWrite(key)
		}
		sn := s.Snapshot()
		data, err := sn.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != s.SketchBytes() {
			t.Fatalf("%d tracked: marshal len %d != SketchBytes %d", tracked, len(data), s.SketchBytes())
		}
		var got bloom.Filter
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.Hashes() != k || got.Bits() > m || got.FillRatio() > 0.5 {
			t.Fatalf("%d tracked: decoded m=%d k=%d fill %.3f", tracked, got.Bits(), got.Hashes(), got.FillRatio())
		}
		for i := 0; i < tracked; i++ {
			if key := fmt.Sprintf("/p/%d", i); !got.Contains(key) {
				t.Fatalf("%d tracked: the wire form lost %s", tracked, key)
			}
		}
		// In process the snapshot still answers from the full-size filter.
		if sn.Filter.Bits() != m {
			t.Fatalf("Snapshot.Filter has %d bits, want the server's %d", sn.Filter.Bits(), m)
		}
		sizes = append(sizes, len(data))
	}
	if sizes[0] != 21 || !(sizes[0] < sizes[1] && sizes[1] < sizes[2] && sizes[2] < sizes[3]) || sizes[3] > int(m)/8+13 {
		t.Fatalf("wire sizes %v for 0, 10, 100, 1000 tracked keys: want 21 bytes idle, growing with the count, at most the full filter", sizes)
	}
}

// TestSnapshotMarshalEncodesOncePerGeneration: snapshots of one
// generation hand out one encoding; a write that changes the sketch gets
// a new one, and the old bytes still decode to the old filter.
func TestSnapshotMarshalEncodesOncePerGeneration(t *testing.T) {
	s, clk := newTestServer()
	first, err := s.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &again[0] {
		t.Fatal("two snapshots of one generation marshaled to separate arrays")
	}

	s.ReportCachedRead("/p", clk.Now().Add(time.Hour))
	s.ReportWrite("/p")
	sn := s.Snapshot()
	next, err := sn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if &next[0] == &first[0] || bytes.Equal(next, first) {
		t.Fatal("a new generation reused the previous generation's bytes")
	}
	if fresh, _ := sn.Filter.Compact().MarshalBinary(); !bytes.Equal(next, fresh) {
		t.Fatal("cached bytes differ from a fresh encoding of the compacted filter")
	}
	var old bloom.Filter
	if err := old.UnmarshalBinary(first); err != nil || old.Contains("/p") {
		t.Fatalf("old generation's bytes changed under its holders: err=%v", err)
	}

	// A snapshot whose filter was swapped must not answer from the cache.
	sn.Filter = bloom.NewFilterForCapacity(8, 0.5)
	if swapped, _ := sn.Marshal(); bytes.Equal(swapped, next) {
		t.Fatal("Marshal returned cached bytes for a different filter")
	}
}

func TestExpiryTableCleanedUp(t *testing.T) {
	s, clk := newTestServer()
	for i := 0; i < 100; i++ {
		s.ReportCachedRead(fmt.Sprintf("/p/%d", i), clk.Now().Add(10*time.Second))
	}
	if st := s.Stats(); st.TableSize != 100 {
		t.Fatalf("table size = %d", st.TableSize)
	}
	clk.Advance(11 * time.Second)
	if st := s.Stats(); st.TableSize != 0 {
		t.Fatalf("expiry table not cleaned: %d entries", st.TableSize)
	}
}

func TestServerConfigDefaults(t *testing.T) {
	s := NewServer(ServerConfig{})
	if s.cfg.Capacity != 10000 || s.cfg.FalsePositiveRate != 0.05 || s.cfg.Clock == nil {
		t.Fatalf("defaults = %+v", s.cfg)
	}
}

func TestServerConcurrent(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	s := NewServer(ServerConfig{Capacity: 10000, Clock: clk})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("/p/%d", (w*500+i)%100)
				s.ReportCachedRead(key, clk.Now().Add(time.Minute))
				s.ReportWrite(key)
				if i%50 == 0 {
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Tracked == 0 {
		t.Fatal("nothing tracked after concurrent load")
	}
	clk.Advance(2 * time.Minute)
	if st := s.Stats(); st.Tracked != 0 {
		t.Fatalf("sketch not drained after all TTLs passed: %d", st.Tracked)
	}
}
