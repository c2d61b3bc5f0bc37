package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedkit/internal/clock"
)

type namedConfig struct {
	name string
	cfg  Config
}

// shippedConfigs are the stores the tiers build: the device's
// service-worker cache (proxy's 500-entry default), the edge's memory tier
// (edge.Options.MaxEntries' default) and one region of the CDN simulator.
func shippedConfigs(clk clock.Clock) []namedConfig {
	return []namedConfig{
		{"device", Config{MaxItems: 500, Clock: clk}},
		{"edge", Config{MaxItems: 4096, Clock: clk}},
		{"cdn", Config{MaxItems: 100000, Clock: clk, Shards: 16}},
	}
}

// TestStoreGetZeroAlloc pins the allocation-free Get path, hit and miss,
// in every shipped configuration.
func TestStoreGetZeroAlloc(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	for _, tc := range shippedConfigs(clk) {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			s.Put(TTLEntry(clk, "/a", []byte("body"), 1, time.Hour))
			var ok bool
			if n := testing.AllocsPerRun(1000, func() {
				_, ok = s.Get("/a")
			}); n != 0 {
				t.Fatalf("Get (hit) allocates %.1f per run, want 0", n)
			}
			if !ok {
				t.Fatal("hit path missed")
			}
			if n := testing.AllocsPerRun(1000, func() {
				_, ok = s.Get("/absent")
			}); n != 0 {
				t.Fatalf("Get (miss) allocates %.1f per run, want 0", n)
			}
		})
	}
}

// TestStoreStatsMonotoneUnderConcurrency samples Stats while readers and
// writers hammer the store and checks the documented guarantee: because
// every per-shard snapshot is taken under that shard's lock, Hits, Misses,
// and their sum must never move backwards between successive Stats calls.
func TestStoreStatsMonotoneUnderConcurrency(t *testing.T) {
	for _, tc := range shippedConfigs(clock.CoarseSystem) {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("/k/%d", i)
				s.Put(TTLEntry(s.clk, keys[i], nil, 1, time.Hour))
			}
			var wg sync.WaitGroup
			var running atomic.Int32
			const opsPerWorker = 4000
			for w := 0; w < 2; w++ {
				wg.Add(1)
				running.Add(1)
				go func(seed int) {
					defer wg.Done()
					defer running.Add(-1)
					for i := seed; i < seed+opsPerWorker; i++ {
						s.Get(keys[i%len(keys)])
						s.Get("/missing") // exercise the miss counter too
						if i%17 == 0 {
							s.Put(TTLEntry(s.clk, keys[i%len(keys)], nil, 2, time.Hour))
						}
					}
				}(w * 13)
			}
			// Sample while the workers run; Gosched keeps the single-P case
			// from starving the workers behind this loop.
			var prev Stats
			for running.Load() > 0 {
				st := s.Stats()
				if st.Hits < prev.Hits || st.Misses < prev.Misses {
					t.Errorf("counter regressed: %+v -> %+v", prev, st)
					break
				}
				if st.Hits+st.Misses < prev.Hits+prev.Misses {
					t.Errorf("hits+misses regressed: %+v -> %+v", prev, st)
					break
				}
				prev = st
				runtime.Gosched()
			}
			wg.Wait()
			if final := s.Stats(); final.Hits == 0 || final.Misses == 0 {
				t.Fatalf("load generated no traffic: %+v", final)
			}
		})
	}
}

// TestNewSingleShardAllocations: a single-shard store, the one every
// device session builds, is the store with its shard inline and the
// shard's map (4 while the shard, and a slice to hold it, were allocated
// apart).
func TestNewSingleShardAllocations(t *testing.T) {
	var s *Store
	n := testing.AllocsPerRun(100, func() { s = New(Config{MaxItems: 64, Clock: clock.System}) })
	if n > 2 {
		t.Fatalf("New allocates %.0f for one shard, want at most 2", n)
	}
	s.Put(Entry{Key: "/k", Body: []byte("v")})
	if _, ok := s.Get("/k"); !ok || len(s.shards) != 1 || s.shards[0] != &s.one {
		t.Fatal("the single shard is not the store's own")
	}
}
