package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"speedkit/internal/clock"
)

// refStore is the store's eviction contract as the plainest code that
// states it: one slice in eviction order (front first) and a linear scan
// for every decision. Its expired-first pass is the one Store had before
// the expiring heap, with the one thing that pass left to list order made
// explicit: of several expired entries the one that expired first goes
// first. The model test drives Store and refStore with the same program
// and demands the same state after every step.
type refStore struct {
	order              []*refEntry
	policy             Policy
	maxItems, maxBytes int
	stats              Stats
	clk                clock.Clock
}

type refEntry struct {
	e    Entry
	freq uint64
	size int
}

func (r *refStore) find(key string) int {
	for i, re := range r.order {
		if re.e.Key == key {
			return i
		}
	}
	return -1
}

func (r *refStore) remove(i int) {
	r.stats.BytesUsed -= r.order[i].size
	r.order = append(r.order[:i:i], r.order[i+1:]...)
}

// bubble moves the entry at i toward the back past entries with a lower
// or equal use count.
func (r *refStore) bubble(i int) {
	for ; i+1 < len(r.order) && r.order[i+1].freq <= r.order[i].freq; i++ {
		r.order[i], r.order[i+1] = r.order[i+1], r.order[i]
	}
}

func (r *refStore) promote(i int) {
	switch r.policy {
	case LRU:
		re := r.order[i]
		r.order = append(append(r.order[:i:i], r.order[i+1:]...), re)
	case LFU:
		r.order[i].freq++
		r.bubble(i)
	}
}

func (r *refStore) get(key string) bool {
	i := r.find(key)
	if i < 0 {
		r.stats.Misses++
		return false
	}
	if r.order[i].e.Expired(r.clk.Now()) {
		r.remove(i)
		r.stats.Expirations++
		r.stats.Misses++
		return false
	}
	r.promote(i)
	r.stats.Hits++
	return true
}

func (r *refStore) put(e Entry) {
	size := e.Size()
	if i := r.find(e.Key); i >= 0 {
		r.stats.BytesUsed += size - r.order[i].size
		r.order[i].e, r.order[i].size = e, size
		r.promote(i)
	} else {
		re := &refEntry{e: e, freq: 1, size: size}
		if r.policy == LFU {
			r.order = append([]*refEntry{re}, r.order...)
			r.bubble(0)
		} else {
			r.order = append(r.order, re)
		}
		r.stats.BytesUsed += size
	}
	r.stats.Puts++
	r.evict()
}

func (r *refStore) over() bool {
	return (r.maxItems > 0 && len(r.order) > r.maxItems) ||
		(r.maxBytes > 0 && r.stats.BytesUsed > r.maxBytes)
}

func (r *refStore) evict() {
	if !r.over() {
		return
	}
	now := r.clk.Now()
	// First pass: drop expired entries.
	for r.over() {
		victim := -1
		for i, re := range r.order {
			if re.e.Expired(now) && (victim < 0 || re.e.ExpiresAt.Before(r.order[victim].e.ExpiresAt)) {
				victim = i
			}
		}
		if victim < 0 {
			break
		}
		r.remove(victim)
		r.stats.Expirations++
	}
	// Second pass: policy order from the front.
	for r.over() && len(r.order) > 0 {
		r.remove(0)
		r.stats.Evictions++
	}
}

func (r *refStore) delete(key string) bool {
	i := r.find(key)
	if i < 0 {
		return false
	}
	r.remove(i)
	r.stats.Invalidations++
	return true
}

func (r *refStore) clear() {
	r.order = nil
	r.stats.BytesUsed = 0
}

func (r *refStore) sweep() int {
	now, n := r.clk.Now(), 0
	for i := 0; i < len(r.order); {
		if r.order[i].e.Expired(now) {
			r.remove(i)
			r.stats.Expirations++
			n++
			continue
		}
		i++
	}
	return n
}

// keys lists the stored keys in eviction order; liveOnly leaves out the
// expired ones, as Store.Keys does.
func (r *refStore) keys(liveOnly bool) []string {
	now := r.clk.Now()
	out := []string{}
	for _, re := range r.order {
		if !liveOnly || !re.e.Expired(now) {
			out = append(out, re.e.Key)
		}
	}
	return out
}

// storedKeys lists every key a single-shard store holds, expired ones
// included, in eviction order.
func storedKeys(s *Store) []string {
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := []string{}
	for el := sh.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storedEntry).entry.Key)
	}
	return out
}

// checkExpiryHeap verifies the intrusive index: every stored entry that
// expires sits in its shard's heap exactly once, at the position it
// records; entries that never expire and removed entries are not in it;
// and the heap order holds.
func checkExpiryHeap(t *testing.T, s *Store) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		h := &sh.expiring
		expiring := 0
		for key, el := range sh.entries {
			se := el.Value.(*storedEntry)
			if se.entry.ExpiresAt.IsZero() {
				if se.heapIdx != noHeapIdx {
					t.Errorf("%s never expires but has heap index %d", key, se.heapIdx)
				}
				continue
			}
			expiring++
			if se.heapIdx < 0 || se.heapIdx >= len(h.items) || h.items[se.heapIdx] != se {
				t.Errorf("%s expires but is not at its heap index %d (heap holds %d)", key, se.heapIdx, len(h.items))
			}
		}
		if len(h.items) != expiring {
			t.Errorf("heap holds %d entries, shard stores %d that expire", len(h.items), expiring)
		}
		for i := 1; i < len(h.items); i++ {
			if h.Less(i, (i-1)/2) {
				t.Errorf("heap order broken at %d", i)
			}
		}
		sh.mu.Unlock()
	}
}

// TestStoreMatchesLinearReference runs random programs — puts of new and
// stored keys with and without an expiry, gets, deletes, sweeps, clears,
// clock advances — against Store and refStore under every policy and
// both kinds of bound.
func TestStoreMatchesLinearReference(t *testing.T) {
	bounds := []struct {
		name               string
		maxItems, maxBytes int
	}{
		{"MaxItems", 8, 0},
		{"MaxBytes", 0, 1200},
		{"Both", 10, 1500},
	}
	for _, policy := range []Policy{LRU, LFU, FIFO} {
		for _, bound := range bounds {
			t.Run(policy.String()+"/"+bound.name, func(t *testing.T) {
				for seed := int64(1); seed <= 40; seed++ {
					runModelProgram(t, seed, policy, bound.maxItems, bound.maxBytes)
				}
			})
		}
	}
}

func runModelProgram(t *testing.T, seed int64, policy Policy, maxItems, maxBytes int) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := New(Config{MaxItems: maxItems, MaxBytes: maxBytes, Policy: policy, Clock: clk})
	ref := &refStore{policy: policy, maxItems: maxItems, maxBytes: maxBytes, clk: clk}
	key := func() string { return "/k" + strconv.Itoa(rng.Intn(24)) }

	for step := 0; step < 400; step++ {
		var op string
		switch p := rng.Intn(100); {
		case p < 50:
			e := Entry{Key: key(), Body: make([]byte, rng.Intn(200)), Version: uint64(step), StoredAt: clk.Now()}
			if rng.Intn(10) < 7 {
				// Distinct expiries: which of two entries expiring at the
				// same instant goes first is not part of the contract.
				e.ExpiresAt = clk.Now().Add(time.Duration(1+rng.Intn(20))*time.Second + time.Duration(step))
			}
			op = fmt.Sprintf("Put(%s, %d bytes, expires %v)", e.Key, len(e.Body), e.ExpiresAt.Sub(clk.Now()))
			s.Put(e)
			ref.put(e)
		case p < 70:
			k := key()
			op = "Get(" + k + ")"
			if _, got := s.Get(k); got != ref.get(k) {
				t.Fatalf("seed %d step %d: %s = %v, reference disagrees", seed, step, op, got)
			}
		case p < 78:
			k := key()
			op = "Delete(" + k + ")"
			if got := s.Delete(k); got != ref.delete(k) {
				t.Fatalf("seed %d step %d: %s = %v, reference disagrees", seed, step, op, got)
			}
		case p < 92:
			d := time.Duration(rng.Intn(10000)) * time.Millisecond
			op = fmt.Sprintf("Advance(%v)", d)
			clk.Advance(d)
		case p < 97:
			op = "Sweep()"
			if got, want := s.Sweep(), ref.sweep(); got != want {
				t.Fatalf("seed %d step %d: Sweep reaped %d, reference %d", seed, step, got, want)
			}
		default:
			op = "Clear()"
			s.Clear()
			ref.clear()
		}
		if got, want := s.Keys(), ref.keys(true); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d after %s: Keys() = %v, reference %v", seed, step, op, got, want)
		}
		if got, want := storedKeys(s), ref.keys(false); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d after %s: stored keys = %v, reference %v", seed, step, op, got, want)
		}
		if got := s.Stats(); got != ref.stats {
			t.Fatalf("seed %d step %d after %s: Stats() = %+v, reference %+v", seed, step, op, got, ref.stats)
		}
		checkExpiryHeap(t, s)
		if t.Failed() {
			t.Fatalf("seed %d step %d after %s: heap index broken", seed, step, op)
		}
	}
}

// TestPutAtCapacityVisitsNoList bounds the work of a Put into a full
// store by counting, not timing. Heap work is counted in element moves
// and must stay logarithmic in the store's size; and in the second phase
// every list element no Put has a reason to look at is turned into a
// tripwire, so a pass over the eviction list panics.
func TestPutAtCapacityVisitsNoList(t *testing.T) {
	for _, n := range []int{4096, 100000} {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			const puts = 500
			clk := clock.NewSimulated(time.Unix(1000, 0))
			s := New(Config{MaxItems: n, Clock: clk})
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < n; i++ {
				ttl := time.Hour + time.Duration(rng.Intn(3600))*time.Second
				if i%8 == 0 && i/8 < puts {
					ttl = time.Minute // the entries phase one finds expired
				}
				s.Put(TTLEntry(clk, "/fill/"+strconv.Itoa(i), nil, 1, ttl))
			}
			clk.Advance(2 * time.Minute)
			sh := s.shards[0]
			// A push sifts up at most log2(n) levels; a removal swaps with
			// the last element and sifts one way.
			perPut := uint64(2*bits.Len(uint(n)) + 1)

			run := func(phase string, wantExpired, wantEvicted uint64) {
				t.Helper()
				before, moves := s.Stats(), sh.expiring.moves
				for i := 0; i < puts; i++ {
					s.Put(TTLEntry(clk, "/"+phase+"/"+strconv.Itoa(i), nil, 1, time.Hour))
				}
				after := s.Stats()
				if got := after.Expirations - before.Expirations; got != wantExpired {
					t.Errorf("%s: %d expirations, want %d", phase, got, wantExpired)
				}
				if got := after.Evictions - before.Evictions; got != wantEvicted {
					t.Errorf("%s: %d evictions, want %d", phase, got, wantEvicted)
				}
				if got := sh.expiring.moves - moves; got > puts*perPut {
					t.Errorf("%s: %d heap moves over %d puts, want at most %d each", phase, got, puts, perPut)
				}
			}

			// Phase one: every Put drops one expired entry through the heap.
			run("expired", puts, 0)

			// Phase two: nothing is expired, every Put evicts the list's
			// front. Those fronts aside, the list is off limits.
			i := 0
			for el := sh.order.Front(); el != nil; el = el.Next() {
				if i++; i > puts {
					el.Value = nil
				}
			}
			run("full", 0, puts)
		})
	}
}

// TestStoreFullConcurrent hammers a full store from several goroutines;
// run under -race it checks that the heap is only touched under the
// shard lock, and the index must still be whole afterwards.
func TestStoreFullConcurrent(t *testing.T) {
	const capacity = 256
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := New(Config{MaxItems: capacity, Clock: clk})
	for i := 0; i < capacity; i++ {
		s.Put(TTLEntry(clk, "/k"+strconv.Itoa(i), nil, 1, time.Hour))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := "/k" + strconv.Itoa(rng.Intn(4*capacity))
				switch rng.Intn(4) {
				case 0:
					s.PeekAny(k)
				case 1:
					s.Delete(k)
				default:
					s.Put(TTLEntry(clk, k, nil, 1, time.Duration(rng.Intn(3))*time.Second))
				}
				if g == 0 && i%100 == 0 {
					clk.Advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n > capacity {
		t.Fatalf("Len() = %d, over the bound of %d", n, capacity)
	}
	checkExpiryHeap(t, s)
}

// BenchmarkStorePutFull is a Put of a new key into a store at capacity
// with nothing expired: the edge's commit on every miss once its cache
// has filled, and the CDN simulator's at its default bound.
func BenchmarkStorePutFull(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			clk := clock.NewSimulated(time.Unix(1000, 0))
			s := New(Config{MaxItems: n, Clock: clk})
			// Twice the capacity in keys: by the time one comes round
			// again it has long been evicted.
			keys := make([]string, 2*n)
			for i := range keys {
				keys[i] = "/bench/" + strconv.Itoa(i)
			}
			body := make([]byte, 256)
			expires := clk.Now().Add(time.Hour)
			// Later fills expire later, as they do behind one max-age.
			for i := 0; i < n; i++ {
				s.Put(Entry{Key: keys[n+i], Body: body, StoredAt: clk.Now(), ExpiresAt: expires.Add(time.Duration(i - n))})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(Entry{Key: keys[i%len(keys)], Body: body, StoredAt: clk.Now(), ExpiresAt: expires.Add(time.Duration(i))})
			}
		})
	}
}
