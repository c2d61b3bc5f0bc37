package cache

import (
	"container/heap"
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
// states it: one slice in recency order (least recently used first) and a
// linear scan for every decision. Its expired-first pass is the one Store
// had before the expiring heap, with the one thing that pass left to list
// order made explicit: of several expired entries the one that expired
// first goes first. The model test and FuzzStoreMatchesModel drive Store
// and refStore with the same program and demand the same state after
// every step.
type refStore struct {
	order    []Entry
	maxItems int
	stats    Stats
	clk      clock.Clock
}

func (r *refStore) find(key string) int {
	for i, e := range r.order {
		if e.Key == key {
			return i
		}
	}
	return -1
}

func (r *refStore) remove(i int) {
	r.order = append(r.order[:i:i], r.order[i+1:]...)
}

// touch moves the entry at i to the back, as the most recently used.
func (r *refStore) touch(i int) {
	e := r.order[i]
	r.order = append(append(r.order[:i:i], r.order[i+1:]...), e)
}

func (r *refStore) get(key string) bool {
	i := r.find(key)
	if i < 0 {
		r.stats.Misses++
		return false
	}
	if r.order[i].Expired(r.clk.Now()) {
		r.remove(i)
		r.stats.Expirations++
		r.stats.Misses++
		return false
	}
	r.touch(i)
	r.stats.Hits++
	return true
}

func (r *refStore) put(e Entry) {
	if i := r.find(e.Key); i >= 0 {
		r.order[i] = e
		r.touch(i)
	} else {
		r.order = append(r.order, e)
	}
	r.stats.Puts++
	r.evict()
}

func (r *refStore) evict() {
	over := func() bool { return len(r.order) > r.maxItems }
	if !over() {
		return
	}
	now := r.clk.Now()
	// First pass: drop expired entries.
	for over() {
		victim := -1
		for i, e := range r.order {
			if e.Expired(now) && (victim < 0 || e.ExpiresAt.Before(r.order[victim].ExpiresAt)) {
				victim = i
			}
		}
		if victim < 0 {
			break
		}
		r.remove(victim)
		r.stats.Expirations++
	}
	// Second pass: the least recently used.
	for over() {
		r.remove(0)
		r.stats.Evictions++
	}
}

// peek is Peek, or PeekAny when evenExpired: no promotion, no stats.
func (r *refStore) peek(key string, evenExpired bool) (Entry, bool) {
	i := r.find(key)
	if i < 0 || (!evenExpired && r.order[i].Expired(r.clk.Now())) {
		return Entry{}, false
	}
	return r.order[i], true
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
}

// keys lists the stored keys in recency order; liveOnly leaves out the
// expired ones, as Store.Keys does.
func (r *refStore) keys(liveOnly bool) []string {
	now := r.clk.Now()
	out := []string{}
	for _, e := range r.order {
		if !liveOnly || !e.Expired(now) {
			out = append(out, e.Key)
		}
	}
	return out
}

// storedKeys lists every key a single-shard store holds, expired ones
// included, in recency order.
func storedKeys(s *Store) []string {
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := []string{}
	for se := sh.head; se != nil; se = se.next {
		out = append(out, se.entry.Key)
	}
	return out
}

// checkIndexes verifies the two intrusive indexes. The recency links
// chain exactly the stored entries, each once, from head to tail, and
// every prev link mirrors a next. Every stored entry that expires sits in
// its shard's heap exactly once, at the position it records; entries
// that never expire and removed entries are not in it; and the heap order
// holds.
func checkIndexes(t *testing.T, s *Store) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		linked := 0
		var prev *storedEntry
		for se := sh.head; se != nil && linked <= len(sh.entries); se = se.next {
			if se.prev != prev || sh.entries[se.entry.Key] != se {
				t.Errorf("%s: prev link or map entry wrong at position %d", se.entry.Key, linked)
			}
			prev = se
			linked++
		}
		if linked != len(sh.entries) || sh.tail != prev {
			t.Errorf("the recency links chain %d entries, the shard stores %d, or the last is not the tail", linked, len(sh.entries))
		}
		h := &sh.expiring
		expiring := 0
		for key, se := range sh.entries {
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
// stored keys with and without an expiry, gets, deletes, clears, clock
// advances — against Store and refStore. The subtest is named for the
// one policy and the one kind of bound the store has.
func TestStoreMatchesLinearReference(t *testing.T) {
	t.Run("lru/MaxItems", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			runModelProgram(t, seed, 8)
		}
	})
}

func runModelProgram(t *testing.T, seed int64, maxItems int) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := New(Config{MaxItems: maxItems, Clock: clk})
	ref := &refStore{maxItems: maxItems, clk: clk}
	key := func() string { return "/k" + strconv.Itoa(rng.Intn(24)) }

	for step := 0; step < 400; step++ {
		var op string
		switch p := rng.Intn(100); {
		case p < 50:
			e := Entry{Key: key(), Version: uint64(step), StoredAt: clk.Now()}
			if rng.Intn(10) < 7 {
				// Distinct expiries: which of two entries expiring at the
				// same instant goes first is not part of the contract.
				e.ExpiresAt = clk.Now().Add(time.Duration(1+rng.Intn(20))*time.Second + time.Duration(step))
			}
			op = fmt.Sprintf("Put(%s, expires %v)", e.Key, e.ExpiresAt.Sub(clk.Now()))
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
		case p < 97:
			d := time.Duration(rng.Intn(10000)) * time.Millisecond
			op = fmt.Sprintf("Advance(%v)", d)
			clk.Advance(d)
		default:
			op = "Clear()"
			s.Clear()
			ref.clear()
		}
		checkModel(t, s, ref, func() string { return fmt.Sprintf("seed %d step %d after %s", seed, step, op) })
	}
}

// checkModel demands that a single-shard store hold what ref holds after
// the op at names: the same live keys in recency order, the same stored
// keys expired ones included, the same Len and Stats, and whole indexes.
func checkModel(t *testing.T, s *Store, ref *refStore, at func() string) {
	t.Helper()
	if got, want := s.Keys(), ref.keys(true); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Keys() = %v, reference %v", at(), got, want)
	}
	if got, want := storedKeys(s), ref.keys(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stored keys = %v, reference %v", at(), got, want)
	}
	if got, want := s.Len(), len(ref.order); got != want {
		t.Fatalf("%s: Len() = %d, reference %d", at(), got, want)
	}
	if got := s.Stats(); got != ref.stats {
		t.Fatalf("%s: Stats() = %+v, reference %+v", at(), got, ref.stats)
	}
	checkIndexes(t, s)
	if t.Failed() {
		t.Fatalf("%s: index broken", at())
	}
}

// FuzzStoreMatchesModel runs the program its bytes spell on a one-shard
// store and on refStore, and demands the same state after every op. The
// first byte picks MaxItems, 1 to 4; then each pair of bytes is an op and
// its argument, whose low bits pick one of six keys. The ops are Put (with
// no expiry, or one of up to 42 s plus its step in nanoseconds, so no two
// entries expire at the same instant), Get, Peek, PeekAny, Delete, Clear
// and a clock advance of up to 25.5 s; a program runs at most 256 ops.
func FuzzStoreMatchesModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 0, 2})
	f.Add([]byte{1, 8, 7, 8, 14, 8, 21, 6, 40, 2, 7, 9, 1, 3, 2, 4, 3, 5, 8})
	f.Add([]byte{3, 8, 0, 8, 1, 8, 2, 8, 3, 8, 4, 6, 10, 0, 5, 2, 0, 7, 0, 8, 200})
	f.Fuzz(func(t *testing.T, prog []byte) {
		// Six keys over at most four slots need no long program, and a
		// short one keeps the fuzzer's minimizing quick.
		if len(prog) == 0 || len(prog) > 513 {
			return
		}
		maxItems := 1 + int(prog[0]%4)
		clk := clock.NewSimulated(time.Unix(1000, 0))
		s := New(Config{MaxItems: maxItems, Clock: clk})
		ref := &refStore{maxItems: maxItems, clk: clk}
		for step := 1; step+1 < len(prog); step += 2 {
			code, arg := prog[step], prog[step+1]
			key := "/k" + strconv.Itoa(int(arg%6))
			var e Entry
			op := func() string {
				switch code % 8 {
				case 0, 1:
					if e.ExpiresAt.IsZero() {
						return "Put(" + key + ", never expires)"
					}
					return fmt.Sprintf("Put(%s, expires at %v)", key, e.ExpiresAt.Sub(time.Unix(1000, 0)))
				case 2:
					return "Get(" + key + ")"
				case 3:
					return "Peek(" + key + ")"
				case 4:
					return "PeekAny(" + key + ")"
				case 5:
					return "Delete(" + key + ")"
				case 6:
					return fmt.Sprintf("Advance(%v)", time.Duration(arg)*100*time.Millisecond)
				}
				return "Clear()"
			}
			switch code % 8 {
			case 0, 1:
				e = Entry{Key: key, Version: uint64(step), StoredAt: clk.Now()}
				if code&8 != 0 {
					e.ExpiresAt = clk.Now().Add(time.Duration(arg/6)*time.Second + time.Duration(step))
				}
				s.Put(e)
				ref.put(e)
			case 2:
				if _, got := s.Get(key); got != ref.get(key) {
					t.Fatalf("step %d: %s = %v, reference disagrees", step, op(), got)
				}
			case 3, 4:
				evenExpired := code%8 == 4
				var ok bool
				if evenExpired {
					e, ok = s.PeekAny(key)
				} else {
					e, ok = s.Peek(key)
				}
				if we, wok := ref.peek(key, evenExpired); ok != wok || !reflect.DeepEqual(e, we) {
					t.Fatalf("step %d: %s = %+v, %v, reference %+v, %v", step, op(), e, ok, we, wok)
				}
			case 5:
				if got := s.Delete(key); got != ref.delete(key) {
					t.Fatalf("step %d: %s = %v, reference disagrees", step, op(), got)
				}
			case 6:
				clk.Advance(time.Duration(arg) * 100 * time.Millisecond)
			default:
				s.Clear()
				ref.clear()
			}
			checkModel(t, s, ref, func() string { return fmt.Sprintf("MaxItems %d step %d after %s", maxItems, step, op()) })
		}
	})
}

// TestPutAtCapacityVisitsNoList bounds the work of a Put into a full
// store by counting, not timing. Heap work is counted in element moves
// and must stay logarithmic in the store's size; and in the second phase
// every list element no Put has a reason to look at is turned into a
// tripwire, so a pass over the recency list that judges expiry breaks
// the phase's counts.
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
			// front. Those fronts aside, the list is off limits: every
			// other entry reads expired but sits in no heap, so only a pass
			// over the list finds one, and dropping it is an expiration
			// the phase must not count.
			i := 0
			sh.mu.Lock()
			for se := sh.head; se != nil; se = se.next {
				if i++; i > puts {
					heap.Remove(&sh.expiring, se.heapIdx)
					se.entry.ExpiresAt = clk.Now().Add(-time.Second)
				}
			}
			sh.mu.Unlock()
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
	checkIndexes(t, s)
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
