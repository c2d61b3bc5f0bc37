package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomKeys returns n distinct-ish keys drawn from rng, with lengths
// varied so batch chunk boundaries and the hash loop both get exercised.
func randomKeys(rng *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/k/%d/%x", rng.Intn(n*4), rng.Uint64()>>uint(rng.Intn(40)))
	}
	return keys
}

// ContainsBatch must answer exactly what per-key Contains answers — for
// present keys (always true), absent keys (usually false), and false
// positives (where both paths must agree, since they share probe math).
// Property-tested over random key sets and batch sizes.
func TestContainsBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		f := NewFilterForCapacity(128, 0.05)
		present := randomKeys(rng, 1+rng.Intn(200))
		for _, k := range present {
			f.Add(k)
		}
		// Query a mix of inserted keys and fresh ones.
		queries := append(randomKeys(rng, 1+rng.Intn(3*BatchSize)), present[:rng.Intn(len(present)+1)]...)
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		hits := make([]bool, len(queries))
		f.ContainsBatch(queries, hits)
		for i, q := range queries {
			if want := f.Contains(q); hits[i] != want {
				t.Fatalf("trial %d: ContainsBatch(%q) = %v, Contains = %v", trial, q, hits[i], want)
			}
		}
		// No false negatives through the batch path.
		ph := make([]bool, len(present))
		f.ContainsBatch(present, ph)
		for i, ok := range ph {
			if !ok {
				t.Fatalf("trial %d: batch path lost inserted key %q", trial, present[i])
			}
		}
	}
}

// ProbesForBatch must derive the same digests ProbesFor does, including
// when handed fewer keys than BatchSize (stale dst slots beyond the key
// count are simply not written).
func TestProbesForBatchMatchesProbesFor(t *testing.T) {
	keys := []string{"", "a", "/products/42", "/baskets/u17", "x", "yy", "zzz", "w"}
	var pb [BatchSize]Probes
	ProbesForBatch(keys, &pb)
	for i, k := range keys {
		if pb[i] != ProbesFor(k) {
			t.Fatalf("ProbesForBatch[%d] = %+v, ProbesFor(%q) = %+v", i, pb[i], k, ProbesFor(k))
		}
	}
	short := keys[:3]
	var pb2 [BatchSize]Probes
	ProbesForBatch(short, &pb2)
	for i, k := range short {
		if pb2[i] != ProbesFor(k) {
			t.Fatalf("short batch slot %d wrong for %q", i, k)
		}
	}
}

// The batched probe paths sit on every sketch check of a page's worth of
// keys: steady-state batch queries allocate nothing (the probe array
// lives on the stack, chunking reslices only).
func TestContainsBatchZeroAlloc(t *testing.T) {
	f := NewFilterForCapacity(1024, 0.01)
	keys := randomKeys(rand.New(rand.NewSource(3)), 3*BatchSize+5)
	for _, k := range keys[:10] {
		f.Add(k)
	}
	hits := make([]bool, len(keys))
	if n := testing.AllocsPerRun(1000, func() {
		f.ContainsBatch(keys, hits)
	}); n != 0 {
		t.Fatalf("ContainsBatch allocates %.1f per run, want 0", n)
	}
	var pb [BatchSize]Probes
	if n := testing.AllocsPerRun(1000, func() {
		ProbesForBatch(keys[:BatchSize], &pb)
	}); n != 0 {
		t.Fatalf("ProbesForBatch allocates %.1f per run, want 0", n)
	}
}
