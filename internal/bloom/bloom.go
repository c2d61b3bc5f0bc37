// Package bloom implements the probabilistic set representations that back
// the Cache Sketch: a plain Bloom filter (the compact form shipped to
// clients) and a counting Bloom filter (the mutable form maintained at the
// server, which supports removal when a resource's last cached copy
// expires).
//
// Hashing uses the Kirsch–Mitzenmacher double-hashing scheme over FNV-1a:
// two independent 32-bit hashes h1, h2 are derived from one 64-bit FNV
// digest and the k probe positions are g_i = h1 + i·h2 (mod m). This gives
// the asymptotically optimal false-positive behaviour of k independent
// hash functions at the cost of one digest per key.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Filter is a classic Bloom filter over string keys. It is NOT safe for
// concurrent mutation; the Cache Sketch wraps it with its own
// synchronization because sketch updates and serialization must be atomic
// with respect to each other anyway.
type Filter struct {
	bits []uint64
	m    uint32 // number of bits
	k    uint32 // number of probes
	n    uint64 // number of Add calls (for fill estimation)
}

// NewFilter creates a filter with m bits and k probes. m is rounded up to
// at least 64; k is clamped to [1, 32].
func NewFilter(m, k uint32) *Filter {
	if m < 64 {
		m = 64
	}
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return &Filter{
		bits: make([]uint64, (m+63)/64),
		m:    m,
		k:    k,
	}
}

// NewFilterForCapacity sizes a filter for n expected entries at the target
// false-positive rate p using the standard optima m = -n·ln p / (ln 2)² and
// k = (m/n)·ln 2.
func NewFilterForCapacity(n uint64, p float64) *Filter {
	m, k := OptimalParams(n, p)
	return NewFilter(m, k)
}

// OptimalParams returns the optimal (m, k) for n entries at false-positive
// rate p. Degenerate inputs fall back to a small sane filter.
func OptimalParams(n uint64, p float64) (m, k uint32) {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	ln2 := math.Ln2
	mf := -float64(n) * math.Log(p) / (ln2 * ln2)
	kf := mf / float64(n) * ln2
	m = uint32(math.Ceil(mf))
	k = uint32(math.Round(kf))
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return m, k
}

// CompactableParams is OptimalParams with m rounded up to the next 64·2^j,
// the sizes Compact can halve. Every filter that is to be unioned with
// another must be sized through the same function: the Cache Sketch server
// and the cluster merger both use this one.
func CompactableParams(n uint64, p float64) (m, k uint32) {
	m, k = OptimalParams(n, p)
	if m > 1<<31 {
		return m, k // no power of two left to round up to: sent as it is
	}
	size := uint32(64)
	for size < m {
		size <<= 1
	}
	return size, k
}

// FNV-1a parameters (64-bit variant). The digest is computed inline so
// that a probe costs no heap allocation: hash/fnv's New64a forces a
// hash.Hash64 allocation plus a string→[]byte conversion, which is pure
// overhead for a loop the compiler can keep entirely in registers.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Probes is the precomputed Kirsch–Mitzenmacher probe pair for one key:
// the two independent 32-bit base hashes h1, h2 from which all k probe
// positions g_i = h1 + i·h2 (mod m) derive. Computing it once per key and
// sharing it between Filter, Counting, and the Cache Sketch's
// Snapshot.MightBeStale is what makes a sketch check a zero-allocation
// operation.
type Probes struct {
	h1, h2 uint32
}

// ProbesFor derives the probe pair for key with one inline FNV-1a pass.
// It allocates nothing and is identical in distribution to the previous
// hash/fnv-based derivation (same algorithm, same digest).
//
//speedkit:hotpath
func ProbesFor(key string) Probes {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	h1 := uint32(h)
	h2 := uint32(h >> 32)
	// h2 must be odd so probe positions cycle through all residues when m
	// is a power of two, and nonzero in general.
	h2 |= 1
	return Probes{h1: h1, h2: h2}
}

// hashKey derives the two base hashes for a key.
func hashKey(key string) (h1, h2 uint32) {
	p := ProbesFor(key)
	return p.h1, p.h2
}

// BatchSize is the fan-out of the batched probe paths: ProbesForBatch and
// the *Batch filter operations process keys in groups of up to BatchSize,
// so a caller holding a lock pays its acquisition once per group instead
// of once per key, and the probe pairs for a group stay resident in a
// single stack-allocated array while its bits are tested.
const BatchSize = 8

// ProbesForBatch derives probe pairs for up to BatchSize keys into dst.
// It is the vectorized form of ProbesFor — same digest per key, batched so
// the hash loop runs back-to-back over the group without interleaved bit
// tests — and allocates nothing.
//
//speedkit:hotpath
func ProbesForBatch(keys []string, dst *[BatchSize]Probes) {
	if len(keys) > BatchSize {
		keys = keys[:BatchSize]
	}
	for i, k := range keys {
		dst[i] = ProbesFor(k)
	}
}

// probe returns the bit index of the i-th probe for the given base hashes.
func probe(h1, h2, i, m uint32) uint32 {
	return (h1 + i*h2) % m
}

// bit returns the i-th probe position for p in a filter of m bits.
func (p Probes) bit(i, m uint32) uint32 { return probe(p.h1, p.h2, i, m) }

// Add inserts key.
func (f *Filter) Add(key string) {
	f.AddProbes(ProbesFor(key))
}

// AddProbes inserts the key whose precomputed probe pair is p. Callers
// that touch several filters for the same key derive the pair once and
// share it.
func (f *Filter) AddProbes(p Probes) {
	for i := uint32(0); i < f.k; i++ {
		b := p.bit(i, f.m)
		f.bits[b/64] |= 1 << (b % 64)
	}
	f.n++
}

// Contains reports whether key may be in the set. False positives are
// possible; false negatives are not. Allocates nothing.
//
//speedkit:hotpath
func (f *Filter) Contains(key string) bool {
	return f.ContainsProbes(ProbesFor(key))
}

// ContainsBatch tests every key, writing Contains(keys[i]) into hits[i].
// hits must be at least as long as keys. Keys are processed in groups of
// BatchSize — probe pairs first, bit tests second — so the hash loops and
// the word probes each run back-to-back over the group, and a caller
// amortizes one lock acquisition (or one snapshot load) over the whole
// batch. Allocates nothing and answers identically to per-key Contains.
//
//speedkit:hotpath
func (f *Filter) ContainsBatch(keys []string, hits []bool) {
	var pb [BatchSize]Probes
	for off := 0; off < len(keys); off += BatchSize {
		end := off + BatchSize
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[off:end]
		ProbesForBatch(chunk, &pb)
		for i := range chunk {
			hits[off+i] = f.ContainsProbes(pb[i])
		}
	}
}

// ContainsProbes is Contains for a precomputed probe pair.
//
//speedkit:hotpath
func (f *Filter) ContainsProbes(p Probes) bool {
	for i := uint32(0); i < f.k; i++ {
		b := p.bit(i, f.m)
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear resets the filter to empty.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Saturate sets every bit, turning the filter into the all-stale sketch:
// Contains returns true for every key. Crash recovery publishes a
// saturated sketch during its conservative cold-start window so that,
// with zero surviving coherence history, every client revalidates — the
// direction Bloom false positives are always allowed to err in.
func (f *Filter) Saturate() {
	for i := range f.bits {
		f.bits[i] = ^uint64(0)
	}
	f.n = uint64(f.m)
}

// Bits returns m, the filter's size in bits.
func (f *Filter) Bits() uint32 { return f.m }

// Hashes returns k, the number of probes.
func (f *Filter) Hashes() uint32 { return f.k }

// SizeBytes returns the in-memory payload size of the bit array, which is
// also the serialized size minus the fixed header. This is what the Cache
// Sketch reports as "sketch bytes on the wire".
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// FillRatio returns the fraction of set bits, the quantity that determines
// the realized false-positive rate ((fill)^k).
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.m)
}

// Compact returns the smallest filter that answers for f's keys at f's
// design rate. Probe positions are (h1 + i·h2) mod m, so for m = 64·2^j
// OR-ing the upper half of the words onto the lower half gives, bit for
// bit, the filter the same keys build at m/2: no key of f is ever reported
// absent, and a reader needs nothing but the (m, k) that already travel in
// the header. Compact halves while the result's fill stays at or below ½ —
// the fill of an optimal filter at capacity, where the false-positive rate
// is 2⁻ᵏ — so a filter sized for ten thousand keys and holding a hundred
// ships at a hundredth of the size. A filter of all ones loses nothing by
// halving and becomes the 64-bit all-ones. One whose m is not 64·2^j, or
// that is already past ½, is returned as it is (the same pointer); the
// result is otherwise a new filter and f is not modified.
func (f *Filter) Compact() *Filter {
	words := len(f.bits)
	if words < 2 || uint64(f.m) != uint64(words)*64 || words&(words-1) != 0 {
		return f
	}
	saturated := true
	for _, w := range f.bits {
		if w != ^uint64(0) {
			saturated = false
			break
		}
	}
	if saturated {
		out := NewFilter(64, f.k)
		out.Saturate()
		return out
	}
	// cur is the filter at the size reached so far: f's own words, read
	// only, until the first halving moves it into a buffer of its own.
	cur := f.bits
	var buf []uint64
	for len(cur) > 1 {
		half := len(cur) / 2
		ones := 0
		for i := 0; i < half; i++ {
			ones += popcount(cur[i] | cur[i+half])
		}
		if ones > half*64/2 {
			break
		}
		if buf == nil {
			buf = make([]uint64, half)
		}
		for i := 0; i < half; i++ {
			buf[i] = cur[i] | cur[i+half]
		}
		cur = buf[:half]
	}
	if buf == nil {
		return f
	}
	return &Filter{bits: cur, m: uint32(len(cur)) * 64, k: f.k, n: f.n}
}

// ErrParamMismatch is the sentinel for every merge/union of filters whose
// parameters (m, k) disagree. Unioning incompatible filters would scatter
// probe positions and silently corrupt the merged sketch — bits set for one
// key could satisfy Contains for arbitrary other keys, or worse, a flatten
// of the corrupt union could miss keys and break Δ-atomicity. Callers
// (notably the cluster merge layer) match it with errors.Is.
var ErrParamMismatch = errors.New("bloom: filter parameter mismatch")

// ErrNilFilter is returned when merging with a nil filter.
var ErrNilFilter = errors.New("bloom: merge with nil filter")

// mismatchError wraps ErrParamMismatch with both parameter sets so the
// error message pinpoints which dimension disagrees.
func mismatchError(m1, k1, m2, k2 uint32) error {
	return fmt.Errorf("%w (m=%d,k=%d vs m=%d,k=%d)", ErrParamMismatch, m1, k1, m2, k2)
}

// Union ORs other into f. Both filters must have identical parameters;
// a mismatch returns an error wrapping ErrParamMismatch and leaves f
// untouched.
func (f *Filter) Union(other *Filter) error {
	if other == nil {
		return ErrNilFilter
	}
	if f.m != other.m || f.k != other.k {
		return mismatchError(f.m, f.k, other.m, other.k)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.n += other.n
	return nil
}

// Merge is Union under the name the cluster merge layer uses; it exists so
// Filter and Counting expose the same merge verb with the same typed
// error contract.
func (f *Filter) Merge(other *Filter) error { return f.Union(other) }

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		bits: make([]uint64, len(f.bits)),
		m:    f.m,
		k:    f.k,
		n:    f.n,
	}
	copy(c.bits, f.bits)
	return c
}

func popcount(x uint64) int {
	// math/bits would be fine too, but keeping the hot path inlined and
	// explicit documents the cost model used in the size benchmarks.
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// --- serialization -------------------------------------------------------

// marshal header: magic "SKBF", version, k, m, then the bit words.
var filterMagic = [4]byte{'S', 'K', 'B', 'F'}

const filterVersion = 1

// MarshalBinary encodes the filter for transfer to clients. The format is
// stable: 4-byte magic, 1-byte version, 4-byte big-endian k, 4-byte m,
// followed by the raw little-endian bit words.
func (f *Filter) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 13+len(f.bits)*8)
	out = append(out, filterMagic[:]...)
	out = append(out, filterVersion)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], f.k)
	binary.BigEndian.PutUint32(hdr[4:8], f.m)
	out = append(out, hdr[:]...)
	var w [8]byte
	for _, word := range f.bits {
		binary.LittleEndian.PutUint64(w[:], word)
		out = append(out, w[:]...)
	}
	return out, nil
}

// UnmarshalBinary decodes a filter produced by MarshalBinary. The bytes
// may come from anywhere, so the parameters NewFilter would clamp are
// refused here: m below 64 (m = 0 divides by zero at the first probe) and
// k outside [1, 32] (k = 2³²−1 is four billion probes per lookup).
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < 13 {
		return errors.New("bloom: truncated filter")
	}
	if [4]byte(data[0:4]) != filterMagic {
		return errors.New("bloom: bad magic")
	}
	if data[4] != filterVersion {
		return fmt.Errorf("bloom: unsupported version %d", data[4])
	}
	k := binary.BigEndian.Uint32(data[5:9])
	m := binary.BigEndian.Uint32(data[9:13])
	if m < 64 || k < 1 || k > 32 {
		return fmt.Errorf("bloom: parameters out of range (m=%d, k=%d)", m, k)
	}
	nwords := int((uint64(m) + 63) / 64)
	if len(data) != 13+nwords*8 {
		return fmt.Errorf("bloom: payload length %d does not match m=%d", len(data), m)
	}
	bits := make([]uint64, nwords)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[13+i*8:])
	}
	f.bits, f.m, f.k, f.n = bits, m, k, 0
	return nil
}
