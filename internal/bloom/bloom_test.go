package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewFilterForCapacity(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFilterFalsePositiveRateNearTarget(t *testing.T) {
	const n, target = 10000, 0.01
	f := NewFilterForCapacity(n, target)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*2.5 {
		t.Fatalf("observed FPR %.4f far above target %.4f", rate, target)
	}
}

func TestOptimalParams(t *testing.T) {
	m, k := OptimalParams(10000, 0.01)
	// Standard values: m ≈ 9.585 bits/entry, k ≈ 7.
	if m < 90000 || m > 100000 {
		t.Errorf("m = %d, want ~95851", m)
	}
	if k != 7 {
		t.Errorf("k = %d, want 7", k)
	}
	// Degenerate inputs fall back sanely.
	m, k = OptimalParams(0, -1)
	if m == 0 || k == 0 {
		t.Errorf("degenerate params m=%d k=%d", m, k)
	}
}

func TestFilterParamClamping(t *testing.T) {
	f := NewFilter(1, 0)
	if f.Bits() < 64 || f.Hashes() != 1 {
		t.Fatalf("clamping failed: m=%d k=%d", f.Bits(), f.Hashes())
	}
	f = NewFilter(128, 100)
	if f.Hashes() != 32 {
		t.Fatalf("k not clamped: %d", f.Hashes())
	}
}

func TestFilterClear(t *testing.T) {
	f := NewFilter(1024, 4)
	f.Add("x")
	f.Clear()
	if f.Contains("x") {
		t.Fatal("cleared filter still contains x")
	}
	if f.FillRatio() != 0 {
		t.Fatalf("fill after clear = %v", f.FillRatio())
	}
}

func TestFilterFillAndFPREstimates(t *testing.T) {
	f := NewFilterForCapacity(5000, 0.02)
	for i := 0; i < 5000; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	fill := f.FillRatio()
	// At design capacity, fill should be near 0.5 (optimal k keeps it there).
	if fill < 0.4 || fill > 0.6 {
		t.Errorf("fill at capacity = %v, want ~0.5", fill)
	}
}

func TestFilterUnion(t *testing.T) {
	a := NewFilter(2048, 4)
	b := NewFilter(2048, 4)
	a.Add("only-a")
	b.Add("only-b")
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains("only-a") || !a.Contains("only-b") {
		t.Fatal("union lost members")
	}
}

func TestFilterUnionMismatch(t *testing.T) {
	a := NewFilter(2048, 4)
	if err := a.Union(nil); err == nil {
		t.Fatal("nil union accepted")
	}
	b := NewFilter(4096, 4)
	if err := a.Union(b); err == nil {
		t.Fatal("mismatched union accepted")
	}
	c := NewFilter(2048, 5)
	if err := a.Union(c); err == nil {
		t.Fatal("mismatched k union accepted")
	}
}

func TestFilterClone(t *testing.T) {
	a := NewFilter(1024, 3)
	a.Add("x")
	b := a.Clone()
	b.Add("y")
	if a.Contains("y") {
		t.Fatal("clone shares bit storage with original")
	}
	if !b.Contains("x") {
		t.Fatal("clone lost member")
	}
}

func TestFilterMarshalRoundTrip(t *testing.T) {
	a := NewFilterForCapacity(500, 0.05)
	for i := 0; i < 500; i++ {
		a.Add(fmt.Sprintf("rt-%d", i))
	}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b Filter
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if b.Bits() != a.Bits() || b.Hashes() != a.Hashes() {
		t.Fatalf("params changed: m=%d k=%d", b.Bits(), b.Hashes())
	}
	for i := 0; i < 500; i++ {
		if !b.Contains(fmt.Sprintf("rt-%d", i)) {
			t.Fatalf("round-trip lost rt-%d", i)
		}
	}
}

func TestFilterUnmarshalRejectsGarbage(t *testing.T) {
	var f Filter
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("XXXX\x01aaaaaaaa"), // bad magic
		append([]byte("SKBF\x09"), make([]byte, 8)...),  // bad version
		append([]byte("SKBF\x01"), make([]byte, 8)...),  // k=0, m=0
		append([]byte("SKBF\x01"), make([]byte, 20)...), // length mismatch
	}
	for i, data := range cases {
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted with m=%d k=%d", i, f.Bits(), f.Hashes())
		}
	}
}

// TestFilterUnmarshalRefusesUnusableParams: the decoder reads bytes it did
// not write, so it refuses what NewFilter would clamp. Each of these once
// decoded: m = 0 then died on "% m" in the first Contains, k = 2³²−1 spun
// four billion probes per lookup, and m = 2³²−1 wrapped the word count to
// zero and indexed past an empty array.
func TestFilterUnmarshalRefusesUnusableParams(t *testing.T) {
	encode := func(k, m uint32, words int) []byte {
		out := append([]byte("SKBF\x01"), make([]byte, 8+8*words)...)
		binary.BigEndian.PutUint32(out[5:9], k)
		binary.BigEndian.PutUint32(out[9:13], m)
		return out
	}
	for name, data := range map[string][]byte{
		"m=0":      encode(4, 0, 0),
		"m=63":     encode(4, 63, 1),
		"m=2^32-1": encode(4, math.MaxUint32, 0),
		"k=0":      encode(0, 64, 1),
		"k=33":     encode(33, 64, 1),
		"k=2^32-1": encode(math.MaxUint32, 64, 1),
	} {
		var f Filter
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded (m=%d k=%d)", name, f.Bits(), f.Hashes())
			continue
		}
	}
	// The smallest and the most probing filter the decoder does take.
	for _, data := range [][]byte{encode(1, 64, 1), encode(32, 128, 2)} {
		var f Filter
		if err := f.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if f.Contains("x") {
			t.Fatal("an empty filter contains x")
		}
	}
}

func TestFilterMarshalSizeMatchesSizeBytes(t *testing.T) {
	f := NewFilter(4096, 5)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 13+f.SizeBytes() {
		t.Fatalf("marshal size %d != header+payload %d", len(data), 13+f.SizeBytes())
	}
}

func TestHashKeyH2Odd(t *testing.T) {
	// h2 must be odd for full-cycle probing.
	for _, k := range []string{"", "a", "abc", "longer-key-with-more-entropy"} {
		_, h2 := hashKey(k)
		if h2%2 == 0 {
			t.Fatalf("h2 even for %q", k)
		}
	}
}

func TestFilterPropertyAddImpliesContains(t *testing.T) {
	// Property: a filter never forgets a key it was given, across random
	// key sets and filter sizes.
	f := func(keys []string, mSeed uint16, kSeed uint8) bool {
		fl := NewFilter(uint32(mSeed)+64, uint32(kSeed%8)+1)
		for _, k := range keys {
			fl.Add(k)
		}
		for _, k := range keys {
			if !fl.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterPropertyMarshalPreservesMembership(t *testing.T) {
	f := func(keys []string) bool {
		fl := NewFilter(2048, 5)
		for _, k := range keys {
			fl.Add(k)
		}
		data, err := fl.MarshalBinary()
		if err != nil {
			return false
		}
		var fl2 Filter
		if err := fl2.UnmarshalBinary(data); err != nil {
			return false
		}
		for _, k := range keys {
			if !fl2.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f := NewFilterForCapacity(uint64(b.N)+1, 0.01)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(keys[i%len(keys)])
	}
}

func BenchmarkFilterContains(b *testing.B) {
	f := NewFilterForCapacity(100000, 0.01)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
		f.Add(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(keys[i%len(keys)])
	}
}
