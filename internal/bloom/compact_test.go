package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// halveTo folds f down to exactly m bits, whatever its fill: the identity
// Compact rests on, without Compact's rule for where to stop.
func halveTo(f *Filter, m uint32) *Filter {
	out := f.Clone()
	for out.m > m {
		half := len(out.bits) / 2
		for i := 0; i < half; i++ {
			out.bits[i] |= out.bits[i+half]
		}
		out.bits = out.bits[:half]
		out.m /= 2
	}
	return out
}

// addAll inserts every key.
func addAll(f *Filter, keys []string) {
	for _, k := range keys {
		f.Add(k)
	}
}

func marshal(t *testing.T, f *Filter) []byte {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHalvedEqualsBuiltSmaller: for m = 64·2^j, OR-ing the upper half of
// the words onto the lower half is, byte for byte, the filter the same
// keys build at m/2 — for random key sets and every j down to 64 bits.
func TestHalvedEqualsBuiltSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		const top = 64 << 10
		k := uint32(1 + rng.Intn(8))
		keys := make([]string, rng.Intn(600))
		for i := range keys {
			keys[i] = fmt.Sprintf("/p/%d/%d", round, rng.Int63())
		}
		full := NewFilter(top, k)
		addAll(full, keys)
		for m := uint32(top); m >= 64; m /= 2 {
			direct := NewFilter(m, k)
			addAll(direct, keys)
			if got, want := marshal(t, halveTo(full, m)), marshal(t, direct); !bytes.Equal(got, want) {
				t.Fatalf("round %d (k=%d, %d keys): %d bits halved to %d differ from a direct build", round, k, len(keys), top, m)
			}
		}
	}
}

// TestCompactStopsAtHalfFill: Compact returns a rung of the halving ladder
// — equal to a direct build at that size — whose fill is at most ½ and
// whose next rung down would pass ½; it never loses a key, and leaves the
// filter it was given alone.
func TestCompactStopsAtHalfFill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 100, 1490, 5000, 10000, 40000} {
		const top, k = 64 << 10, 4
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("/k/%d", rng.Int63())
		}
		full := NewFilter(top, k)
		addAll(full, keys)
		before := marshal(t, full)

		c := full.Compact()
		if !bytes.Equal(marshal(t, full), before) {
			t.Fatalf("%d keys: Compact changed its receiver", n)
		}
		direct := NewFilter(c.Bits(), k)
		addAll(direct, keys)
		if !bytes.Equal(marshal(t, c), marshal(t, direct)) {
			t.Fatalf("%d keys: compacted to %d bits, differs from a direct build", n, c.Bits())
		}
		for _, key := range keys {
			if !c.Contains(key) {
				t.Fatalf("%d keys: %q lost at %d bits", n, key, c.Bits())
			}
		}
		if c != full && c.FillRatio() > 0.5 {
			t.Fatalf("%d keys: compacted past ½ fill: %.3f at %d bits", n, c.FillRatio(), c.Bits())
		}
		if c.Bits() > 64 {
			if next := halveTo(c, c.Bits()/2); next.FillRatio() <= 0.5 {
				t.Fatalf("%d keys: stopped at %d bits, but %d bits would fill only %.3f", n, c.Bits(), next.Bits(), next.FillRatio())
			}
		}
		if full.FillRatio() > 0.5 && c != full {
			t.Fatalf("%d keys: a filter already past ½ (%.3f) was halved", n, full.FillRatio())
		}
		t.Logf("%5d keys: %5d bits, fill %.3f", n, c.Bits(), c.FillRatio())
	}
}

// TestCompactSaturated: the all-stale filter answers yes to everything at
// any size, so it travels as the 64-bit all-ones.
func TestCompactSaturated(t *testing.T) {
	f := NewFilter(64<<10, 4)
	f.Saturate()
	c := f.Compact()
	if c.Bits() != 64 || c.Hashes() != 4 || c.FillRatio() != 1 {
		t.Fatalf("saturated filter compacted to m=%d k=%d fill %.3f, want the 64-bit all-ones", c.Bits(), c.Hashes(), c.FillRatio())
	}
	if !c.Contains("/anything") {
		t.Fatal("the compacted all-stale filter cleared a key")
	}
	// One bit short of saturated is an ordinary over-full filter.
	f.bits[17] &^= 1
	if f.Compact() != f {
		t.Fatal("a filter with a zero bit was treated as saturated")
	}
}

// TestCompactLeavesOtherSizesAlone: only m = 64·2^j halves onto itself; a
// hand-built or foreign size is sent as it is.
func TestCompactLeavesOtherSizesAlone(t *testing.T) {
	for _, m := range []uint32{64, 100, 192, 62353, 64<<10 + 64} {
		f := NewFilter(m, 4)
		f.Add("/p")
		if f.Compact() != f {
			t.Errorf("m=%d: Compact returned a different filter", m)
		}
	}
}

func TestCompactableParams(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		p     float64
		wantM uint32
	}{
		{10000, 0.05, 64 << 10}, // the sketch default: 62 353 bits rounded up
		{1, 0.5, 64},
		{100, 0.01, 1024}, // 959 bits
		{0, -1, 64},
	} {
		m, k := CompactableParams(c.n, c.p)
		if _, wantK := OptimalParams(c.n, c.p); m != c.wantM || k != wantK {
			t.Errorf("CompactableParams(%d, %v) = (%d, %d), want (%d, %d)", c.n, c.p, m, k, c.wantM, wantK)
		}
		if opt, _ := OptimalParams(c.n, c.p); m < opt || (m > 64 && m/2 >= opt) {
			t.Errorf("CompactableParams(%d, %v): m=%d is not the next 64·2^j above %d", c.n, c.p, m, opt)
		}
	}
}
