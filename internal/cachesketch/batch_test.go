package cachesketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
)

// ReportWrites must leave the server in the same state as per-key
// ReportWrite calls under an unmoving clock: same sketch bytes, same
// generation movement, same tracked set, same counters. Property-tested
// over random mixes of cached/uncached/repeated keys so the add, extend,
// and uncached branches all run through the batched path.
func TestReportWritesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		seq, seqClk := newTestServer()
		bat, batClk := newTestServer()

		// Shared random scenario: some keys have live cached copies.
		nKeys := 1 + rng.Intn(60)
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("/p/%d", i)
			if rng.Intn(3) > 0 {
				ttl := time.Duration(1+rng.Intn(3600)) * time.Second
				seq.ReportCachedRead(keys[i], seqClk.Now().Add(ttl))
				bat.ReportCachedRead(keys[i], batClk.Now().Add(ttl))
			}
		}
		writes := make([]string, 1+rng.Intn(100))
		for i := range writes {
			writes[i] = keys[rng.Intn(nKeys)]
		}

		seqTracked := 0
		for _, k := range writes {
			if seq.ReportWrite(k) {
				seqTracked++
			}
		}
		batTracked := bat.ReportWrites(writes)
		if seqTracked != batTracked {
			t.Fatalf("trial %d: tracked %d sequential vs %d batched", trial, seqTracked, batTracked)
		}

		ss, bs := seq.Stats(), bat.Stats()
		if ss != bs {
			t.Fatalf("trial %d: stats diverge\nseq %+v\nbat %+v", trial, ss, bs)
		}
		if sg, bg := seq.Generation(), bat.Generation(); sg != bg {
			t.Fatalf("trial %d: generation %d vs %d", trial, sg, bg)
		}
		sb, err := seq.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := bat.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, bb) {
			t.Fatalf("trial %d: snapshot bytes diverge after batched writes", trial)
		}
	}
}

func TestReportWritesEmpty(t *testing.T) {
	s, _ := newTestServer()
	if n := s.ReportWrites(nil); n != 0 {
		t.Fatalf("ReportWrites(nil) = %d", n)
	}
	if st := s.Stats(); st != (ServerStats{}) {
		t.Fatalf("empty batch moved stats: %+v", st)
	}
}

// CheckBatch must agree with per-key Check against the same snapshot, and
// count the same stale/fresh totals.
func TestCheckBatchMatchesCheck(t *testing.T) {
	s, clk := newTestServer()
	var keys []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("/p/%d", i)
		keys = append(keys, k)
		if i%3 == 0 {
			s.ReportCachedRead(k, clk.Now().Add(time.Hour))
			s.ReportWrite(k)
		}
	}
	single := NewClient(clk, time.Hour)
	batched := NewClient(clk, time.Hour)
	sn := s.Snapshot()
	single.Install(sn)
	batched.Install(sn)

	out := make([]Decision, len(keys))
	batched.CheckBatch(keys, out)
	for i, k := range keys {
		if want := single.Check(k); out[i] != want {
			t.Fatalf("CheckBatch[%q] = %v, Check = %v", k, out[i], want)
		}
	}
	if ss, bs := single.Stats(), batched.Stats(); ss.StaleHits != bs.StaleHits || ss.FreshPasses != bs.FreshPasses {
		t.Fatalf("counters diverge: single %+v batched %+v", ss, bs)
	}
}

// Without a fresh sketch every batched verdict must be RefreshSketch —
// the conservative answer that forbids serving from cache.
func TestCheckBatchStaleSnapshot(t *testing.T) {
	clk := clock.NewSimulated(time.Time{})
	c := NewClient(clk, 30*time.Second)
	keys := []string{"/a", "/b", "/c"}
	out := make([]Decision, len(keys))
	c.CheckBatch(keys, out)
	for i, d := range out {
		if d != RefreshSketch {
			t.Fatalf("out[%d] = %v, want RefreshSketch", i, d)
		}
	}
	// Install, then age the snapshot past Δ: same conservative answer.
	s, _ := newTestServer()
	c.Install(s.Snapshot())
	clk.Advance(31 * time.Second)
	c.CheckBatch(keys, out)
	if out[0] != RefreshSketch {
		t.Fatalf("aged snapshot verdict = %v, want RefreshSketch", out[0])
	}
}

// CheckBatch is //speedkit:hotpath: steady-state batched checks must
// allocate nothing even for batches longer than bloom.BatchSize (chunking
// reslices, never copies).
func TestCheckBatchZeroAlloc(t *testing.T) {
	s, clk := newTestServer()
	keys := make([]string, 3*bloom.BatchSize+5)
	for i := range keys {
		keys[i] = fmt.Sprintf("/p/%d", i)
		if i%2 == 0 {
			s.ReportCachedRead(keys[i], clk.Now().Add(time.Hour))
			s.ReportWrite(keys[i])
		}
	}
	cl := NewClient(clk, time.Hour)
	cl.Install(s.Snapshot())
	out := make([]Decision, len(keys))
	if n := testing.AllocsPerRun(1000, func() {
		cl.CheckBatch(keys, out)
	}); n != 0 {
		t.Fatalf("CheckBatch allocates %.1f per run, want 0", n)
	}
}
