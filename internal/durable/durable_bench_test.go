package durable

import (
	"fmt"
	"testing"
	"time"
)

// trackedHarness is a recovered store whose sketch tracks n keys (a
// cache fill and a write each) and whose estimator has seen each of them
// read and written, so a snapshot carries both states at that size.
func trackedHarness(b *testing.B, n int) (*harness, []string) {
	h := newHarness(b, b.TempDir(), nil)
	if _, err := h.store.Recover(h.sketch, h.est); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = h.store.Close() })
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/product/p%05d", i)
		h.sketch.ReportCachedRead(keys[i], h.sim.Now().Add(time.Hour))
		h.sketch.ReportWrite(keys[i])
		h.est.RecordRead(keys[i])
		h.est.RecordWrite(keys[i])
	}
	return h, keys
}

// BenchmarkDurableSnapshot is one checkpoint of a store tracking 2 048
// keys: both states exported into one buffer, written behind the frame
// header, fsynced and renamed into place.
func BenchmarkDurableSnapshot(b *testing.B) {
	h, _ := trackedHarness(b, 2048)
	if err := h.store.Snapshot(); err != nil { // sizes the next from this one
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.store.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableWrite is one tracked write on a durable sketch: the
// sketch server's ReportWrite of a key it already tracks, and the write
// record it journals.
func BenchmarkDurableWrite(b *testing.B) {
	h, keys := trackedHarness(b, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sketch.ReportWrite(keys[i%len(keys)])
	}
}
