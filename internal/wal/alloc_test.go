package wal

import (
	"testing"
	"time"
)

// Steady-state appends must not allocate: the frame marshal indexes into
// the pooled staged buffer (see marshalFrame, //speedkit:hotpath) and the
// flusher recycles batch buffers through framePool, so once the pool is
// warm the only per-append costs are a CRC pass and two copies. This test
// pins the property the wal-append bench's allocs/op column reports —
// for the log, and for the snapshotted log on top of it, whose Append
// adds nothing.
func TestAppendZeroAllocSteadyState(t *testing.T) {
	opts := Options{
		SegmentMaxBytes:   1 << 30,
		GroupCommitWindow: time.Hour,
		GroupCommitMax:    1 << 30,
	}
	opts.Dir = t.TempDir()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	t.Run("Log", func(t *testing.T) { assertAppendZeroAlloc(t, l) })

	opts.Dir = t.TempDir()
	s, _, err := OpenSnapshotted(opts, testMagic,
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	t.Run("Snapshotted", func(t *testing.T) { assertAppendZeroAlloc(t, s) })
}

func assertAppendZeroAlloc(t *testing.T, l interface{ Append([]byte) (uint64, error) }) {
	payload := make([]byte, 64)
	// Warm the pooled buffer past its growth phase.
	for i := 0; i < 64; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %.1f per run, want 0", n)
	}
}
