package wal

import (
	"bytes"
	"runtime"
	"testing"
)

// Steady-state appends must not allocate: the frame marshal indexes into
// the log's reused frame buffer (see marshalFrame), so
// once that buffer has grown the only per-append costs are a CRC pass, two
// copies and the write. This test pins the property the wal-append bench's
// allocs/op column reports — for the log, and for the snapshotted log on
// top of it, whose Append adds nothing.
func TestAppendZeroAllocSteadyState(t *testing.T) {
	opts := Options{SegmentMaxBytes: 1 << 30}
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
	// Warm the frame buffer past its growth phase.
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

// TestCheckpointHoldsTheExportOnce: Checkpoint writes the exported bytes
// where export left them, behind a header of its own, so a checkpoint of
// a 1 MiB state allocates far less than that state — not a framed copy of
// it. The snapshot still reads back as the export.
func TestCheckpointHoldsTheExportOnce(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenSnapshotted(Options{Dir: dir}, testMagic,
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("covered")); err != nil {
		t.Fatal(err)
	}
	export := bytes.Repeat([]byte{0xa5}, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size, err := s.Checkpoint(func() []byte { return export })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(export)) {
		t.Fatalf("Checkpoint of a %d-byte export allocated %d bytes, want less than the export", len(export), got)
	}
	if want := snapHeader + lsnBytes + len(export); size != want {
		t.Fatalf("Checkpoint wrote %d bytes, want %d", size, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var restored []byte
	s2, rec, err := OpenSnapshotted(Options{Dir: dir}, testMagic,
		func(p []byte) error { restored = bytes.Clone(p); return nil },
		func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.SnapshotLSN != 1 || !bytes.Equal(restored, export) {
		t.Fatalf("snapshot at lsn %d restored %d bytes, want lsn 1 and the %d exported", rec.SnapshotLSN, len(restored), len(export))
	}
}
