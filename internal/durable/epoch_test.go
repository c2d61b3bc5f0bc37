package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/wal"
)

// TestPreEpochDirectoryColdStarts: a directory written before the epoch
// joined the snapshot — the older snapshot layout under the older magic, a
// log sealed clean that names no epoch — recovers without error. Its
// snapshot is passed over, so what replays is a partial history: the
// server serves a new epoch, and a clean restart after that continues it.
func TestPreEpochDirectoryColdStarts(t *testing.T) {
	dir := t.TempDir()
	old, _, err := wal.OpenSnapshotted(wal.Options{Dir: dir}, [4]byte{'S', 'K', 'S', 'N'},
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cachedRead := func(key string) []byte {
		b := binary.BigEndian.AppendUint32([]byte{recCachedRead}, uint32(len(key)))
		b = append(b, key...)
		return binary.BigEndian.AppendUint64(b, uint64(time.Unix(3600, 0).UnixNano()))
	}
	for _, rec := range [][]byte{{recOpen}, cachedRead("/doc/snap")} {
		if _, err := old.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// The older payload: u64 watermark, then the two length-prefixed states
	// with no epoch between.
	src := cachesketch.NewServer(cachesketch.ServerConfig{Clock: clock.NewSimulated(time.Unix(0, 0))})
	src.ReportCachedRead("/doc/snap", time.Unix(3600, 0))
	state := src.AppendState(nil)
	if _, err := old.Checkpoint(func() []byte {
		b := binary.BigEndian.AppendUint64(nil, 1)
		b = binary.BigEndian.AppendUint32(b, uint32(len(state)))
		b = append(b, state...)
		return binary.BigEndian.AppendUint32(b, 0)
	}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{cachedRead("/doc/tail"), {recClean}} {
		if _, err := old.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, dir, nil)
	info := h.recover(t)
	if !info.NewEpoch || info.SnapshotLSN != 0 {
		t.Fatalf("pre-epoch directory recovered %+v, want its snapshot passed over and a new epoch", info)
	}
	drawn := h.sketch.Epoch()
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	if info := h2.recover(t); info.NewEpoch {
		t.Fatalf("clean restart after the upgrade drew a new epoch: %+v", info)
	}
	if got := h2.sketch.Epoch(); got != drawn {
		t.Fatalf("clean restart serves epoch %x, want %x", got, drawn)
	}
}

// TestPreWatermarkDirectoryRecovers: a directory written while the store
// journaled an invalidation watermark — type-3 records between the reads
// and writes, a snapshot led by the watermark under the "SKS2" magic —
// recovers without error. The type-3 records decode and are passed over,
// the reads and writes around them apply, and the snapshot is foreign: the
// server serves a new epoch and snapshots its own layout at once, so the
// next clean restart continues that epoch from that snapshot.
func TestPreWatermarkDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	old, _, err := wal.OpenSnapshotted(wal.Options{Dir: dir}, [4]byte{'S', 'K', 'S', '2'},
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const oldEpoch = 42
	// The harness's clock starts where this one does.
	sim := clock.NewSimulated(time.Time{})
	expires := sim.Now().Add(time.Hour)
	cachedRead := func(key string) []byte {
		return binary.BigEndian.AppendUint64(appendKey([]byte{recCachedRead}, key), uint64(expires.UnixNano()))
	}
	write := func(key string) []byte { return appendKey([]byte{recWrite}, key) }
	watermark := func(seq uint64) []byte { return binary.BigEndian.AppendUint64([]byte{recWatermark}, seq) }
	appendAll := func(recs ...[]byte) {
		t.Helper()
		for _, rec := range recs {
			if _, err := old.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll([]byte{recOpen}, binary.BigEndian.AppendUint64([]byte{recEpoch}, oldEpoch),
		cachedRead("/doc/a"), watermark(1), write("/doc/a"), watermark(2))
	// The older payload: u64 watermark, u64 epoch, then the two
	// length-prefixed states.
	src := cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim})
	src.ReportCachedRead("/doc/a", expires)
	src.ReportWrite("/doc/a")
	state := src.AppendState(nil)
	if _, err := old.Checkpoint(func() []byte {
		b := binary.BigEndian.AppendUint64(nil, 2)
		b = binary.BigEndian.AppendUint64(b, oldEpoch)
		b = binary.BigEndian.AppendUint32(b, uint32(len(state)))
		b = append(b, state...)
		return binary.BigEndian.AppendUint32(b, 0)
	}); err != nil {
		t.Fatal(err)
	}
	appendAll(cachedRead("/doc/b"), watermark(3), write("/doc/b"), watermark(4), []byte{recClean})
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, dir, nil)
	info := h.recover(t)
	if !info.Foreign || !info.NewEpoch || info.Mode != Replay || info.SnapshotLSN != 0 {
		t.Fatalf("pre-watermark directory recovered %+v, want its snapshot passed over as foreign, the log replayed and a new epoch", info)
	}
	for _, key := range []string{"/doc/a", "/doc/b"} {
		if !h.sketch.Contains(key) {
			t.Fatalf("%s: the read and write around the type-3 records were not applied", key)
		}
	}
	if h.sketch.Epoch() == oldEpoch {
		t.Fatal("an unclean recovery continued the old epoch")
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot on disk: %v", err)
	}
	newest, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got := [4]byte(newest[:4]); got != snapMagic {
		t.Fatalf("newest snapshot has magic %q, want %q", got[:], snapMagic[:])
	}
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	if info := h2.recover(t); info.NewEpoch || info.Foreign || info.SnapshotLSN == 0 {
		t.Fatalf("clean restart after the upgrade: %+v, want warm from the new snapshot", info)
	}
	if !h2.sketch.Contains("/doc/b") {
		t.Fatal("state lost across the clean restart")
	}
}

// TestCleanRestartContinuesTheEpoch: a log sealed clean lost nothing, so
// the restarted server continues its epoch and generation — whether the
// epoch comes back from the WAL tail or, once a snapshot pruned the log,
// from the snapshot.
func TestCleanRestartContinuesTheEpoch(t *testing.T) {
	for _, snapshotted := range []bool{false, true} {
		dir := t.TempDir()
		h := newHarness(t, dir, nil)
		h.recover(t)
		h.populate(10)
		if snapshotted {
			if err := h.store.Snapshot(); err != nil {
				t.Fatal(err)
			}
			h.populate(12)
		}
		epoch, gen := h.sketch.Epoch(), h.sketch.Generation()
		if err := h.store.Close(); err != nil {
			t.Fatal(err)
		}

		h2 := newHarness(t, dir, nil)
		if h2.sketch.Epoch() == epoch {
			t.Fatal("two servers drew the same epoch")
		}
		if info := h2.recover(t); info.NewEpoch {
			t.Fatalf("snapshotted=%v: clean restart drew a new epoch: %+v", snapshotted, info)
		}
		if got := h2.sketch.Epoch(); got != epoch {
			t.Fatalf("snapshotted=%v: clean restart serves epoch %x, want the sealed %x", snapshotted, got, epoch)
		}
		if got := h2.sketch.Generation(); got != gen {
			t.Fatalf("snapshotted=%v: generation %d, want %d", snapshotted, got, gen)
		}
	}
}

// TestUncleanRecoveryDrawsANewEpoch: a log that may have lost its tail may
// have lost exposed generations with it. No floor is padded to cover
// them: the recovered server serves a new epoch, which every holder
// installs whatever generation it held. What the log did hold still
// replays, and a clean restart after that continues the new epoch, not the
// dead one.
func TestUncleanRecoveryDrawsANewEpoch(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(10)
	dead := h.sketch.Epoch()
	genBefore := h.sketch.Snapshot().Generation
	if err := h.store.Sync(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	if info := h2.recover(t); !info.NewEpoch {
		t.Fatalf("unclean shutdown continued the epoch: %+v", info)
	}
	if !h2.sketch.Contains("/doc/003") {
		t.Fatal("a write the log held was lost across the unclean recovery")
	}
	reborn := h2.sketch.Epoch()
	if reborn == dead {
		t.Fatalf("unclean recovery kept the dead incarnation's epoch %x", dead)
	}
	sn := h2.sketch.Snapshot()
	if sn.Epoch != reborn {
		t.Fatalf("snapshot epoch %x, server's %x", sn.Epoch, reborn)
	}
	// The recovered generation is the replayed state's, not a floor padded
	// past anything the dead incarnation exposed.
	if sn.Generation > genBefore {
		t.Fatalf("generation %d after recovering from %d: a padded floor", sn.Generation, genBefore)
	}
	if err := h2.store.Close(); err != nil {
		t.Fatal(err)
	}

	h3 := newHarness(t, dir, nil)
	h3.recover(t)
	if got := h3.sketch.Epoch(); got != reborn {
		t.Fatalf("clean restart after an unclean one serves %x, want %x", got, reborn)
	}
}
