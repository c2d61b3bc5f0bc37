package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/wal/waltest"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

// itemRecord is the 64-byte record the test owner journals for item n:
// three of them fill a 256-byte segment.
func itemRecord(n int) []byte {
	rec := make([]byte, 64)
	binary.BigEndian.PutUint32(rec, uint32(n))
	return rec
}

// setOwner is the smallest owner of a snapshotted log: its state is a set
// of item numbers, one record per item, a snapshot is the sorted set.
type setOwner struct {
	s         *Snapshotted
	items     map[int]bool
	delivered []uint64 // LSNs replay received, in order
}

func openSet(t testing.TB, dir string, inj *faults.Injector) (*setOwner, Recovery) {
	t.Helper()
	o := &setOwner{items: map[int]bool{}}
	restore := func(p []byte) error {
		for ; len(p) >= 4; p = p[4:] {
			o.items[int(binary.BigEndian.Uint32(p))] = true
		}
		return nil
	}
	replay := func(lsn uint64, rec []byte) error {
		if len(rec) != 64 {
			return errors.New("not an item record")
		}
		o.items[int(binary.BigEndian.Uint32(rec))] = true
		o.delivered = append(o.delivered, lsn)
		return nil
	}
	var rec Recovery
	var err error
	o.s, rec, err = OpenSnapshotted(Options{Dir: dir, SegmentMaxBytes: 256, Faults: inj}, testMagic, restore, replay)
	if err != nil {
		t.Fatalf("OpenSnapshotted: %v", err)
	}
	return o, rec
}

func (o *setOwner) Put(n int) {
	if _, err := o.s.Append(itemRecord(n)); err == nil {
		o.items[n] = true
	}
}

func (o *setOwner) Checkpoint() error {
	_, err := o.s.Checkpoint(func() []byte {
		var ns []int
		for n := range o.items {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		var p []byte
		for _, n := range ns {
			p = binary.BigEndian.AppendUint32(p, uint32(n))
		}
		return p
	})
	return err
}

func (o *setOwner) Close() error { return o.s.Close() }

// TestSnapshottedRecoveryMatrix runs every row of waltest.Scenarios
// against the primitive itself: what the recovery reports, which records
// it delivers, and that what is appended afterwards is there after the
// next recovery.
func TestSnapshottedRecoveryMatrix(t *testing.T) {
	for _, sc := range waltest.Scenarios {
		t.Run(sc.Row, func(t *testing.T) {
			dir := t.TempDir()
			sc.Build(t, dir, func(inj *faults.Injector) waltest.Owner {
				o, _ := openSet(t, dir, inj)
				return o
			})
			if sc.KillCheckpoint {
				if tmps, snaps := waltest.Files(t, dir, "*.tmp"), waltest.Files(t, dir, "*.snap"); len(tmps) != 1 || len(snaps) != 0 {
					t.Fatalf("after the kill: temp files %v, snapshots %v; want one torn temp only", tmps, snaps)
				}
			}
			segs := waltest.Files(t, dir, "wal-*.seg")

			o, rec := openSet(t, dir, nil)
			// One record per item, so checkpoint k covers the items of the
			// first k steps and as many LSNs.
			want := Recovery{Corrupt: sc.Corrupt, Reseeded: sc.Reseeded}
			for _, step := range sc.Script[:sc.Checkpoint] {
				want.SnapshotLSN += uint64(step)
			}
			got := rec
			got.Replayed, got.TruncatedBytes = 0, 0
			if got != want || (rec.TruncatedBytes > 0) != sc.Truncated {
				t.Fatalf("recovery = %+v, want %+v, truncated %v", rec, want, sc.Truncated)
			}
			// Delivered: the records above the snapshot, in order, none
			// skipped — and after damage, none from behind it.
			if rec.Replayed != uint64(len(o.delivered)) {
				t.Fatalf("Replayed = %d, delivered %v", rec.Replayed, o.delivered)
			}
			for i, lsn := range o.delivered {
				if lsn != rec.SnapshotLSN+1+uint64(i) {
					t.Fatalf("delivered %v above snapshot %d: not a gapless run", o.delivered, rec.SnapshotLSN)
				}
			}
			highest := rec.SnapshotLSN + rec.Replayed
			switch {
			case sc.Corrupt:
				// The damage sits in the second-to-last segment.
				if before, behind := waltest.LSN(t, segs[len(segs)-2]), waltest.LSN(t, segs[len(segs)-1]); highest < before-1 || highest >= behind {
					t.Fatalf("delivered up to %d; damaged segment starts at %d, the next at %d", highest, before, behind)
				}
			case sc.Reseeded:
				if rec.Replayed != 0 {
					t.Fatalf("delivered %v from a log that ends inside the snapshot", o.delivered)
				}
			default:
				if lost := uint64(sc.Items()) - highest; lost > uint64(sc.Lost) {
					t.Fatalf("recovered through LSN %d of %d, want at most %d lost", highest, sc.Items(), sc.Lost)
				}
			}
			for n := 0; n < sc.Items()-sc.Lost; n++ {
				if !o.items[n] {
					t.Fatalf("item %d missing after recovery (%+v)", n, rec)
				}
			}
			if tmps := waltest.Files(t, dir, "*.tmp"); len(tmps) != 0 {
				t.Fatalf("abandoned temp files survive recovery: %v", tmps)
			}
			if rec.Reseeded {
				for _, snap := range waltest.Files(t, dir, "snap-*.snap") {
					if waltest.LSN(t, snap) > rec.SnapshotLSN {
						t.Fatalf("%s outranks the restored snapshot (LSN %d) after a reseed", filepath.Base(snap), rec.SnapshotLSN)
					}
				}
			}

			// The invariant: whatever was found, LSNs go on above every LSN
			// the recovery saw, so this record is replayed next time.
			const post = 1000
			lsn, err := o.s.Append(itemRecord(post))
			if err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if lsn <= highest {
				t.Fatalf("append after recovery got LSN %d, at or below %d already seen", lsn, highest)
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			o2, rec2 := openSet(t, dir, nil)
			defer o2.Close()
			if !o2.items[post] {
				t.Fatalf("record appended after recovery (LSN %d) not replayed by the next: %+v", lsn, rec2)
			}
			if rec2.Corrupt || rec2.Reseeded || rec2.TruncatedBytes != 0 {
				t.Fatalf("recovery of a cleanly closed directory: %+v", rec2)
			}
			// (After corruption the delivered prefix was wiped with the log:
			// keeping it takes a checkpoint, which this owner does not make.)
			for n := range o.items {
				if !o2.items[n] && !sc.Corrupt {
					t.Fatalf("item %d recovered once, gone the second time", n)
				}
			}
		})
	}
}

// TestCheckpointKillKillsTheLog: a SnapshotWrite kill is a process death,
// so nothing is appended after it.
func TestCheckpointKillKillsTheLog(t *testing.T) {
	inj := faults.New(clock.System, 1, faults.Rule{Component: faults.SnapshotWrite, Kind: faults.Crash, Probability: 1})
	o, _ := openSet(t, t.TempDir(), inj)
	defer o.Close()
	o.Put(1)
	if err := o.Checkpoint(); !errors.Is(err, faults.ErrCrash) || !errors.Is(err, ErrCrashed) {
		t.Fatalf("Checkpoint = %v, want the injected crash", err)
	}
	if !o.s.Crashed() {
		t.Fatal("log alive after a checkpoint kill")
	}
	if _, err := o.s.Append(itemRecord(2)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Append after the kill = %v, want ErrCrashed", err)
	}
	if err := o.Checkpoint(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Checkpoint after the kill = %v, want ErrCrashed", err)
	}
}

// TestCheckpointHoldsNoAppendLock: export may wait on an appender (the
// sketch's journal hooks run under the mutex its export takes), so an
// Append made from inside export must go through — and, issued after the
// covered LSN was read, be replayed on top of the snapshot.
func TestCheckpointHoldsNoAppendLock(t *testing.T) {
	dir := t.TempDir()
	o, _ := openSet(t, dir, nil)
	o.Put(1)
	size, err := o.s.Checkpoint(func() []byte {
		o.Put(2)
		return binary.BigEndian.AppendUint32(nil, 1)
	})
	if err != nil || size == 0 {
		t.Fatalf("Checkpoint = %d, %v", size, err)
	}
	if got := o.s.SnapshotLSN(); got != 1 {
		t.Fatalf("SnapshotLSN = %d, want 1: the LSN is read before export runs", got)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	o2, rec := openSet(t, dir, nil)
	defer o2.Close()
	if rec.SnapshotLSN != 1 || rec.Replayed != 1 || !o2.items[2] {
		t.Fatalf("recovery = %+v, items %v; want item 2 replayed above snapshot 1", rec, o2.items)
	}
}

// TestCheckpointsCoalesce: concurrent checkpoints never share a temp
// file; the losers return at once and what is on disk reads back.
func TestCheckpointsCoalesce(t *testing.T) {
	dir := t.TempDir()
	o, _ := openSet(t, dir, nil)
	for n := 0; n < 20; n++ {
		o.Put(n)
	}
	payload := bytes.Repeat([]byte{0, 0, 0, 7}, 1<<16)
	var wg sync.WaitGroup
	var wrote [8]int
	for i := range wrote {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if wrote[i], err = o.s.Checkpoint(func() []byte { return payload }); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		}()
	}
	wg.Wait()
	ran := 0
	for _, size := range wrote {
		if size > 0 {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no checkpoint ran")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	o2, rec := openSet(t, dir, nil)
	defer o2.Close()
	if rec.SnapshotLSN != 20 || !o2.items[7] {
		t.Fatalf("recovery = %+v: the snapshot did not read back", rec)
	}
}

// TestRestoreErrorFailsOpen: a snapshot that passes its CRC and still
// does not decode is not disk damage; the owner's error comes back.
func TestRestoreErrorFailsOpen(t *testing.T) {
	dir := t.TempDir()
	o, _ := openSet(t, dir, nil)
	o.Put(1)
	if err := o.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	o.Close()
	refuse := errors.New("refused")
	_, _, err := OpenSnapshotted(Options{Dir: dir}, testMagic,
		func([]byte) error { return refuse },
		func(uint64, []byte) error { return nil })
	if !errors.Is(err, refuse) {
		t.Fatalf("OpenSnapshotted = %v, want the restore error", err)
	}
	// Another owner's file is passed over, not handed to restore, and
	// reported.
	s, rec, err := OpenSnapshotted(Options{Dir: dir}, [4]byte{'O', 'T', 'H', 'R'},
		func([]byte) error { return refuse },
		func(uint64, []byte) error { return nil })
	if err != nil || rec.SnapshotLSN != 0 || rec.Replayed != 1 || !rec.Foreign {
		t.Fatalf("foreign magic: %+v, %v", rec, err)
	}
	s.Close()
	s, rec, err = OpenSnapshotted(Options{Dir: dir}, testMagic,
		func([]byte) error { return nil },
		func(uint64, []byte) error { return nil })
	if err != nil || rec.SnapshotLSN == 0 || rec.Foreign {
		t.Fatalf("own magic: %+v, %v", rec, err)
	}
	s.Close()
}

// TestReplayErrorIsCorruption: a record replay refuses ends the trusted
// history there, like a damaged frame.
func TestReplayErrorIsCorruption(t *testing.T) {
	dir := t.TempDir()
	o, _ := openSet(t, dir, nil)
	o.Put(1)
	o.Put(2)
	if _, err := o.s.Append([]byte("not an item")); err != nil {
		t.Fatal(err)
	}
	o.Put(3)
	o.Close()
	o2, rec := openSet(t, dir, nil)
	defer o2.Close()
	if want := (Recovery{Replayed: 2, Corrupt: true, Reseeded: true}); rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	if o2.items[3] {
		t.Fatal("record behind the refused one was delivered")
	}
	if lsn, err := o2.s.Append(itemRecord(4)); err != nil || lsn != 5 {
		t.Fatalf("append after reseed = %d, %v; want LSN 5, above all four seen", lsn, err)
	}
}
