package wal

import (
	"os"
	"path/filepath"
	"testing"

	"speedkit/internal/wal/waltest"
)

// FuzzSnapshottedOpen damages one segment and one snapshot file of a
// directory with two snapshots (LSN 6 and 12) under sixteen records in
// 256-byte segments — a byte flipped, a tail cut off, or both, in each —
// and recovers it. Item n is record n+1, so the items recovered say
// exactly which records were believed. Whatever the damage: no panic;
// the items are those of a gapless run of records from 1, none from
// behind the damage; a record appended afterwards is there after the next
// recovery. Without damage everything comes back, and damage to a
// snapshot alone loses nothing.
func FuzzSnapshottedOpen(f *testing.F) {
	pristine := f.TempDir()
	o, _ := openSet(f, pristine, nil)
	for n := 0; n < 16; n++ {
		o.Put(n)
		if n == 5 || n == 11 {
			if err := o.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := o.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, path := range waltest.Files(f, pristine, "*") {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		files[filepath.Base(path)] = data
	}

	f.Add(byte(0), uint16(0), byte(0), uint16(0), byte(0), uint16(0), byte(0), uint16(0))
	f.Add(byte(1), uint16(100), byte(0x40), uint16(0), byte(0), uint16(0), byte(0), uint16(0))
	f.Add(byte(0), uint16(0), byte(0), uint16(0), byte(1), uint16(20), byte(1), uint16(0))
	f.Fuzz(func(t *testing.T, seg byte, segOff uint16, segFlip byte, segCut uint16, snap byte, snapOff uint16, snapFlip byte, snapCut uint16) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damage := func(pattern string, pick byte, off uint16, flip byte, cut uint16) bool {
			names := waltest.Files(t, dir, pattern)
			path := names[int(pick)%len(names)]
			data := append([]byte(nil), files[filepath.Base(path)]...)
			data[int(off)%len(data)] ^= flip
			data = data[:len(data)-int(cut)%(len(data)+1)]
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return flip != 0 || len(data) != len(files[filepath.Base(path)])
		}
		segDamaged := damage("wal-*.seg", seg, segOff, segFlip, segCut)
		snapDamaged := damage("snap-*.snap", snap, snapOff, snapFlip, snapCut)

		o, rec := openSet(t, dir, nil)
		highest := int(rec.SnapshotLSN + rec.Replayed)
		if len(o.items) != highest {
			t.Fatalf("recovery %+v believed items %v, want exactly 0..%d", rec, o.items, highest-1)
		}
		for n := 0; n < highest; n++ {
			if !o.items[n] {
				t.Fatalf("recovery %+v: item %d missing below LSN %d", rec, n, highest)
			}
		}
		if !segDamaged && (highest != 16 || rec.Corrupt || rec.Reseeded || rec.TruncatedBytes != 0) {
			t.Fatalf("log undamaged (snapshot damaged: %v), recovery %+v", snapDamaged, rec)
		}
		if !segDamaged && !snapDamaged && rec.SnapshotLSN != 12 {
			t.Fatalf("nothing damaged, recovery %+v", rec)
		}

		lsn, err := o.s.Append(itemRecord(highest))
		if err != nil || int(lsn) <= highest {
			t.Fatalf("append after recovery %+v: LSN %d, %v", rec, lsn, err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		o2, rec2 := openSet(t, dir, nil)
		defer o2.Close()
		if !o2.items[highest] || rec2.Corrupt || rec2.Reseeded || rec2.TruncatedBytes != 0 {
			t.Fatalf("second recovery %+v after %+v: appended item there = %v", rec2, rec, o2.items[highest])
		}
	})
}
