// Package waltest holds the recovery matrix of wal.Snapshotted as data:
// the ways a directory can be found at start-up, each built through
// whoever owns the directory and then damaged on disk. The primitive's
// own test and the tests of its users (internal/durable, the edge's disk
// tier) run the same rows, so what one of them survives they all do.
// Test support only; nothing outside _test files imports it.
package waltest

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"speedkit/internal/clock"
	"speedkit/internal/faults"
)

// Owner is a user of a snapshotted log, as far as building a directory
// needs one.
type Owner interface {
	// Put journals item n: one record or several, the owner's business.
	Put(n int)
	Checkpoint() error
	Close() error
}

// Scenario is one row of the matrix.
type Scenario struct {
	Row string
	// Script builds the directory: Script[i] items are put, with a
	// checkpoint between consecutive steps, then the owner is closed.
	// Items are numbered from 0 in the order they are put. Segments must
	// be small (or items large) enough that a step of nine spans three.
	Script []int
	// KillCheckpoint arms a faults.SnapshotWrite kill for the build, so
	// the script's checkpoint dies leaving a torn temp file.
	KillCheckpoint bool
	// Damage is done to the closed directory; nil leaves it as it is.
	Damage func(t testing.TB, dir string)

	// What the recovery must report (see wal.Recovery).
	Corrupt, Reseeded bool
	// Checkpoint is the script's checkpoint the recovery restores,
	// counted from 1; 0 is none.
	Checkpoint int
	// Truncated: the log scan cuts a torn tail off.
	Truncated bool
	// Lost is how many of the last items may be missing afterwards.
	Lost int
}

// Items is how many items the script puts.
func (sc Scenario) Items() int {
	n := 0
	for _, step := range sc.Script {
		n += step
	}
	return n
}

// Build runs the script against the owner open returns, then does the
// damage. open gets the injector the owner must write through (nil for
// every row but the checkpoint kill). Without a script the directory is
// left untouched: nothing has run there yet.
func (sc Scenario) Build(t testing.TB, dir string, open func(inj *faults.Injector) Owner) {
	t.Helper()
	if sc.Script == nil {
		return
	}
	var inj *faults.Injector
	if sc.KillCheckpoint {
		inj = faults.New(clock.System, 1, faults.Rule{Component: faults.SnapshotWrite, Kind: faults.Crash, Probability: 1})
	}
	o := open(inj)
	item := 0
	for i, step := range sc.Script {
		if i > 0 {
			if err := o.Checkpoint(); (err != nil) != sc.KillCheckpoint {
				t.Fatalf("checkpoint %d: err = %v, kill armed = %v", i, err, sc.KillCheckpoint)
			}
		}
		for ; step > 0; step-- {
			o.Put(item)
			item++
		}
	}
	if err := o.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if sc.Damage != nil {
		sc.Damage(t, dir)
	}
}

// Scenarios is the matrix.
var Scenarios = []Scenario{
	{Row: "fresh"},
	{Row: "snapshot only", Script: []int{4, 0}, Checkpoint: 1},
	{Row: "snapshot and tail", Script: []int{4, 2}, Checkpoint: 1},
	{
		Row: "torn tail above the snapshot", Script: []int{4, 2}, Checkpoint: 1,
		Damage:    func(t testing.TB, dir string) { chop(t, last(t, dir, "wal-*.seg"), 3) },
		Truncated: true, Lost: 1,
	},
	{
		// What power loss does: the snapshot was fsynced, the records
		// under it only group-committed.
		Row: "torn tail inside the snapshot", Script: []int{4, 0}, Checkpoint: 1,
		Damage:   cutLogInsideSnapshot,
		Reseeded: true,
	},
	{
		Row: "mid-log corruption, later segment intact", Script: []int{4, 9}, Checkpoint: 1,
		Damage:  flipSecondToLastSegment,
		Corrupt: true, Reseeded: true, Lost: 9,
	},
	{
		Row: "newest snapshot fails its CRC, the older one loads", Script: []int{3, 9, 1}, Checkpoint: 1,
		Damage: func(t testing.TB, dir string) { flipMiddle(t, last(t, dir, "snap-*.snap")) },
	},
	{
		Row: "unloadable snapshot named above the trusted one", Script: []int{3, 9, 3}, Checkpoint: 1,
		Damage: func(t testing.TB, dir string) {
			flipMiddle(t, last(t, dir, "snap-*.snap"))
			flipSecondToLastSegment(t, dir)
		},
		Corrupt: true, Reseeded: true, Lost: 12,
	},
	{
		Row: "checkpoint killed mid-write", Script: []int{4, 0}, KillCheckpoint: true,
	},
}

// Files returns dir's files matching pattern, in name (so LSN) order.
func Files(t testing.TB, dir, pattern string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// LSN reads the LSN a segment or snapshot file is named by.
func LSN(t testing.TB, path string) uint64 {
	t.Helper()
	name := filepath.Base(path)
	v, err := strconv.ParseUint(name[strings.Index(name, "-")+1:strings.Index(name, ".")], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func last(t testing.TB, dir, pattern string) string {
	t.Helper()
	names := Files(t, dir, pattern)
	if len(names) == 0 {
		t.Fatalf("no %s in %s", pattern, dir)
	}
	return names[len(names)-1]
}

func chop(t testing.TB, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err == nil {
		err = os.Truncate(path, fi.Size()-n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// cutLogInsideSnapshot ends the log one record short of what the newest
// snapshot covers, on a frame boundary. A frame is [u32 length][u32 crc]
// [u64 lsn][payload], little-endian, length counting lsn and payload.
func cutLogInsideSnapshot(t testing.TB, dir string) {
	t.Helper()
	covered := LSN(t, last(t, dir, "snap-*.snap"))
	segs := Files(t, dir, "wal-*.seg")
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		keep := 0
		for keep < len(data) && binary.LittleEndian.Uint64(data[keep+8:]) < covered {
			keep += 8 + int(binary.LittleEndian.Uint32(data[keep:]))
		}
		if keep > 0 {
			if err := os.Truncate(segs[i], int64(keep)); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := os.Remove(segs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func flipMiddle(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err == nil {
		data[len(data)/2] ^= 0xff
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func flipSecondToLastSegment(t testing.TB, dir string) {
	t.Helper()
	segs := Files(t, dir, "wal-*.seg")
	if len(segs) < 3 {
		t.Fatalf("%d segments, want the damaged one above the first and below the last", len(segs))
	}
	flipMiddle(t, segs[len(segs)-2])
}
