package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"speedkit/internal/faults"
)

// Snapshot file layout, beside the wal-*.seg segments and named
// snap-<16 hex lsn>.snap by the log position it covers:
//
//	[4 magic][u8 version][u32 crc32c][u64 lsn][payload]
//
// big-endian, crc over lsn+payload. The magic is the owner's (a sketch
// snapshot is not an edge snapshot); the rest is the same for every owner.
const (
	snapVersion = 1
	snapHeader  = 4 + 1 + 4
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
	tmpSuffix   = ".tmp"
	// keepSnapshots is how many snapshot files stay on disk: the newest,
	// and one to fall back to should it not read back. The log is pruned
	// behind the older, so the fallback still has its whole tail.
	keepSnapshots = 2
)

func snapName(lsn uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 16, 64)
	return v, err == nil
}

// Recovery reports what OpenSnapshotted found and did.
type Recovery struct {
	// SnapshotLSN is the log position the restored snapshot covers (0:
	// none was usable).
	SnapshotLSN uint64
	// Replayed is how many records above the snapshot reached replay.
	Replayed uint64
	// TruncatedBytes is how much torn tail the log scan discarded.
	TruncatedBytes int64
	// Corrupt: the log had damage before its tail, or replay refused a
	// record. What was delivered is the intact prefix; history after it is
	// gone, and the prefix is no longer on disk either — an owner that
	// keeps it checkpoints.
	Corrupt bool
	// Reseeded: the segments were wiped and the log restarted above every
	// LSN seen on disk. True whenever Corrupt is, and also when a torn
	// tail cut the log back inside the snapshot's coverage.
	Reseeded bool
	// Foreign: a snapshot newer than the one restored (if any) carries
	// another magic or frame version — in an owner's own directory, a
	// layout of its state this build does not read — and was passed over.
	// The records above what was restored then complete no history the
	// owner can trust.
	Foreign bool
}

// Snapshotted is a Log with snapshots: state its owner rebuilds from the
// newest snapshot plus the records above it. It owns the snapshot files
// and the whole recovery; the owner supplies the bytes. Append, Sync,
// Close, Crashed and Stats are the Log's own. Safe for concurrent use.
type Snapshotted struct {
	*Log
	magic [4]byte

	// ckMu is held for a whole Checkpoint, so two never write the same
	// temp file; a concurrent caller does not wait (see Checkpoint).
	ckMu    sync.Mutex
	snapLSN atomic.Uint64
}

// OpenSnapshotted recovers the directory of opts: restore receives the
// payload of the newest snapshot that reads back (torn, foreign and
// CRC-failing files are passed over), then replay every intact record
// above it, in LSN order. Both slices are valid only during the call. An
// error from restore fails the open; one from replay makes the log corrupt
// from that record on. opts.OnRecord and opts.FirstLSN are ignored.
//
// Replay skips what the snapshot covers, so a log that reissued a covered
// LSN would have that record skipped by the next recovery. Whatever is
// found, the log returned issues LSNs above every LSN seen, by three rules:
//
//   - after mid-log corruption the segments are wiped, and with them every
//     snapshot file named above the restored one: none of those read back,
//     and by name they would outrank each snapshot written from here on;
//   - the wiped log reopens seeded above both the snapshot and the highest
//     record LSN the scan saw, not at 1;
//   - a torn tail that cuts the log back inside the snapshot's coverage
//     (a snapshot is fsynced, the records under it only group-committed)
//     is wiped and reseeded the same way.
func OpenSnapshotted(opts Options, magic [4]byte, restore func(payload []byte) error, replay func(lsn uint64, record []byte) error) (*Snapshotted, Recovery, error) {
	var rec Recovery
	if opts.Dir == "" {
		return nil, rec, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("wal: %w", err)
	}
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, rec, err
	}
	for _, lsn := range snaps {
		payload, ok, foreign := readSnapshot(opts.Dir, magic, lsn)
		rec.Foreign = rec.Foreign || foreign
		if ok {
			if err := restore(payload); err != nil {
				return nil, rec, fmt.Errorf("wal: restoring %s: %w", snapName(lsn), err)
			}
			rec.SnapshotLSN = lsn
			break
		}
	}

	var maxSeen uint64
	var replayErr error
	opts.FirstLSN = 0
	opts.OnRecord = func(lsn uint64, record []byte) {
		maxSeen = lsn
		if lsn <= rec.SnapshotLSN || replayErr != nil {
			return
		}
		if replayErr = replay(lsn, record); replayErr == nil {
			rec.Replayed++
		}
	}
	log, err := Open(opts)
	switch {
	case errors.Is(err, ErrCorrupt):
		rec.Corrupt = true
	case err != nil:
		return nil, rec, err
	default:
		rec.TruncatedBytes = log.Stats().TruncatedBytes
		rec.Corrupt = replayErr != nil
	}
	if rec.Corrupt || log.NextLSN() <= rec.SnapshotLSN {
		rec.Reseeded = true
		if log != nil {
			if err := log.Close(); err != nil {
				return nil, rec, err
			}
		}
		if err := wipe(opts.Dir, rec.SnapshotLSN); err != nil {
			return nil, rec, err
		}
		opts.FirstLSN = max(rec.SnapshotLSN, maxSeen) + 1
		if log, err = Open(opts); err != nil {
			return nil, rec, err
		}
	}
	s := &Snapshotted{Log: log, magic: magic}
	s.snapLSN.Store(rec.SnapshotLSN)
	return s, rec, nil
}

// listSnapshots returns the LSNs of the snapshot files in dir, newest
// first, and deletes the temp files a kill between create and rename
// abandoned; recovery never reads one.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		if lsn, ok := parseSnapName(e.Name()); ok {
			lsns = append(lsns, lsn)
		} else if _, ok := parseSnapName(strings.TrimSuffix(e.Name(), tmpSuffix)); ok {
			_ = os.Remove(filepath.Join(dir, e.Name())) // best-effort: debris, not data
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns, nil
}

// readSnapshot returns the payload of dir's snapshot at lsn, or false if
// the file is short, foreign (then foreign is true), fails its CRC, or
// covers another LSN than its name says.
func readSnapshot(dir string, magic [4]byte, lsn uint64) (payload []byte, ok, foreign bool) {
	blob, err := os.ReadFile(filepath.Join(dir, snapName(lsn)))
	if err != nil || len(blob) < snapHeader+lsnBytes {
		return nil, false, false
	}
	if [4]byte(blob[:4]) != magic || blob[4] != snapVersion {
		return nil, false, true
	}
	body := blob[snapHeader:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(blob[5:snapHeader]) ||
		binary.BigEndian.Uint64(body) != lsn {
		return nil, false, false
	}
	return body[lsnBytes:], true, false
}

// wipe deletes every segment file and every snapshot file named above
// trusted.
func wipe(dir string, trusted uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		_, stale := parseSegName(e.Name())
		if lsn, ok := parseSnapName(e.Name()); ok && lsn > trusted {
			stale = true
		}
		if stale {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return nil
}

// Checkpoint writes export's bytes as the snapshot covering every record
// appended so far, atomically (temp file, fsync, rename, directory
// fsync), then drops the snapshots and segments no recovery needs any
// more. The bytes are written where export left them, behind a header of
// their own, never copied into a framed blob: a checkpoint holds its state
// once. The covered LSN is read before export runs: a record appended
// while it runs lands above the snapshot and is replayed on top of it, so
// replay must tolerate records the snapshot already reflects. No lock
// Append takes is held across export, which may itself wait on appenders.
//
// It returns the size of the file written. A call that finds another
// checkpoint in flight returns 0, nil at once: that one covers it.
func (s *Snapshotted) Checkpoint(export func() []byte) (int, error) {
	if !s.ckMu.TryLock() {
		return 0, nil
	}
	defer s.ckMu.Unlock()
	if s.Crashed() {
		return 0, fmt.Errorf("wal: checkpoint: %w", ErrCrashed)
	}
	lsn := s.NextLSN() - 1
	payload := export()

	var hdr [snapHeader + lsnBytes]byte
	copy(hdr[:], s.magic[:])
	hdr[4] = snapVersion
	binary.BigEndian.PutUint64(hdr[snapHeader:], lsn)
	crc := crc32.Update(crc32.Checksum(hdr[snapHeader:], castagnoli), castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[5:snapHeader], crc)
	size := len(hdr) + len(payload)

	dir := s.opts.Dir
	final := filepath.Join(dir, snapName(lsn))
	tmp := final + tmpSuffix
	if d := s.opts.Faults.Decide(faults.SnapshotWrite); d.Kind == faults.Crash {
		// Killed mid-write: a torn temp file that is never renamed into
		// place, and a dead log.
		torn := d.TornBytes
		if torn <= 0 {
			torn = int(lsn % uint64(size))
		}
		blob := append(hdr[:], payload...)
		_ = os.WriteFile(tmp, blob[:min(torn, size-1)], 0o644) // the kill's own debris
		s.kill()
		return 0, fmt.Errorf("wal: checkpoint: %w: %w", faults.ErrCrash, ErrCrashed)
	}
	err := writeSynced(tmp, hdr[:], payload)
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return 0, fmt.Errorf("wal: checkpoint: %w", err)
	}
	syncDir(dir)
	s.snapLSN.Store(lsn)

	// The snapshot is in place; what follows only frees disk, and the
	// next checkpoint retries whatever fails here.
	snaps, err := listSnapshots(dir)
	if err != nil {
		return size, err
	}
	oldest, kept := lsn, 0
	for _, v := range snaps {
		switch {
		case v > lsn: // not read back at open; only a reseed removes it
		case kept < keepSnapshots:
			kept++
			oldest = v
		default:
			_ = os.Remove(filepath.Join(dir, snapName(v)))
		}
	}
	_, err = s.PruneBelow(oldest)
	return size, err
}

// writeSynced creates path holding header then payload, and fsyncs it
// once.
func writeSynced(path string, header, payload []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(header); err == nil {
		if _, err = f.Write(payload); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a rename in it is durable; best-effort on
// filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// SnapshotLSN returns the LSN the newest snapshot covers — restored at
// open or written since — or 0 if there is none.
func (s *Snapshotted) SnapshotLSN() uint64 { return s.snapLSN.Load() }
