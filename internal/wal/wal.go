// Package wal implements the segmented append-only write-ahead log under
// the durability subsystem. Records are CRC32C-framed and carry a
// monotonically increasing log sequence number (LSN). An append is one
// write(2) of one frame under the log's mutex; fsyncs are deferred and
// amortized on the injected clock (one per syncEvery appends or per
// syncWindow, whichever comes first). Segments rotate at a size threshold
// and are named by their first LSN so whole-segment pruning after a
// snapshot is a file delete.
//
// Recovery discipline: Open scans every segment in LSN order, replaying
// intact records through the OnRecord callback. A torn tail — an
// incomplete or CRC-failing frame at the end of the *last* segment — is
// the expected crash signature and is truncated away; any damage before
// that point (a bad frame in a non-final segment, a broken LSN chain) is
// mid-log corruption and surfaces as ErrCorrupt, which the durable layer
// answers with a conservative cold start rather than trusting a log with
// a hole in it.
//
// The log stores only anonymous coherence records (resource paths,
// expirations, versions): it is shared-infrastructure code under the
// GDPR boundary and must never see identity-bearing types.
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
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/faults"
)

// Frame layout: [u32 length][u32 crc32c][u64 lsn][payload], all
// little-endian. length covers lsn+payload; crc covers the same bytes.
const (
	frameHeader = 8
	lsnBytes    = 8
	// maxRecord bounds a frame body; anything larger in a length field is
	// damage, not data.
	maxRecord = 1 << 24
)

// The deferred-fsync policy: an append fsyncs the active segment once
// syncEvery appends are unsynced, or once syncWindow has passed on the
// injected clock since the last fsync. syncEvery is a variable only so
// BenchmarkWALAppend can widen it and time the append path rather than
// the disk's flush latency; nothing else writes it.
var syncEvery = 64

const syncWindow = 2 * time.Millisecond

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports mid-log corruption: a damaged frame with intact
// records after it, or a broken LSN chain. A torn tail is NOT corruption —
// it is truncated silently — so ErrCorrupt means history cannot be
// trusted and the caller should fall back to a conservative cold start.
var ErrCorrupt = errors.New("wal: mid-log corruption")

// ErrCrashed reports that the log drew an injected crash (or hit an
// unrecoverable write error) and is dead: no append or sync will succeed
// until the directory is recovered by a fresh Open.
var ErrCrashed = errors.New("wal: crashed (injected)")

// Options parameterizes a Log.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentMaxBytes rotates segments at this size (default 1 MiB). A
	// frame is never split across segments, so a segment may overshoot
	// the threshold by up to one frame.
	SegmentMaxBytes int64
	// Clock drives the deferred-fsync window (default the system clock).
	Clock clock.Clock
	// FirstLSN, when non-zero, seeds the LSN of the first append into an
	// empty directory; OpenSnapshotted reopens a wiped log with it (see
	// there). Opening a directory that still holds segments whose records
	// end below a non-zero FirstLSN is an error: seeding may not punch
	// LSN-chain gaps into a live log.
	FirstLSN uint64
	// Faults optionally injects crashes, modeling a process kill: Crash
	// decisions on WALAppend tear the in-flight frame at a deterministic
	// offset; Crash decisions on WALFsync kill the log at the flush —
	// bytes already written to the OS file survive (a kill loses nothing
	// the kernel holds; only power loss does, and that hazard is modeled
	// separately by truncating segment files). Both leave the log dead
	// until recovery. Nil disables injection.
	Faults *faults.Injector
	// OnRecord receives every intact record during the Open scan, in LSN
	// order. Nil skips replay delivery (the scan still validates frames).
	OnRecord func(lsn uint64, payload []byte)
}

func (o *Options) applyDefaults() {
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 1 << 20
	}
	if o.Clock == nil {
		o.Clock = clock.System
	}
}

// Stats counts log activity since Open.
type Stats struct {
	// Appends is how many records were durably framed (torn appends from
	// injected crashes are not counted).
	Appends uint64
	// Fsyncs is how many disk flushes ran; the deferred-fsync policy
	// keeps it well below Appends under load.
	Fsyncs uint64
	// BatchWrites is how many write syscalls carried the appended frames.
	// Every append is one write, so it always equals Appends.
	BatchWrites uint64
	// Rotations counts segment rolls.
	Rotations uint64
	// Replayed is how many intact records the Open scan delivered.
	Replayed uint64
	// TruncatedBytes is how many torn-tail bytes Open discarded.
	TruncatedBytes int64
	// Segments is the current on-disk segment count.
	Segments int
}

// segment is one on-disk log file.
type segment struct {
	firstLSN uint64
	path     string
}

// Log is a segmented write-ahead log. Safe for concurrent use: each
// Append, Sync and Close runs start to finish under mu, the write and
// any fsync included. Both callers in the tree already serialize their
// appends under a mutex of their own, so holding mu across the syscalls
// costs them no concurrency.
type Log struct {
	opts Options

	mu       sync.Mutex
	segs     []segment // guarded by mu
	file     *os.File  // guarded by mu; active segment (nil until first append)
	size     int64     // guarded by mu; bytes written to the active segment
	frame    []byte    // guarded by mu; reused to marshal one frame
	pending  int       // guarded by mu; appends awaiting their deferred fsync
	lastSync time.Time // guarded by mu; when the last fsync ran
	nextLSN  uint64    // guarded by mu
	dead     bool      // guarded by mu; true after an injected crash
	stats    Stats     // guarded by mu
}

// segName renders the canonical segment filename for a first LSN.
func segName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstLSN)
}

// parseSegName extracts the first LSN from a segment filename.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(name[4:len(name)-4], 16, 64)
	return v, err == nil
}

// Open scans dir, replays intact records through opts.OnRecord, truncates
// any torn tail, and returns a log positioned to append after the last
// durable record. A directory with no segments opens as an empty log
// whose first append creates LSN 1. Mid-log corruption returns ErrCorrupt
// (wrapped); the caller decides whether to wipe and cold-start.
func Open(opts Options) (*Log, error) {
	opts.applyDefaults()
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, nextLSN: 1, lastSync: opts.Clock.Now()}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, segment{firstLSN: first, path: filepath.Join(opts.Dir, e.Name())})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].firstLSN < l.segs[j].firstLSN })

	for i, seg := range l.segs {
		// The LSN chain must also hold ACROSS segments: each non-first
		// segment starts exactly where the previous one left off. A
		// mismatch means a whole segment went missing (deleted, renamed,
		// restored from a partial backup) — mid-log corruption, not a torn
		// tail, or replay would resume "warm" with a silent gap in history.
		if i > 0 && seg.firstLSN != l.nextLSN {
			return nil, fmt.Errorf("wal: segment %s: first lsn %d where %d expected (missing segment?): %w",
				filepath.Base(seg.path), seg.firstLSN, l.nextLSN, ErrCorrupt)
		}
		last := i == len(l.segs)-1
		if err := l.scanSegment(seg, last); err != nil {
			return nil, err
		}
	}
	// The scan is over: the log must not keep the caller's closure, and
	// whatever it captured, alive for as long as it is open.
	l.opts.OnRecord = nil
	if opts.FirstLSN > l.nextLSN {
		if len(l.segs) > 0 {
			return nil, fmt.Errorf("wal: FirstLSN %d past existing records (next lsn %d)", opts.FirstLSN, l.nextLSN)
		}
		l.nextLSN = opts.FirstLSN
	}
	l.stats.Segments = len(l.segs)
	if n := len(l.segs); n > 0 {
		// Reopen the last segment for appending after its good prefix.
		f, err := os.OpenFile(l.segs[n-1].path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(l.size, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.file = f
	}
	return l, nil
}

// scanSegment validates and replays one segment. For the last segment a
// bad frame is a torn tail: the file is truncated to the last good offset.
// For any earlier segment it is mid-log corruption. The active segment's
// size is left in l.size. Runs during Open, before the log is shared; any
// later caller must hold l.mu.
func (l *Log) scanSegment(seg segment, last bool) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := int64(0)
	expect := seg.firstLSN
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		good := false
		var lsn uint64
		var payload []byte
		if len(rest) >= frameHeader {
			length := binary.LittleEndian.Uint32(rest[0:4])
			if length >= lsnBytes && length <= maxRecord && int(length) <= len(rest)-frameHeader {
				body := rest[frameHeader : frameHeader+int(length)]
				if crc32.Checksum(body, castagnoli) == binary.LittleEndian.Uint32(rest[4:8]) {
					lsn = binary.LittleEndian.Uint64(body[:lsnBytes])
					payload = body[lsnBytes:]
					good = lsn == expect
					// A frame that checksums but breaks the LSN chain is
					// damage wherever it sits.
					if !good {
						return fmt.Errorf("wal: segment %s: lsn %d where %d expected: %w",
							filepath.Base(seg.path), lsn, expect, ErrCorrupt)
					}
				}
			}
		}
		if !good {
			if !last {
				return fmt.Errorf("wal: segment %s: bad frame at offset %d: %w",
					filepath.Base(seg.path), off, ErrCorrupt)
			}
			// Torn tail: discard everything from the bad frame on.
			torn := int64(len(data)) - off
			if err := os.Truncate(seg.path, off); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			l.stats.TruncatedBytes += torn
			break
		}
		if l.opts.OnRecord != nil {
			l.opts.OnRecord(lsn, payload)
		}
		l.stats.Replayed++
		off += frameHeader + lsnBytes + int64(len(payload))
		expect = lsn + 1
		l.nextLSN = lsn + 1
	}
	if last {
		l.size = off
	}
	return nil
}

// marshalFrame encodes one [len][crc][lsn][payload] frame into dst, which
// must be exactly frameHeader+lsnBytes+len(payload) bytes. It is the
// per-append marshal step and must stay allocation-free: it only indexes
// into dst, so framing an append costs a CRC pass and two copies, never a
// heap allocation.
//
//speedkit:hotpath
func marshalFrame(dst []byte, lsn uint64, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(lsnBytes+len(payload)))
	binary.LittleEndian.PutUint64(dst[frameHeader:frameHeader+lsnBytes], lsn)
	copy(dst[frameHeader+lsnBytes:], payload)
	binary.LittleEndian.PutUint32(dst[4:8], crc32.Checksum(dst[frameHeader:], castagnoli))
}

// Append writes payload as the next record and returns its LSN. A nil
// error acknowledges that the frame reached the OS file: an acknowledged
// append survives a process kill (including every injected crash) and is
// replayed by recovery. It is not yet fsynced — the fsync is deferred up
// to syncEvery appends or syncWindow — so power loss may still drop the
// acknowledged suffix, which is exactly the window the durable layer's
// conservative cold start covers.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return 0, ErrCrashed
	}
	d := l.opts.Faults.Decide(faults.WALAppend)
	lsn := l.nextLSN
	need := frameHeader + lsnBytes + len(payload)
	if l.file == nil || (l.size > 0 && l.size+int64(need) > l.opts.SegmentMaxBytes) {
		if err := l.rotateLocked(); err != nil {
			l.dead = true
			return 0, err
		}
	}
	// The buffer grows here, outside the annotated marshal path; once it
	// holds the largest record seen, an append allocates nothing.
	if cap(l.frame) < need {
		l.frame = make([]byte, need)
	}
	frame := l.frame[:need]
	marshalFrame(frame, lsn, payload)

	if d.Kind == faults.Crash {
		// A process kill mid-write: a deterministic prefix of the frame
		// reaches the file, then the log is dead. Recovery sees at most a
		// torn tail, never a torn middle, so every acknowledged append
		// survives.
		torn := d.TornBytes
		if torn <= 0 {
			torn = int(lsn % uint64(need))
		}
		if torn > 0 {
			_, _ = l.file.Write(frame[:min(torn, need-1)])
		}
		l.dead = true
		return 0, fmt.Errorf("wal: append lsn %d: %w: %w", lsn, faults.ErrCrash, ErrCrashed)
	}
	if _, err := l.file.Write(frame); err != nil {
		// The file's tail state is unknown; refuse further use. The next
		// Open scans and truncates whatever half-frame landed.
		l.dead = true
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.nextLSN++
	l.size += int64(need)
	l.stats.Appends++
	l.stats.BatchWrites++
	l.pending++
	if now := l.opts.Clock.Now(); l.pending >= syncEvery || now.Sub(l.lastSync) >= syncWindow {
		if err := l.syncLocked(now); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// Sync fsyncs the active segment now.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return ErrCrashed
	}
	if l.file == nil {
		return nil
	}
	return l.syncLocked(l.opts.Clock.Now())
}

// syncLocked fsyncs the active segment. The caller must hold l.mu.
func (l *Log) syncLocked(now time.Time) error {
	if d := l.opts.Faults.Decide(faults.WALFsync); d.Kind == faults.Crash {
		// Kill at the flush: the process dies, but bytes already written
		// to the OS file survive a kill — acknowledged appends are NOT
		// lost (only real power loss drops them, a hazard the durable
		// tests model by truncating segment files directly). The log is
		// dead until recovery.
		l.dead = true
		return fmt.Errorf("wal: fsync: %w: %w", faults.ErrCrash, ErrCrashed)
	}
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Fsyncs++
	l.pending = 0
	l.lastSync = now
	return nil
}

// rotateLocked seals the active segment and opens the next one, named by
// the LSN the next append receives. The caller must hold l.mu.
func (l *Log) rotateLocked() error {
	if l.file != nil {
		if err := l.syncLocked(l.opts.Clock.Now()); err != nil {
			return err
		}
		if err := l.file.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.file = nil
		l.stats.Rotations++
	}
	path := filepath.Join(l.opts.Dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.file = f
	l.size = 0
	l.segs = append(l.segs, segment{firstLSN: l.nextLSN, path: path})
	l.stats.Segments = len(l.segs)
	return nil
}

// PruneBelow deletes every sealed segment whose records all have LSNs
// strictly below lsn — the post-snapshot cleanup that keeps the log from
// growing without bound. The active segment is never pruned.
func (l *Log) PruneBelow(lsn uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[1].firstLSN <= lsn {
		if rmErr := os.Remove(l.segs[0].path); rmErr != nil {
			return removed, fmt.Errorf("wal: prune: %w", rmErr)
		}
		l.segs = l.segs[1:]
		removed++
	}
	l.stats.Segments = len(l.segs)
	return removed, nil
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// kill marks the log dead the way an injected crash does, for a kill
// injected outside the log's own writes (a checkpoint). Appends already
// written stay acknowledged.
func (l *Log) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead = true
}

// Crashed reports whether an injected crash killed the log.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// Stats returns a copy of the activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close fsyncs and closes the active segment. A crashed log closes
// without flushing — the torn state on disk is the point.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	f := l.file
	l.file = nil
	if l.dead || l.pending == 0 {
		return f.Close()
	}
	// No fault consult: the process is exiting deliberately.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Fsyncs++
	l.pending = 0
	return f.Close()
}
