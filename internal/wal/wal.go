// Package wal implements the segmented append-only write-ahead log under
// the durability subsystem. Records are CRC32C-framed and carry a
// monotonically increasing log sequence number (LSN); concurrent appends
// group-commit: callers stage frames into a shared buffer, one flusher
// writes the whole batch with a single write syscall, and fsyncs are
// amortized over the batch on the injected clock so a burst of appends
// shares one disk flush; segments rotate at a size threshold and are named
// by their first LSN so whole-segment pruning after a snapshot is a file
// delete.
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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// collectRounds bounds the flusher's batch-collection pause in scheduler
// yields, applied only when appenders are arriving concurrently (see
// flushLocked). One runtime.Gosched runs every runnable peer to its
// blocking point — on a single-P box that collects the whole cohort in a
// single round — so the loop exits as soon as a yield stops growing the
// batch; the cap only guards against pathological arrival patterns.
// ackYields similarly bounds a staged appender's yield-spin for its batch
// write before it falls back to parking on the commit condition: every
// iteration yields the processor (never a hot spin, which would starve
// the flusher the appender is waiting on), and the fallback park keeps
// long stalls — an fsync, a rotation — off the scheduler entirely.
const (
	collectRounds = 8
	ackYields     = 2
)

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
	// group-committed batch is never split across segments, so a segment
	// may overshoot the threshold by up to one batch.
	SegmentMaxBytes int64
	// GroupCommitWindow is the maximum time acknowledged appends may wait
	// for their shared fsync (default 2 ms on the injected clock).
	GroupCommitWindow time.Duration
	// GroupCommitMax forces an fsync after this many unsynced appends
	// regardless of the window (default 64).
	GroupCommitMax int
	// Dsync opens segment files with O_DSYNC, making every batch write
	// synchronously durable: an acknowledged append then survives power
	// loss, not just a process kill, and the deferred group-fsync policy
	// (GroupCommitWindow/GroupCommitMax) is moot — each group-committed
	// write IS the group's flush. This is the classic group-commit
	// configuration: the per-write sync cost is flat in batch size, so
	// batching N concurrent appends into one write divides the dominant
	// cost by N.
	Dsync bool
	// Clock drives the group-commit window (default the system clock).
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
	if o.GroupCommitWindow <= 0 {
		o.GroupCommitWindow = 2 * time.Millisecond
	}
	if o.GroupCommitMax <= 0 {
		o.GroupCommitMax = 64
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
	// Fsyncs is how many disk flushes ran; group commit keeps it well
	// below Appends under load.
	Fsyncs uint64
	// BatchWrites is how many write syscalls carried the appended frames;
	// group-commit batching keeps it at or below Appends (equal when
	// appends are serialized, far below under concurrency).
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

// framePool recycles staged-batch buffers so the steady-state append path
// allocates nothing: the flusher swaps the full buffer for a pooled spare
// before releasing the lock for the write syscall, and returns the written
// buffer to the pool afterwards.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// Log is a segmented write-ahead log. Safe for concurrent use.
//
// Concurrency model: appenders marshal their frame into the shared staged
// buffer under mu. The first appender to find no flusher active becomes
// the flusher: it repeatedly swaps the staged buffer for an empty pooled
// one, releases mu for the single write syscall covering the whole batch,
// then reacquires mu, acknowledges the batch (written), and applies the
// group-commit fsync policy. Everyone else waits on commit until their LSN
// is written. Acknowledgement therefore means "in the OS file" — it
// survives a process kill; surviving power loss still requires the group
// fsync, which is the window the durable layer's conservative cold start
// covers.
type Log struct {
	opts Options

	// arrivals counts appenders currently inside Append — a heuristic the
	// flusher reads without mu to decide whether to hold a batch open for
	// concurrent arrivals. It overcounts (acknowledged appenders still on
	// their way out are included), so the flusher pairs it with a
	// growth-stall check rather than trusting the number.
	arrivals atomic.Int64
	// writtenA and deadA mirror written and dead for the waiters' lock-free
	// acknowledgement fast path: a staged appender yield-spins on them
	// briefly before parking on the commit condition, so in steady state a
	// batch commit costs no per-waiter mutex handoff or futex wake at all.
	writtenA atomic.Uint64
	deadA    atomic.Bool

	mu       sync.Mutex
	commit   sync.Cond // signals written/dead/flusher-retired; tied to mu
	segs     []segment // guarded by mu
	file     *os.File  // guarded by mu; active segment (nil until first append)
	size     int64     // guarded by mu; bytes written to the active segment
	synced   int64     // guarded by mu; bytes of the active segment known flushed
	buf      *[]byte   // guarded by mu; staged, unwritten frames (pooled)
	bufFirst uint64    // guarded by mu; LSN of the first staged frame
	bufCount int       // guarded by mu; staged frame count
	flushing bool      // guarded by mu; an exclusive writer owns the file
	written  uint64    // guarded by mu; highest LSN written to the OS file
	pending  int       // guarded by mu; appends awaiting their group fsync
	lastSync time.Time // guarded by mu; when the last group fsync ran
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
	l.commit.L = &l.mu
	l.buf = framePool.Get().(*[]byte)
	*l.buf = (*l.buf)[:0]

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
	l.written = l.nextLSN - 1
	l.stats.Segments = len(l.segs)
	if n := len(l.segs); n > 0 {
		// Reopen the last segment for appending after its good prefix.
		f, err := os.OpenFile(l.segs[n-1].path, os.O_RDWR|l.dsyncFlag(), 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(l.size, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.file = f
		l.synced = l.size
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
// per-append marshal step of the group-commit path and must stay
// allocation-free: it only indexes into dst, so staging an append costs a
// CRC pass and two copies, never a heap allocation.
//
//speedkit:hotpath
func marshalFrame(dst []byte, lsn uint64, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(lsnBytes+len(payload)))
	binary.LittleEndian.PutUint64(dst[frameHeader:frameHeader+lsnBytes], lsn)
	copy(dst[frameHeader+lsnBytes:], payload)
	binary.LittleEndian.PutUint32(dst[4:8], crc32.Checksum(dst[frameHeader:], castagnoli))
}

// stageLocked marshals the frame for (lsn, payload) onto the staged batch
// buffer. The caller must hold l.mu. Growth happens here, outside the
// annotated marshal path; steady state reuses pooled capacity and
// allocates nothing.
func (l *Log) stageLocked(lsn uint64, payload []byte) {
	need := frameHeader + lsnBytes + len(payload)
	b := *l.buf
	off := len(b)
	if cap(b) < off+need {
		ncap := 2 * cap(b)
		if ncap < off+need {
			ncap = off + need
		}
		if ncap < 4096 {
			ncap = 4096
		}
		nb := make([]byte, off, ncap)
		copy(nb, b)
		b = nb
	}
	b = b[:off+need]
	marshalFrame(b[off:], lsn, payload)
	*l.buf = b
	if l.bufCount == 0 {
		l.bufFirst = lsn
	}
	l.bufCount++
}

// Append frames payload as the next record, group-committing the write
// with any concurrent appenders, and returns the record's LSN. A nil
// error acknowledges that the frame reached the OS file: an acknowledged
// append survives a process kill (including every injected crash) and is
// replayed by recovery. It is NOT yet fsynced — group commit defers the
// flush up to GroupCommitWindow/GroupCommitMax — so true power loss may
// still drop the acknowledged suffix, which is exactly the window the
// durable layer's conservative cold start covers.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.arrivals.Add(1)
	defer l.arrivals.Add(-1)
	lsn, wait, err := l.stageAppend(payload)
	if err != nil {
		return 0, err
	}
	if !wait {
		return lsn, nil
	}
	return l.awaitAppend(lsn)
}

// stageAppend stages the frame under the lock. If another appender is
// flushing, it returns wait=true and the caller must await the
// acknowledgement; otherwise this appender became the flusher and the
// append is already acknowledged (or the log died trying).
func (l *Log) stageAppend(payload []byte) (lsn uint64, wait bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return 0, false, ErrCrashed
	}

	if d := l.opts.Faults.Decide(faults.WALAppend); d.Kind == faults.Crash {
		return 0, false, l.crashAppendLocked(payload, d)
	}

	lsn = l.nextLSN
	l.nextLSN++
	l.stageLocked(lsn, payload)

	if l.flushing {
		// A flusher is active; it will pick up our staged frame.
		return lsn, true, nil
	}

	// No flusher: become it and drain the staged batch (ours included).
	if err := l.flushLocked(); err != nil {
		return 0, false, err
	}
	if l.written < lsn {
		return 0, false, fmt.Errorf("wal: append lsn %d: %w", lsn, ErrCrashed)
	}
	return lsn, false, nil
}

// awaitAppend blocks until the staged frame at lsn is acknowledged by the
// active flusher. It yield-spins on the acknowledgement mirror first —
// each Gosched hands the processor to the flusher (or a staging peer), so
// the common case resolves in a couple of yields with no mutex
// reacquisition and no futex wake — then falls back to parking on the
// commit condition for long stalls (a group fsync, a segment rotation).
func (l *Log) awaitAppend(lsn uint64) (uint64, error) {
	for r := 0; r < ackYields; r++ {
		if l.writtenA.Load() >= lsn {
			return lsn, nil
		}
		if l.deadA.Load() {
			break
		}
		runtime.Gosched()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.dead && l.written < lsn {
		l.commit.Wait()
	}
	if l.written < lsn {
		return 0, fmt.Errorf("wal: append lsn %d: %w", lsn, ErrCrashed)
	}
	return lsn, nil
}

// crashAppendLocked models a process kill mid-append: staged complete
// frames from concurrent appenders are flushed intact (the kernel had
// them), then a deterministic prefix of the doomed frame reaches the file,
// then the log goes dead. Recovery sees at most a torn tail — never a torn
// *middle* — so every previously acknowledged append survives. The caller
// must hold l.mu throughout. Always returns a non-nil error.
func (l *Log) crashAppendLocked(payload []byte, d faults.Decision) error {
	// Wait out any active flusher so the file is exclusively ours; its
	// batch writes complete before the kill lands.
	for l.flushing && !l.dead {
		l.commit.Wait()
	}
	if l.dead {
		return ErrCrashed
	}
	l.flushing = true
	lsn := l.nextLSN

	frame := make([]byte, frameHeader+lsnBytes+len(payload))
	marshalFrame(frame, lsn, payload)

	need := int64(len(*l.buf) + len(frame))
	if l.file == nil || (l.size > 0 && l.size+need > l.opts.SegmentMaxBytes) {
		if err := l.rotateLocked(); err != nil {
			l.flushing = false
			l.dead = true
			l.deadA.Store(true)
			l.commit.Broadcast()
			return err
		}
	}
	if n := l.bufCount; n > 0 {
		batch := *l.buf
		if _, err := l.file.Write(batch); err == nil {
			l.size += int64(len(batch))
			l.written = l.bufFirst + uint64(n) - 1
			l.writtenA.Store(l.written)
			l.pending += n
			l.stats.Appends += uint64(n)
			l.stats.BatchWrites++
		}
		*l.buf = batch[:0]
		l.bufCount = 0
	}
	torn := d.TornBytes
	if torn <= 0 {
		torn = int(lsn % uint64(len(frame)))
	}
	if torn >= len(frame) {
		torn = len(frame) - 1
	}
	if torn > 0 {
		_, _ = l.file.Write(frame[:torn])
	}
	l.flushing = false
	l.dead = true
	l.deadA.Store(true)
	l.commit.Broadcast()
	return fmt.Errorf("wal: append lsn %d: %w: %w", lsn, faults.ErrCrash, ErrCrashed)
}

// flushLocked drains the staged batch as the exclusive flusher: swap the
// staged buffer for a pooled spare, write the whole batch with one
// syscall (l.mu released during the write), acknowledge it, and apply the
// group-commit fsync policy. Loops until no staged frames remain, so
// appends staged while the write syscall ran are picked up immediately.
// The caller must hold l.mu with l.flushing false.
func (l *Log) flushLocked() error {
	l.flushing = true
	defer func() {
		l.flushing = false
		l.commit.Broadcast()
	}()
	for l.bufCount > 0 {
		if l.dead {
			return ErrCrashed
		}
		// Collection pause. A short write syscall never yields the
		// processor, so a flusher that seals its batch immediately starves
		// concurrent appenders of the chance to stage and settles into one
		// frame per syscall — concurrency buys nothing. When the arrival
		// counter shows other appenders in flight, yield instead: each
		// runtime.Gosched runs every runnable peer up to its blocking point
		// (staged and parked on commit), so the batch grows by the whole
		// in-flight cohort per round and the loop stops the moment a yield
		// adds nothing. A strictly serialized caller (arrivals == 1) never
		// pauses and keeps the old one-write-per-append behavior (and its
		// determinism) exactly.
		for r := 0; r < collectRounds && l.bufCount < l.opts.GroupCommitMax; r++ {
			if l.arrivals.Load() <= 1 {
				break
			}
			before := l.bufCount
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if l.dead {
				return ErrCrashed
			}
			if l.bufCount == before {
				break
			}
		}
		if l.file == nil || (l.size > 0 && l.size+int64(len(*l.buf)) > l.opts.SegmentMaxBytes) {
			// Rotation fsyncs with l.mu briefly released, so appenders may
			// stage more frames while it runs; the batch is snapshotted
			// only afterwards so nothing staged in that window is dropped.
			if err := l.rotateLocked(); err != nil {
				l.dead = true
				l.deadA.Store(true)
				return err
			}
		}
		count := l.bufCount
		last := l.bufFirst + uint64(count) - 1
		full := l.buf
		batch := *full
		spare := framePool.Get().(*[]byte)
		*spare = (*spare)[:0]
		l.buf = spare
		l.bufCount = 0
		file := l.file
		l.mu.Unlock()
		_, werr := file.Write(batch)
		l.mu.Lock()
		*full = batch[:0]
		framePool.Put(full)
		if werr != nil {
			// The file's tail state is unknown; refuse further use. The
			// next Open scans and truncates whatever half-frame landed.
			l.dead = true
			l.deadA.Store(true)
			return fmt.Errorf("wal: %w", werr)
		}
		l.size += int64(len(batch))
		l.written = last
		l.writtenA.Store(last)
		l.stats.Appends += uint64(count)
		l.stats.BatchWrites++
		l.commit.Broadcast()

		if l.opts.Dsync {
			// The O_DSYNC write was the group's flush: the batch is already
			// on disk and nothing is pending for the deferred-fsync policy.
			l.synced = l.size
			l.stats.Fsyncs++
			l.lastSync = l.opts.Clock.Now()
			continue
		}
		l.pending += count
		now := l.opts.Clock.Now()
		if l.pending >= l.opts.GroupCommitMax || now.Sub(l.lastSync) >= l.opts.GroupCommitWindow {
			if err := l.syncLocked(now); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync forces the group fsync immediately.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing && !l.dead {
		l.commit.Wait()
	}
	if l.dead {
		return ErrCrashed
	}
	if l.bufCount > 0 {
		// Only possible if a staging appender raced in after the last
		// flusher retired; drain it ourselves.
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	if l.file == nil {
		return nil
	}
	return l.syncLocked(l.opts.Clock.Now())
}

// syncLocked flushes the active segment. The caller must hold l.mu; the
// mutex is released for the fsync itself (appenders may stage, and a
// Sync-path flush may overlap a flusher's batch write — both are safe,
// and the bookkeeping below only credits bytes/appends this fsync
// actually covered).
func (l *Log) syncLocked(now time.Time) error {
	if d := l.opts.Faults.Decide(faults.WALFsync); d.Kind == faults.Crash {
		// Kill at the flush: the process dies, but bytes already written
		// to the OS file survive a kill — acknowledged appends are NOT
		// lost (only real power loss drops them, a hazard the durable
		// tests model by truncating segment files directly). The log is
		// dead until recovery.
		l.dead = true
		l.deadA.Store(true)
		l.commit.Broadcast()
		return fmt.Errorf("wal: fsync: %w: %w", faults.ErrCrash, ErrCrashed)
	}
	f := l.file
	covered := l.size
	cleared := l.pending
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Fsyncs++
	if covered > l.synced {
		l.synced = covered
	}
	l.pending -= cleared
	if l.pending < 0 {
		l.pending = 0
	}
	l.lastSync = now
	return nil
}

// rotateLocked seals the active segment and opens the next one. The
// caller must hold l.mu and be the exclusive writer (flushing).
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
	first := l.bufFirstOrNextLocked()
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|l.dsyncFlag(), 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.file = f
	l.size = 0
	l.synced = 0
	l.segs = append(l.segs, segment{firstLSN: first, path: path})
	l.stats.Segments = len(l.segs)
	return nil
}

// dsyncFlag returns the extra open flag for synchronous-durability mode.
func (l *Log) dsyncFlag() int {
	if l.opts.Dsync {
		return syscall.O_DSYNC
	}
	return 0
}

// bufFirstOrNextLocked names the segment a rotation is about to open: the
// first staged-but-unwritten LSN when a batch is pending, else the next
// LSN to be assigned. The caller must hold l.mu.
func (l *Log) bufFirstOrNextLocked() uint64 {
	if l.bufCount > 0 {
		return l.bufFirst
	}
	return l.nextLSN
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
// injected outside the log's own writes (a checkpoint). Batches already
// written stay acknowledged.
func (l *Log) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing && !l.dead {
		l.commit.Wait()
	}
	l.dead = true
	l.deadA.Store(true)
	l.commit.Broadcast()
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

// Close flushes and closes the active segment. A crashed log closes
// without flushing — the torn state on disk is the point.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing && !l.dead {
		l.commit.Wait()
	}
	if l.file == nil {
		return nil
	}
	f := l.file
	l.file = nil
	if l.dead {
		return f.Close()
	}
	if l.bufCount > 0 {
		// Shouldn't happen (a non-dead retired flusher leaves the batch
		// empty), but never drop staged frames on a deliberate shutdown.
		batch := *l.buf
		if _, err := f.Write(batch); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.size += int64(len(batch))
		l.written = l.bufFirst + uint64(l.bufCount) - 1
		l.writtenA.Store(l.written)
		l.pending += l.bufCount
		l.stats.Appends += uint64(l.bufCount)
		l.stats.BatchWrites++
		*l.buf = batch[:0]
		l.bufCount = 0
	}
	if l.pending > 0 {
		if err := l.syncFileLocked(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncFileLocked is the Close-path flush: no fault consult (the process
// is exiting deliberately), just the fsync and counters.
func (l *Log) syncFileLocked(f *os.File) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.stats.Fsyncs++
	l.synced = l.size
	l.pending = 0
	return nil
}
