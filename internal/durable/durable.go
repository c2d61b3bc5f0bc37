// Package durable persists the service tier's coherence state — the
// Cache Sketch server and the adaptive TTL estimator — across process
// death, so that a restarted server still honours the Δ-atomicity bound
// instead of silently publishing an empty sketch.
//
// Two mechanisms compose:
//
//   - A write-ahead log (internal/wal) records every state-changing
//     coherence event (cache-fill report, tracked write, exposed sketch
//     generation) as it happens, via the cachesketch.Journal hooks.
//   - Periodic snapshots capture the full exported state, so recovery
//     replays only the log above the newest one and the log can be pruned
//     behind it.
//
// The files, their framing and the recovery algorithm are
// wal.Snapshotted's; this package owns the journal codec, the
// clean/open markers and the trust decision. Recover restores the newest
// valid snapshot, replays the WAL tail through the real server logic,
// and then decides trust. A log that ends in the clean-shutdown marker is
// complete and the server resumes warm, continuing its sketch epoch.
// Anything else — torn tail, acknowledged records that power loss took
// before their deferred fsync, mid-log corruption — means history may be
// missing, and the server draws a new sketch epoch. Every tier that holds
// a sketch (device, edge, the server's own CDN tier) then trusts none of
// its pre-restart copies: each is revalidated or fetched again once, so Δ
// holds with no trusted history at all. That epoch change, not a
// synchronous write mode, is what covers power loss.
//
// Every append to the log runs under the store's mutex, which the journal
// hooks take under the sketch server's: the log sees one appender at a
// time, and each record is one write(2) of its own.
//
// GDPR: this package sits behind the same boundary as the CDN — it may
// only ever see anonymous coherence metadata (resource IDs, expirations,
// sequence numbers). The gdprboundary analyzer enforces that it never
// imports the session/gdpr identity surfaces.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/ttl"
	"speedkit/internal/wal"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the durability directory holding WAL segments and snapshots.
	Dir string
	// Clock drives the WAL's deferred fsync (default system).
	Clock clock.Clock
	// Faults optionally injects crashes at the WAL and snapshot writers.
	Faults *faults.Injector
	// SegmentMaxBytes passes through to the WAL (see wal.Options).
	SegmentMaxBytes int64
	// SnapshotEvery suggests a snapshot after this many journaled records
	// (default 512); ShouldSnapshot exposes the trigger, the owner decides
	// when to act on it (snapshots must not run under the sketch mutex).
	SnapshotEvery int
	// ColdWindow and BlindHorizon are read by nothing.
	ColdWindow   time.Duration // kept for cmd/speedkit-load (ROADMAP 13(p))
	BlindHorizon time.Duration // kept for cmd/speedkit-load (ROADMAP 13(p))
}

func (c *Config) applyDefaults() {
	if c.Clock == nil {
		c.Clock = clock.System
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 512
	}
}

// Mode classifies how a recovery rebuilt state.
type Mode int

// Recovery modes.
const (
	// Fresh: no prior state existed; a brand-new deployment.
	Fresh Mode = iota
	// Snapshot: a snapshot loaded and the WAL held nothing past it.
	Snapshot
	// Replay: a WAL tail (with or without a snapshot under it) replayed.
	Replay
	// ColdStart: the log was corrupt past the snapshot; only the
	// snapshot (if any) and the intact prefix above it were trusted.
	ColdStart
)

// String names the mode with the metric label values from the issue
// contract: snapshot | replay | coldstart (plus fresh for new dirs).
func (m Mode) String() string {
	switch m {
	case Fresh:
		return "fresh"
	case Snapshot:
		return "snapshot"
	case Replay:
		return "replay"
	case ColdStart:
		return "coldstart"
	}
	return "unknown"
}

// RecoveryInfo reports what Recover did.
type RecoveryInfo struct {
	Mode Mode
	// NewEpoch is true when the history was not proven complete and the
	// server serves under a newly drawn sketch epoch.
	NewEpoch bool
	// SnapshotLSN is the WAL position the loaded snapshot covered (0 if
	// none).
	SnapshotLSN uint64
	// Replayed is how many journal records were replayed past the
	// snapshot (shutdown markers included).
	Replayed uint64
	// Foreign is true when a snapshot of another layout (see snapMagic)
	// was passed over: the history replayed above it is partial.
	Foreign bool
	// TruncatedBytes is how much torn tail the WAL scan discarded.
	TruncatedBytes int64
}

// journal record types.
const (
	recCachedRead byte = 1
	recWrite      byte = 2
	// recWatermark is reserved: logs written while the store journaled an
	// invalidation watermark hold it. It decodes, and replay ignores it.
	recWatermark  byte = 3
	recClean      byte = 4
	recGeneration byte = 5
	recOpen       byte = 6
	// recEpoch names the sketch epoch of the incarnation whose open marker
	// precedes it.
	recEpoch byte = 7
)

// record is one journal entry: what the hooks encode, and what the WAL
// scan decodes and buffers so nothing is applied from a log that later
// proves corrupt.
type record struct {
	typ       byte
	key       string
	expiresAt time.Time
	seq       uint64
}

// Stats counts durability activity for the obs layer (this package may
// not import internal/obs — the httpapi/core layers register gauges over
// these counters instead).
type Stats struct {
	WAL           wal.Stats
	SnapshotBytes int
	Snapshots     uint64
	Recoveries    uint64
	LastRecovery  RecoveryInfo
	Crashed       bool
}

// Store is the durability engine. It implements cachesketch.Journal so
// the sketch server logs through it, and owns snapshots and recovery.
// Safe for concurrent use.
type Store struct {
	cfg Config

	mu        sync.Mutex
	log       *wal.Snapshotted    // guarded by mu
	sketch    *cachesketch.Server // guarded by mu; wired by first Recover
	est       *ttl.Estimator      // guarded by mu; wired by first Recover
	replaying bool                // guarded by mu; suppresses journaling during Apply
	crashed   bool                // guarded by mu; injected kill observed
	scratch   []byte              // guarded by mu; encodes one journal record at a time
	pending   int                 // guarded by mu; records since last snapshot
	snapLSN   uint64              // guarded by mu; LSN covered by newest snapshot
	stats     Stats               // guarded by mu
}

// New creates a Store over dir without touching the disk; call Recover to
// open (and re-open after a crash).
func New(cfg Config) *Store {
	cfg.applyDefaults()
	return &Store{cfg: cfg}
}

// --- journaling ----------------------------------------------------------

// appendLocked encodes r into the store's scratch buffer and appends it
// to the log, which copies it into its own frame buffer: a record costs
// no allocation once the scratch has grown. The caller must hold s.mu.
// Injected crashes flip the store dead; journaling is fire-and-forget by
// contract (the hooks run under the sketch mutex), so the error surfaces
// through Crashed() rather than a return value.
func (s *Store) appendLocked(r record) {
	if s.crashed || s.replaying || s.log == nil {
		return
	}
	s.scratch = encodeRecord(s.scratch[:0], r)
	if _, err := s.log.Append(s.scratch); err != nil {
		s.noteCrashLocked(err)
		return
	}
	s.pending++
}

// encodeRecord appends the journal payload of r to b: the inverse of
// decodeRecord.
func encodeRecord(b []byte, r record) []byte {
	b = append(b, r.typ)
	switch r.typ {
	case recCachedRead:
		b = appendKey(b, r.key)
		return binary.BigEndian.AppendUint64(b, uint64(r.expiresAt.UnixNano()))
	case recWrite:
		return appendKey(b, r.key)
	case recWatermark, recGeneration, recEpoch:
		return binary.BigEndian.AppendUint64(b, r.seq)
	}
	return b
}

// appendKey appends key, length-prefixed, to a journal record.
func appendKey(rec []byte, key string) []byte {
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(key)))
	return append(rec, key...)
}

// JournalCachedRead implements cachesketch.Journal.
func (s *Store) JournalCachedRead(key string, expiresAt time.Time) {
	s.mu.Lock()
	s.appendLocked(record{typ: recCachedRead, key: key, expiresAt: expiresAt})
	s.mu.Unlock()
}

// JournalWrite implements cachesketch.Journal.
func (s *Store) JournalWrite(key string) {
	s.mu.Lock()
	s.appendLocked(record{typ: recWrite, key: key})
	s.mu.Unlock()
}

// JournalGeneration implements cachesketch.Journal: it logs a generation
// the sketch server just exposed to clients, giving recovery the
// monotonicity floor it must restore.
func (s *Store) JournalGeneration(gen uint64) {
	s.mu.Lock()
	s.appendLocked(record{typ: recGeneration, seq: gen})
	s.mu.Unlock()
}

// sealOpenLocked journals the open marker and the epoch this incarnation
// serves under. The caller must hold s.mu.
func (s *Store) sealOpenLocked(epoch uint64) {
	s.appendLocked(record{typ: recOpen})
	s.appendLocked(record{typ: recEpoch, seq: epoch})
}

// Crashed reports whether an injected crash killed the store; only
// Recover revives it.
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// ShouldSnapshot reports whether enough records accumulated since the
// last snapshot to warrant a new one. The owner calls Snapshot from a
// context that holds no sketch locks.
func (s *Store) ShouldSnapshot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.crashed && s.log != nil && s.pending >= s.cfg.SnapshotEvery
}

// decodeRecord parses one journal payload.
func decodeRecord(payload []byte) (record, error) {
	if len(payload) == 0 {
		return record{}, errors.New("durable: empty journal record")
	}
	r := record{typ: payload[0]}
	body := payload[1:]
	switch r.typ {
	case recCachedRead:
		if len(body) < 12 {
			return record{}, errors.New("durable: short cached-read record")
		}
		klen := int(binary.BigEndian.Uint32(body))
		if len(body) != 4+klen+8 {
			return record{}, errors.New("durable: malformed cached-read record")
		}
		r.key = string(body[4 : 4+klen])
		r.expiresAt = time.Unix(0, int64(binary.BigEndian.Uint64(body[4+klen:])))
	case recWrite:
		if len(body) < 4 {
			return record{}, errors.New("durable: short write record")
		}
		klen := int(binary.BigEndian.Uint32(body))
		if len(body) != 4+klen {
			return record{}, errors.New("durable: malformed write record")
		}
		r.key = string(body[4 : 4+klen])
	case recWatermark, recGeneration, recEpoch:
		if len(body) != 8 {
			return record{}, fmt.Errorf("durable: malformed record type %d", r.typ)
		}
		r.seq = binary.BigEndian.Uint64(body)
	case recClean, recOpen:
		if len(body) != 0 {
			return record{}, errors.New("durable: malformed shutdown/open marker")
		}
	default:
		return record{}, fmt.Errorf("durable: unknown record type %d", r.typ)
	}
	return r, nil
}

// --- snapshots -----------------------------------------------------------

// snapMagic marks a sketch-server snapshot file. Its payload, inside
// wal.Snapshotted's frame: u64 sketch epoch, u32 sketch-state length,
// sketch state, u32 ttl-state length, ttl state. The magic changes with
// the layout — "SKSN" before the epoch joined the payload, "SKS2" while a
// u64 invalidation watermark led it — so a snapshot of an older layout is
// foreign, passed over rather than misread, and Recover treats the
// history above it as unclean.
var snapMagic = [4]byte{'S', 'K', 'S', '3'}

// noteCrashLocked flips the store dead if err is an injected kill. The
// caller must hold s.mu.
func (s *Store) noteCrashLocked(err error) {
	if errors.Is(err, faults.ErrCrash) || errors.Is(err, wal.ErrCrashed) {
		s.crashed = true
		s.stats.Crashed = true
	}
}

// snapshotTargets copies the component pointers and the previous
// snapshot's size out under the lock, refusing after a crash or before
// recovery.
func (s *Store) snapshotTargets() (*wal.Snapshotted, *cachesketch.Server, *ttl.Estimator, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, nil, nil, 0, fmt.Errorf("durable: %w", faults.ErrCrash)
	}
	if s.log == nil || s.sketch == nil {
		return nil, nil, nil, 0, errors.New("durable: not recovered")
	}
	return s.log, s.sketch, s.est, s.stats.SnapshotBytes, nil
}

// appendSized appends a u32 length followed by the bytes state appends,
// back-patching the length once they are known.
func appendSized(buf []byte, state func([]byte) []byte) []byte {
	at := len(buf)
	buf = state(append(buf, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// Snapshot atomically persists the full coherence state and prunes the
// WAL behind it. Must not be called from a context holding the sketch
// mutex (it exports the sketch state, which takes that mutex).
// Concurrent calls coalesce: whoever loses the race returns nil
// immediately, since the in-flight snapshot covers its trigger.
func (s *Store) Snapshot() error {
	log, sketch, est, prev, err := s.snapshotTargets()
	if err != nil {
		return err
	}
	// The export runs after the covered LSN is fixed and outside s.mu:
	// the journal hooks take s.mu under the sketch mutex, which
	// AppendState takes. Records journaled meanwhile land above the
	// snapshot and replay on top of it, which the sketch's report logic
	// absorbs idempotently. Both states append into one buffer, which
	// Checkpoint writes without copying; sized from the previous snapshot
	// with an eighth to spare, a state that grew a little since does not
	// regrow it.
	size, err := log.Checkpoint(func() []byte {
		buf := binary.BigEndian.AppendUint64(make([]byte, 0, prev+prev/8), sketch.Epoch())
		buf = appendSized(buf, sketch.AppendState)
		if est == nil {
			return binary.BigEndian.AppendUint32(buf, 0)
		}
		return appendSized(buf, est.AppendState)
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.noteCrashLocked(err)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if size > 0 {
		s.snapLSN = log.SnapshotLSN()
		s.pending = 0
		s.stats.Snapshots++
		s.stats.SnapshotBytes = size
	}
	return nil
}

// --- recovery ------------------------------------------------------------

// beginRecover resolves the recovery targets (explicit arguments win,
// falling back to the pair remembered from the previous recovery) and
// retires any prior log incarnation, all under the lock.
func (s *Store) beginRecover(sketch *cachesketch.Server, est *ttl.Estimator) (*cachesketch.Server, *ttl.Estimator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sketch == nil {
		sketch = s.sketch
	}
	if est == nil {
		est = s.est
	}
	if sketch == nil {
		return nil, nil, errors.New("durable: Recover needs a sketch server")
	}
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	return sketch, est, nil
}

// Recover (re)opens the durability directory and rebuilds the wired
// sketch server and TTL estimator from the newest valid snapshot plus the
// WAL tail. The first call wires the pair; later calls (crash recovery)
// reuse them, resetting their in-memory state first — the crash model is
// that memory died.
//
// Trust decision: a log whose final record is the clean-shutdown marker
// is complete. Anything else keeps the new epoch Reset drew, because an
// acknowledged record is only in the OS file until its deferred fsync,
// and power loss may have taken it.
func (s *Store) Recover(sketch *cachesketch.Server, est *ttl.Estimator) (RecoveryInfo, error) {
	sketch, est, err := s.beginRecover(sketch, est)
	if err != nil {
		return RecoveryInfo{}, err
	}

	// Crash model: the process's memory is gone. Reset before applying.
	sketch.Reset()
	if est != nil {
		est.Reset()
	}
	// genFloor accumulates the highest generation clients provably saw:
	// the snapshot's own, raised by every replayed recGeneration record.
	// epoch is the last incarnation's: the snapshot's, or the newest
	// recEpoch record's.
	var genFloor, epoch uint64
	haveSnap, haveEpoch := false, false
	restore := func(p []byte) error {
		if len(p) < 12 {
			return errors.New("durable: short snapshot")
		}
		skLen := int(binary.BigEndian.Uint32(p[8:12]))
		if len(p) < 16+skLen {
			return errors.New("durable: malformed snapshot")
		}
		ttLen := int(binary.BigEndian.Uint32(p[12+skLen:]))
		if len(p) != 16+skLen+ttLen {
			return errors.New("durable: malformed snapshot")
		}
		if err := sketch.ImportState(p[12 : 12+skLen]); err != nil {
			return err
		}
		if est != nil && ttLen > 0 {
			if err := est.ImportState(p[16+skLen:]); err != nil {
				return err
			}
		}
		haveSnap, haveEpoch = true, true
		epoch = binary.BigEndian.Uint64(p)
		genFloor = sketch.Generation()
		return nil
	}
	// The tail is buffered, not applied as it arrives: whether the clean
	// marker is the final record is known only at the end, and adjacent
	// writes replay as one batch. A record that does not decode makes the
	// log corrupt from there on.
	var tail []record
	replay := func(_ uint64, payload []byte) error {
		r, err := decodeRecord(payload)
		if err == nil {
			tail = append(tail, r)
		}
		return err
	}
	log, rec, err := wal.OpenSnapshotted(wal.Options{
		Dir:             s.cfg.Dir,
		SegmentMaxBytes: s.cfg.SegmentMaxBytes,
		Clock:           s.cfg.Clock,
		Faults:          s.cfg.Faults,
	}, snapMagic, restore, replay)
	if err != nil {
		return RecoveryInfo{}, err
	}
	info := RecoveryInfo{
		SnapshotLSN:    rec.SnapshotLSN,
		Replayed:       rec.Replayed,
		Foreign:        rec.Foreign,
		TruncatedBytes: rec.TruncatedBytes,
	}

	// Replay the tail through the real server logic. Journaling is
	// suppressed (the records are already in the log — except after a
	// wipe, where the new epoch covers the loss).
	s.mu.Lock()
	s.replaying = true
	s.mu.Unlock()
	clean := false
	// Consecutive write records — the common shape of a write-heavy tail —
	// are applied through the sketch's batched path: one lock acquisition
	// and one removal sweep per run instead of per record. State-identical
	// to per-record ReportWrite because replay batches only adjacent writes
	// (ordering against interleaved cached-read records is preserved).
	writeRun := make([]string, 0, 64)
	flushWrites := func() {
		if len(writeRun) > 0 {
			sketch.ReportWrites(writeRun)
			writeRun = writeRun[:0]
		}
	}
	for i, r := range tail {
		if r.typ != recWrite {
			flushWrites()
		}
		switch r.typ {
		case recCachedRead:
			sketch.ReportCachedRead(r.key, r.expiresAt)
		case recWrite:
			writeRun = append(writeRun, r.key)
		case recGeneration:
			if r.seq > genFloor {
				genFloor = r.seq
			}
		case recEpoch:
			epoch, haveEpoch = r.seq, true
		case recClean:
			// Complete only as the final record; a marker with records
			// after it belongs to an earlier incarnation.
			clean = i == len(tail)-1
		case recOpen:
			// A later incarnation started; nothing to apply. Its mere
			// presence past a clean marker is what voids that marker.
		case recWatermark:
			// Reserved: what an older build journaled, and nothing reads.
		}
	}
	flushWrites()

	switch {
	case rec.Reseeded:
		// Mid-log corruption, an undecodable record, or a torn tail that
		// reached back inside the snapshot: the log was retired, and only
		// the snapshot and the intact prefix above it were applied.
		info.Mode = ColdStart
	case info.Replayed > 0:
		info.Mode = Replay
	case haveSnap:
		info.Mode = Snapshot
	case info.TruncatedBytes > 0:
		// The log held bytes but yielded no trusted record. That is
		// destroyed history, not a fresh deployment: every incarnation
		// fsyncs an open marker at recovery, so a deployment's log always
		// has a readable prefix unless damage reached the first frame and
		// the torn-tail truncation swallowed everything. Recovering warm
		// here would continue the epoch with zero history.
		info.Mode = ColdStart
	default:
		info.Mode = Fresh
	}

	// A fresh directory trivially has complete (empty) history; a torn
	// tail, a wipe, or any log not sealed by the shutdown marker does not.
	// Nor does one whose newest snapshot is of another layout (see
	// snapMagic): the log above it is a partial history.
	info.NewEpoch = info.Mode != Fresh && (!clean || rec.Reseeded || info.TruncatedBytes > 0 || rec.Foreign)
	// A clean log lost nothing: the restart continues the last epoch, and
	// never republishes a generation of it any client already holds —
	// Install keeps the newest one, so a regressed generation would leave
	// connected clients rejecting every post-restart snapshot. Anything
	// else keeps the epoch Reset drew: the lost tail may have exposed
	// generations no floor knows, and a new epoch supersedes them all.
	if !info.NewEpoch && haveEpoch {
		sketch.SetEpoch(epoch)
		sketch.EnsureGeneration(genFloor)
	} else {
		epoch = sketch.Epoch()
	}

	s.mu.Lock()
	s.log = log
	s.sketch = sketch
	s.est = est
	s.replaying = false
	s.crashed = false
	s.snapLSN = rec.SnapshotLSN
	s.pending = 0
	s.stats.Crashed = false
	s.stats.Recoveries++
	s.stats.LastRecovery = info
	// Seal the recovery into the log with an fsynced open marker: once it
	// is durable, the previous clean-shutdown marker can never again be
	// the log's final record. Without it, losing this incarnation's whole
	// unsynced suffix (power loss, or the injected fsync kill) would roll
	// the disk back to a state that masquerades as a clean history while
	// acknowledged reports are gone. Failure here flips the crashed flag
	// like any other journaling failure — the owner's signal to recover.
	// The epoch this incarnation serves under is sealed with it, before any
	// snapshot of it can reach a client.
	s.sealOpenLocked(epoch)
	s.mu.Unlock()
	if err := s.Sync(); err != nil && !errors.Is(err, faults.ErrCrash) && !errors.Is(err, wal.ErrCrashed) {
		return info, err
	}
	if rec.Foreign {
		// Put a snapshot of this layout above the foreign one, or every
		// restart would pass it over again and draw a new epoch. One that
		// fails leaves exactly that, which is safe.
		_ = s.Snapshot()
	}
	return info, nil
}

// Close seals the log with the clean-shutdown marker and closes it. A
// crashed store closes without the marker — the torn state on disk is
// what the next recovery must see. The final WAL counters are retained
// so Stats stays meaningful after shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	log := s.log
	s.log = nil
	var err error
	if !s.crashed {
		if _, aerr := log.Append([]byte{recClean}); aerr != nil {
			err = aerr
		} else if serr := log.Sync(); serr != nil {
			err = serr
		}
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	s.stats.WAL = log.Stats()
	return err
}

// Kill simulates process death for this store's node: the log is closed
// WITHOUT the clean-shutdown marker and the store goes dead, exactly the
// disk state a real kill leaves behind. The next Recover over the same
// directory therefore distrusts the tail and draws a new epoch. The
// cluster gate uses this for node-level kill injection; unlike an
// injected WAL crash it is driver-scheduled, so twin seeded runs kill the
// same nodes at the same points.
func (s *Store) Kill() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	s.stats.Crashed = true
	if s.log == nil {
		return nil
	}
	log := s.log
	s.log = nil
	err := log.Close()
	s.stats.WAL = log.Stats()
	return err
}

// Sync fsyncs the WAL now (SIGTERM flush path). An injected crash during
// the fsync flips the store dead, like any journaling crash.
func (s *Store) Sync() error {
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	if log == nil {
		return nil
	}
	err := log.Sync()
	if err != nil {
		s.mu.Lock()
		s.noteCrashLocked(err)
		s.mu.Unlock()
	}
	return err
}

// SnapshotLSN returns the LSN covered by the newest snapshot — taken or
// recovered in this incarnation — or 0 before any snapshot exists. The
// health endpoint reports it so operators can see how much WAL tail a
// crash would replay.
func (s *Store) SnapshotLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapLSN
}

// Stats returns a copy of the durability counters, including the
// underlying WAL's.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.log != nil {
		st.WAL = s.log.Stats()
	}
	st.Crashed = s.crashed
	return st
}

var _ cachesketch.Journal = (*Store)(nil)
