package edge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/wal"
)

// Disk tier: every committed cache entry and every purge is journaled to
// a wal.Snapshotted in the cache directory, and every SnapshotEvery
// records the live entry set is checkpointed into it. The files, the
// snapshot framing and the recovery are that type's (and so the same as
// the server's durability directory); this file holds the record and
// entry codecs and the tier's one policy of its own: a cache is
// disposable, so where recovery reports a hole in the history — a lost
// purge may be in it — the tier keeps nothing and starts empty. A torn
// tail, the expected kill signature, loses only unacknowledged work and
// recovers warm.
//
// The records hold resource paths, body bytes the origin already serves
// publicly, versions, expirations and the upstream's sketch epoch — anonymous
// coherence state only. The PII byte-scan in the smoke gate asserts exactly
// that.

const (
	recFill  byte = 1
	recPurge byte = 2
	// recEpoch records the epoch mark the edge holds (see epochMark). A
	// restart compares the first sketch it installs with it.
	recEpoch byte = 3
)

// snapMagic marks an edge snapshot file. Its payload: a byte saying
// whether an epoch mark follows (0 or 1), then the mark if one does, then
// the uvarint entry count, then per entry a uvarint length and the encoded
// entry. The magic changed ("SKEC" before) when the mark joined the
// payload: a snapshot of the older layout is foreign, passed over rather
// than misread, and the tier starts empty as after a hole in the history.
var snapMagic = [4]byte{'S', 'K', 'E', '2'}

// epochMark is the sketch epoch the edge installed last and when the
// edge's epoch last changed (the zero time: it never has). An entry stored
// before since is not a hit until a revalidation renews it; persisting
// since with the epoch keeps that true across a restart, for the entries
// the restart recovers. On disk it is two big-endian words: the epoch, and
// since in Unix nanoseconds (0: the zero time).
type epochMark struct {
	epoch uint64
	since time.Time
}

const markLen = 16

func appendMark(b []byte, m epochMark) []byte {
	b = binary.BigEndian.AppendUint64(b, m.epoch)
	return binary.BigEndian.AppendUint64(b, uint64(unixNano(m.since)))
}

func readMark(b []byte) *epochMark {
	return &epochMark{
		epoch: binary.BigEndian.Uint64(b),
		since: fromUnixNano(int64(binary.BigEndian.Uint64(b[8:]))),
	}
}

// RecoveryInfo summarizes what a disk-tier open recovered.
type RecoveryInfo struct {
	// Entries live in the cache after recovery.
	Entries int
	// SnapshotLSN is the WAL position the loaded snapshot covered (0:
	// no usable snapshot).
	SnapshotLSN uint64
	// Replayed counts WAL records applied above the snapshot.
	Replayed int
	// ColdStart reports that the history had a hole (mid-log corruption,
	// an undecodable record, a snapshot of an older layout): everything
	// was discarded and the cache starts empty.
	ColdStart bool
}

type diskTier struct {
	log *wal.Snapshotted
	m   *metrics
	mem *cache.Store
	// every is the journal-records-per-snapshot cadence.
	every int

	// mu serializes the tier's appends, and an append with the checkpoint
	// it may trigger, so a checkpoint covers exactly the records counted
	// toward it.
	mu        sync.Mutex
	dead      bool // guarded by mu
	sinceSnap int  // guarded by mu; records appended since the last checkpoint
	// mark is the epoch mark last journaled or recovered, nil while there
	// is none: what a checkpoint writes, and what the edge's sketch holder
	// resumes from at open.
	mark *epochMark // guarded by mu
}

// openDisk opens (or recovers) the disk tier rooted at dir, loading
// surviving entries into mem.
func openDisk(dir string, every int, clk clock.Clock, inj *faults.Injector, mem *cache.Store, m *metrics) (*diskTier, RecoveryInfo, error) {
	var mark *epochMark
	restore := func(p []byte) error { return restoreSnapshot(p, mem, &mark) }
	replay := func(_ uint64, rec []byte) error { return replayRecord(rec, mem, &mark) }
	log, rec, err := wal.OpenSnapshotted(wal.Options{Dir: dir, Clock: clk, Faults: inj}, snapMagic, restore, replay)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if every <= 0 {
		every = 256
	}
	d := &diskTier{log: log, m: m, mem: mem, every: every, mark: mark}
	info := RecoveryInfo{SnapshotLSN: rec.SnapshotLSN, Replayed: int(rec.Replayed)}
	if rec.Corrupt || rec.Foreign {
		// What loaded is older than records that are gone, or only the
		// records above a snapshot of another layout: a purge may be
		// missing either way. Keep none of it, and put the empty set on
		// disk so that no later recovery reads the old snapshot back.
		mem.Clear()
		d.mark = nil
		if _, err := log.Checkpoint(d.export); err != nil {
			log.Close()
			return nil, RecoveryInfo{}, err
		}
		info = RecoveryInfo{ColdStart: true}
	}
	info.Entries = mem.Len()
	return d, info, nil
}

// restoreSnapshot loads a snapshot payload (see export) into mem, and its
// epoch mark, if it holds one, into *mark.
func restoreSnapshot(p []byte, mem *cache.Store, mark **epochMark) error {
	if len(p) == 0 || p[0] > 1 || p[0] == 1 && len(p) < 1+markLen {
		return errors.New("edge: malformed snapshot")
	}
	if p[0] == 1 {
		*mark = readMark(p[1:])
		p = p[1+markLen:]
	} else {
		p = p[1:]
	}
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return errors.New("edge: malformed snapshot")
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		enc, rest, ok := readBytes(p)
		if !ok {
			return errors.New("edge: malformed snapshot")
		}
		e, ok := decodeEntry(enc)
		if !ok {
			return errors.New("edge: malformed snapshot entry")
		}
		mem.Put(e)
		p = rest
	}
	return nil
}

// replayRecord applies one journal record to mem, or to *mark for an
// epoch record.
func replayRecord(rec []byte, mem *cache.Store, mark **epochMark) error {
	if len(rec) == 0 {
		return errors.New("edge: empty disk record")
	}
	switch rec[0] {
	case recFill:
		e, ok := decodeEntry(rec[1:])
		if !ok {
			return errors.New("edge: malformed fill record")
		}
		mem.Put(e)
	case recPurge:
		mem.Delete(string(rec[1:]))
	case recEpoch:
		if len(rec) != 1+markLen {
			return errors.New("edge: malformed epoch record")
		}
		*mark = readMark(rec[1:])
	default:
		return fmt.Errorf("edge: unknown disk record type %d", rec[0])
	}
	return nil
}

// appendFill journals one committed entry. A failed append (injected
// crash, disk error) marks the tier dead: the edge keeps serving from
// memory, and the owner's restart path runs recovery.
func (d *diskTier) appendFill(e cache.Entry) {
	d.append(append([]byte{recFill}, encodeEntry(e)...))
	d.m.diskFills.Inc()
}

// appendPurge journals one eviction.
func (d *diskTier) appendPurge(key string) {
	d.append(append([]byte{recPurge}, key...))
	d.m.diskPurges.Inc()
}

// appendEpoch journals the epoch mark the edge's sketch holder holds once
// an install has changed it. The mark is read under mu, so of two installs
// racing to journal, the later record states what both left behind.
func (d *diskTier) appendEpoch(c *cachesketch.Client) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mark = &epochMark{epoch: c.Snapshot().Epoch, since: c.EpochSince()}
	d.appendLocked(appendMark([]byte{recEpoch}, *d.mark))
}

func (d *diskTier) append(payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appendLocked(payload)
}

// appendLocked is append with mu held.
func (d *diskTier) appendLocked(payload []byte) {
	if d.dead {
		return
	}
	if _, err := d.log.Append(payload); err != nil {
		d.dead = true
		return
	}
	d.sinceSnap++
	if d.sinceSnap >= d.every {
		// A failed checkpoint is not fatal: the WAL still holds every
		// record, so recovery replays what the snapshot missed.
		if size, err := d.log.Checkpoint(d.export); err == nil && size > 0 {
			d.sinceSnap = 0
			d.m.snapshots.Inc()
		}
	}
}

// crashed reports whether an injected fault killed the tier.
func (d *diskTier) crashed() bool { return d.log.Crashed() }

func (d *diskTier) close() error { return d.log.Close() }

// export encodes the epoch mark and the live entry set, in key order, as a
// snapshot payload. The caller must hold mu, or own d alone.
func (d *diskTier) export() []byte {
	out := []byte{0}
	if d.mark != nil {
		out = appendMark([]byte{1}, *d.mark)
	}
	keys := d.mem.Keys()
	sort.Strings(keys)
	var entBuf []byte
	n := 0
	for _, k := range keys {
		e, ok := d.mem.Peek(k)
		if !ok {
			continue
		}
		enc := encodeEntry(e)
		entBuf = binary.AppendUvarint(entBuf, uint64(len(enc)))
		entBuf = append(entBuf, enc...)
		n++
	}
	return append(binary.AppendUvarint(out, uint64(n)), entBuf...)
}

// unixNano maps a time to its wire form; the zero time stays zero so a
// never-expiring entry round-trips as one.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromUnixNano(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// --- entry wire encoding -------------------------------------------------
//
// Length-prefixed binary, no reflection:
//
//	str key | bytes body | uvarint version | varint storedAt | varint
//	expiresAt | uvarint nmeta | nmeta × (str k, str v)
//
// Timestamps travel as Unix nanoseconds (zero time → 0).

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readBytes splits one length-prefixed field off b.
func readBytes(b []byte) (field, rest []byte, ok bool) {
	sz, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) < sz {
		return nil, nil, false
	}
	return b[n : n+int(sz)], b[n+int(sz):], true
}

func readString(b []byte) (string, []byte, bool) {
	field, rest, ok := readBytes(b)
	return string(field), rest, ok
}

func encodeEntry(e cache.Entry) []byte {
	b := appendString(nil, e.Key)
	b = binary.AppendUvarint(b, uint64(len(e.Body)))
	b = append(b, e.Body...)
	b = binary.AppendUvarint(b, e.Version)
	b = binary.AppendVarint(b, unixNano(e.StoredAt))
	b = binary.AppendVarint(b, unixNano(e.ExpiresAt))
	b = binary.AppendUvarint(b, uint64(len(e.Metadata)))
	keys := make([]string, 0, len(e.Metadata))
	for k := range e.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, e.Metadata[k])
	}
	return b
}

// decodeEntry reads an entry encodeEntry wrote. Its answer values are
// formatted again (answerMeta), not taken from the record: a record
// written before they were kept has none.
func decodeEntry(b []byte) (cache.Entry, bool) {
	var e cache.Entry
	var ok bool
	if e.Key, b, ok = readString(b); !ok {
		return e, false
	}
	var body []byte
	if body, b, ok = readBytes(b); !ok {
		return e, false
	}
	e.Body = append([]byte(nil), body...)
	var n int
	if e.Version, n = binary.Uvarint(b); n <= 0 {
		return e, false
	}
	b = b[n:]
	var ns int64
	if ns, n = binary.Varint(b); n <= 0 {
		return e, false
	}
	e.StoredAt = fromUnixNano(ns)
	b = b[n:]
	if ns, n = binary.Varint(b); n <= 0 {
		return e, false
	}
	e.ExpiresAt = fromUnixNano(ns)
	b = b[n:]
	nmeta, n := binary.Uvarint(b)
	// Each pair takes two bytes at least, so a count past that is damage,
	// and must not size the map.
	if n <= 0 || nmeta > uint64(len(b)-n)/2 {
		return e, false
	}
	b = b[n:]
	if nmeta > 0 {
		e.Metadata = make(map[string]string, nmeta)
		for i := uint64(0); i < nmeta; i++ {
			var k, v string
			if k, b, ok = readString(b); !ok {
				return e, false
			}
			if v, b, ok = readString(b); !ok {
				return e, false
			}
			e.Metadata[k] = v
		}
	}
	answerMeta(&e)
	return e, true
}
