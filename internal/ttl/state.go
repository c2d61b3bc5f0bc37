// Durability surface of the estimator: deterministic export/import of the
// per-resource statistics so the durable snapshot can persist adaptive
// TTL state without reaching into private fields. The encoding carries
// resource IDs and timing statistics only — never identity data.
package ttl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// export format: magic "SKTE", u8 version, u32 resource count, then per
// resource (IDs sorted): u32 id length, id bytes, i64 lastRead UnixNano,
// i64 lastWrite UnixNano (zero instants encode as math.MinInt64), f64
// bits of both EWMAs, u64 reads, u64 writes. Sorted IDs make equal states
// export byte-identical blobs.
var estMagic = [4]byte{'S', 'K', 'T', 'E'}

const estVersion = 1

// zeroInstant marks a zero time.Time in the encoding; UnixNano of the
// zero time is implementation-defined territory we stay out of.
const zeroInstant = int64(math.MinInt64)

func encodeInstant(t time.Time) int64 {
	if t.IsZero() {
		return zeroInstant
	}
	return t.UnixNano()
}

func decodeInstant(v int64) time.Time {
	if v == zeroInstant {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// AppendState appends every tracked resource's statistics to dst and
// returns the extended slice; AppendState(nil) is the state on its own.
func (e *Estimator) AppendState(dst []byte) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, 0, len(e.res))
	for id := range e.res {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	out := append(dst, estMagic[:]...)
	out = append(out, estVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		s := e.res[id]
		out = binary.BigEndian.AppendUint32(out, uint32(len(id)))
		out = append(out, id...)
		out = binary.BigEndian.AppendUint64(out, uint64(encodeInstant(s.lastRead)))
		out = binary.BigEndian.AppendUint64(out, uint64(encodeInstant(s.lastWrite)))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.readGapEWMA))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.writeGapEWMA))
		out = binary.BigEndian.AppendUint64(out, s.reads)
		out = binary.BigEndian.AppendUint64(out, s.writes)
	}
	return out
}

// ImportState replaces the estimator's tracked state with a previously
// exported blob. EWMAs and counters resume exactly where they left off;
// the first post-import observation of a resource extends its gap EWMA
// from the restored last-seen instant, same as if the process had never
// died.
func (e *Estimator) ImportState(data []byte) error {
	if len(data) < 9 || [4]byte(data[0:4]) != estMagic {
		return errors.New("ttl: bad state magic")
	}
	if data[4] != estVersion {
		return fmt.Errorf("ttl: unsupported state version %d", data[4])
	}
	n := int(binary.BigEndian.Uint32(data[5:9]))
	off := 9
	res := make(map[string]*resourceStats, n)
	for i := 0; i < n; i++ {
		if len(data)-off < 4 {
			return errors.New("ttl: truncated state entry header")
		}
		idLen := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if idLen < 0 || len(data)-off < idLen+48 {
			return errors.New("ttl: truncated state entry")
		}
		id := string(data[off : off+idLen])
		off += idLen
		s := &resourceStats{
			lastRead:     decodeInstant(int64(binary.BigEndian.Uint64(data[off:]))),
			lastWrite:    decodeInstant(int64(binary.BigEndian.Uint64(data[off+8:]))),
			readGapEWMA:  math.Float64frombits(binary.BigEndian.Uint64(data[off+16:])),
			writeGapEWMA: math.Float64frombits(binary.BigEndian.Uint64(data[off+24:])),
			reads:        binary.BigEndian.Uint64(data[off+32:]),
			writes:       binary.BigEndian.Uint64(data[off+40:]),
		}
		off += 48
		res[id] = s
	}
	if off != len(data) {
		return errors.New("ttl: trailing bytes in state blob")
	}
	e.mu.Lock()
	e.res = res
	e.mu.Unlock()
	return nil
}

// Reset drops all tracked state, as if freshly constructed. Recovery
// calls it before applying a snapshot.
func (e *Estimator) Reset() {
	e.mu.Lock()
	e.res = make(map[string]*resourceStats)
	e.mu.Unlock()
}
