// Durability surface of the protocol server: journaling hooks, full-state
// export/import for snapshots, and the epoch a recovery hands back when the
// log proves nothing was lost.
//
// The exported state is coherence metadata only — resource IDs and
// expiration instants — and the journal carries the same. Nothing
// identity-bearing ever flows through this file; the gdprboundary
// analyzer enforces that transitively for the wal/durable packages that
// consume it.
package cachesketch

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Journal receives the server's state-changing coherence events so a
// durability layer can log them. Every hook is invoked with the server's
// mutex held, strictly after the mutation it describes: implementations
// must be fast, must not block on I/O they cannot bound, and must never
// call back into the Server (deadlock). A nil journal disables emission.
type Journal interface {
	// JournalCachedRead fires when a reported cache fill extended the
	// expiration table (not for ignored or non-extending reports).
	JournalCachedRead(key string, expiresAt time.Time)
	// JournalWrite fires when a reported write entered or extended the
	// sketch (not for writes to uncached resources, which change nothing).
	JournalWrite(key string)
	// JournalGeneration fires the first time Snapshot exposes a given
	// generation to clients. Clients ignore snapshots of their epoch whose
	// generation is below the one they hold, so a recovery that continues
	// the epoch must never republish a lower generation than any client
	// has seen — logging exactly the exposed ones gives it the floor it
	// must clear.
	JournalGeneration(gen uint64)
}

// state export format: magic "SKSS", u8 version, u64 generation,
// u32 expiry-count, entries, u32 sketch-count, entries; every entry is
// u32 key length, key bytes, i64 UnixNano expiration. Keys are sorted so
// equal states export byte-identical blobs (the twin-run determinism the
// crash gate asserts).
var stateMagic = [4]byte{'S', 'K', 'S', 'S'}

const stateVersion = 1

// AppendState appends the server's full coherence state to dst and
// returns the extended slice: generation, expiration table, and sketch
// residency map. The counting filter itself is not encoded — it is a pure
// function of the residency map and is rebuilt on import, which also
// heals any counter drift. AppendState(nil) is the state on its own.
func (s *Server) AppendState(dst []byte) []byte {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(now)

	out := append(dst, stateMagic[:]...)
	out = append(out, stateVersion)
	out = binary.BigEndian.AppendUint64(out, s.generation)
	out = appendStampMap(out, s.expiry)
	out = appendStampMap(out, s.inSketch)
	return out
}

// appendStampMap encodes a key→instant map with sorted keys.
func appendStampMap(out []byte, m map[string]time.Time) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.BigEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		out = binary.BigEndian.AppendUint64(out, uint64(m[k].UnixNano()))
	}
	return out
}

// readStampMap decodes one appendStampMap section, advancing *off.
func readStampMap(data []byte, off *int) (map[string]time.Time, error) {
	if len(data)-*off < 4 {
		return nil, errors.New("cachesketch: truncated state map header")
	}
	n := int(binary.BigEndian.Uint32(data[*off:]))
	*off += 4
	m := make(map[string]time.Time, n)
	for i := 0; i < n; i++ {
		if len(data)-*off < 4 {
			return nil, errors.New("cachesketch: truncated state key header")
		}
		klen := int(binary.BigEndian.Uint32(data[*off:]))
		*off += 4
		if klen < 0 || len(data)-*off < klen+8 {
			return nil, errors.New("cachesketch: truncated state entry")
		}
		key := string(data[*off : *off+klen])
		*off += klen
		m[key] = time.Unix(0, int64(binary.BigEndian.Uint64(data[*off:])))
		*off += 8
	}
	return m, nil
}

// ImportState replaces the server's coherence state with a previously
// exported blob: the maps are restored, the counting filter is rebuilt by
// inserting each resident key exactly once, the removal schedule is
// re-derived, and the flatten cache is dropped so the next Snapshot
// projects the imported contents.
func (s *Server) ImportState(data []byte) error {
	if len(data) < 13 || [4]byte(data[0:4]) != stateMagic {
		return errors.New("cachesketch: bad state magic")
	}
	if data[4] != stateVersion {
		return fmt.Errorf("cachesketch: unsupported state version %d", data[4])
	}
	gen := binary.BigEndian.Uint64(data[5:13])
	off := 13
	expiry, err := readStampMap(data, &off)
	if err != nil {
		return err
	}
	inSketch, err := readStampMap(data, &off)
	if err != nil {
		return err
	}
	if off != len(data) {
		return errors.New("cachesketch: trailing bytes in state blob")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.generation = gen
	s.journaledGen = 0
	s.expiry = expiry
	s.inSketch = inSketch
	s.counting.Clear()
	s.removals = s.removals[:0]
	for k, until := range inSketch {
		s.counting.Add(k)
		s.removals = append(s.removals, expiryEvent{when: until, key: k, kind: evictSketch})
	}
	for k, exp := range expiry {
		s.removals = append(s.removals, expiryEvent{when: exp, key: k, kind: cleanTable})
	}
	heap.Init(&s.removals)
	s.flat.Store(nil)
	return nil
}

// Reset returns the server to its just-constructed state: empty maps,
// cleared filter, generation zero, and a newly drawn epoch. Recovery
// calls it before applying a snapshot — the crash model is that the
// previous incarnation's memory is gone — and hands the old epoch back
// (SetEpoch) only when the log proves nothing was lost.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setEpochLocked(NewEpoch())
	s.counting.Clear()
	s.expiry = make(map[string]time.Time)
	s.inSketch = make(map[string]time.Time)
	s.removals = s.removals[:0]
	s.generation = 0
	s.journaledGen = 0
	s.flat.Store(nil)
}

// EnsureGeneration raises the generation to at least min. Recovery calls
// it when it continues an epoch, so the restarted server's snapshots are
// never rejected by clients that installed a higher generation of that
// epoch: within one epoch Install keeps the newest (generation, TakenAt)
// pair, so a regressed generation would leave every connected client
// refusing refreshes until evictions caught up.
func (s *Server) EnsureGeneration(min uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.generation < min {
		s.generation = min
		s.flat.Store(nil)
	}
}
