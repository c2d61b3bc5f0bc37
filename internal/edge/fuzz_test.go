package edge

import (
	"bytes"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
)

// FuzzEdgeDiskRecord feeds the disk tier's decoders what a damaged or
// foreign cache directory could hold: the same bytes as an encoded entry,
// as a journal record (fill, purge, epoch mark or an unknown type) and as
// a snapshot payload. Whatever arrives: no panic, and nothing sized on a
// count the bytes do not back. What is accepted round-trips: an entry
// encodes to bytes that decode to it again, an epoch record re-encodes to
// itself, and the state a record or a snapshot leaves behind checkpoints
// into a snapshot that restores to the same state. The restart path
// resumes the edge's sketch holder from the mark these decoders recover.
func FuzzEdgeDiskRecord(f *testing.F) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	newMem := func() *cache.Store { return cache.New(cache.Config{MaxItems: 64, Clock: clk}) }
	e := cache.Entry{
		Key:       "/product/p00042",
		Body:      []byte("the body bytes"),
		Version:   7,
		StoredAt:  time.Unix(1000, 42),
		ExpiresAt: time.Unix(2000, 7),
		Metadata:  map[string]string{metaGen: "9", metaContentType: "text/html"},
	}
	mark := epochMark{epoch: 0xabcdef, since: time.Unix(999, 5)}
	enc := encodeEntry(e)
	f.Add(enc)
	f.Add(append([]byte{recFill}, enc...))
	f.Add(append([]byte{recPurge}, e.Key...))
	f.Add(appendMark([]byte{recEpoch}, mark))
	f.Add(appendMark([]byte{recEpoch}, epochMark{epoch: 1}))
	mem := newMem()
	mem.Put(e)
	f.Add((&diskTier{mem: mem, mark: &mark}).export())
	f.Add((&diskTier{mem: mem}).export())
	f.Add([]byte{})
	f.Add([]byte{9})

	// checkpoint is what a snapshot of mem and mark holds.
	checkpoint := func(mem *cache.Store, mark *epochMark) []byte {
		return (&diskTier{mem: mem, mark: mark}).export()
	}
	// roundTrip asserts that the state mem and mark hold survives a
	// checkpoint and a restore unchanged.
	roundTrip := func(t *testing.T, as string, mem *cache.Store, mark *epochMark) {
		t.Helper()
		snap := checkpoint(mem, mark)
		again := newMem()
		var againMark *epochMark
		if err := restoreSnapshot(snap, again, &againMark); err != nil {
			t.Fatalf("%s: the checkpoint of what it decoded does not restore: %v", as, err)
		}
		if got := checkpoint(again, againMark); !bytes.Equal(got, snap) {
			t.Fatalf("%s: restored state checkpoints to %x, want %x", as, got, snap)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if e, ok := decodeEntry(b); ok {
			reenc := encodeEntry(e)
			again, ok := decodeEntry(reenc)
			if !ok || !bytes.Equal(encodeEntry(again), reenc) {
				t.Fatalf("entry %+v does not round-trip", e)
			}
		}

		mem := newMem()
		var m *epochMark
		if err := replayRecord(b, mem, &m); err == nil {
			if b[0] == recEpoch && (m == nil || !bytes.Equal(appendMark([]byte{recEpoch}, *m), b)) {
				t.Fatalf("epoch record %x read back as %+v", b, m)
			}
			roundTrip(t, "record", mem, m)
		}

		mem, m = newMem(), nil
		if err := restoreSnapshot(b, mem, &m); err == nil {
			roundTrip(t, "snapshot", mem, m)
		}
	})
}
