package durable

import (
	"bytes"
	"testing"
	"time"
)

// FuzzJournalRecord feeds the journal decoder what a damaged or foreign
// WAL could hold. Whatever arrives: no panic, and no key longer than the
// bytes that carry it. What is accepted re-encodes through the journal
// encoders to exactly the bytes it came from — the reserved watermark
// type included, which reads as a u64 record like a generation or an
// epoch.
func FuzzJournalRecord(f *testing.F) {
	expires := time.Unix(1000, 42)
	for _, r := range []record{
		{typ: recCachedRead, key: "/product/p00042", expiresAt: expires},
		{typ: recCachedRead, expiresAt: time.Unix(0, -1)},
		{typ: recWrite, key: "/product/p00042"},
		{typ: recWrite},
		{typ: recWatermark, seq: 7},
		{typ: recClean},
		{typ: recGeneration, seq: 1 << 40},
		{typ: recOpen},
		{typ: recEpoch, seq: 0xabcdef},
	} {
		f.Add(encodeRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Add([]byte{recWrite, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err != nil {
			return
		}
		if len(r.key) >= len(b) {
			t.Fatalf("record %x decoded a %d-byte key", b, len(r.key))
		}
		if got := encodeRecord(nil, r); !bytes.Equal(got, b) {
			t.Fatalf("record %x re-encodes to %x", b, got)
		}
	})
}
