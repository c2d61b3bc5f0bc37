package durable

import (
	"fmt"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/ttl"
	"speedkit/internal/wal/waltest"
)

// tableOwner drives a Store through waltest's scripts: an item is a
// tracked key, so each costs a cached-read and a write record (and the
// generation bumps between them).
type tableOwner struct{ h *harness }

func itemKey(n int) string { return fmt.Sprintf("/item/%04d", n) }

func (o tableOwner) Put(n int) {
	o.h.sketch.ReportCachedRead(itemKey(n), o.h.sim.Now().Add(time.Hour))
	o.h.sketch.ReportWrite(itemKey(n))
}
func (o tableOwner) Checkpoint() error { return o.h.store.Snapshot() }
func (o tableOwner) Close() error      { return o.h.store.Close() }

// TestRecoveryTable runs the snapshotted log's recovery matrix through the
// Store: each row's damage must come out as the trust decision it calls
// for, and whatever it was, what is journaled after the recovery survives
// a clean restart.
func TestRecoveryTable(t *testing.T) {
	for _, sc := range waltest.Scenarios {
		t.Run(sc.Row, func(t *testing.T) {
			dir := t.TempDir()
			open := func(inj *faults.Injector) (*harness, RecoveryInfo) {
				h := &harness{dir: dir, sim: clock.NewSimulated(time.Time{})}
				// Segments of a few records, so the scripts span several.
				h.store = New(Config{Dir: dir, Clock: h.sim, Faults: inj, SegmentMaxBytes: 256})
				h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: h.sim, Journal: h.store})
				h.est = ttl.NewEstimator(ttl.Config{Clock: h.sim})
				return h, h.recover(t)
			}
			sc.Build(t, dir, func(inj *faults.Injector) waltest.Owner {
				h, _ := open(inj)
				return tableOwner{h}
			})

			h, info := open(nil)
			if (info.Mode == ColdStart) != sc.Reseeded || (info.Mode == Fresh) != (sc.Script == nil) {
				t.Fatalf("Mode = %v (%+v), reseeded row: %v", info.Mode, info, sc.Reseeded)
			}
			// Anything but a sealed, whole log draws a new epoch; a
			// snapshot that does not read back is not the log's problem.
			if want := sc.Reseeded || sc.Truncated || sc.KillCheckpoint; info.NewEpoch != want {
				t.Fatalf("NewEpoch = %v, want %v (%+v)", info.NewEpoch, want, info)
			}
			if (info.SnapshotLSN != 0) != (sc.Checkpoint != 0) {
				t.Fatalf("SnapshotLSN = %d, row restores checkpoint %d", info.SnapshotLSN, sc.Checkpoint)
			}
			for n := 0; n < sc.Items()-sc.Lost; n++ {
				if !h.sketch.Contains(itemKey(n)) {
					t.Fatalf("item %d lost (%+v)", n, info)
				}
			}

			tableOwner{h}.Put(1000)
			if err := h.store.Close(); err != nil {
				t.Fatal(err)
			}
			h2, info2 := open(nil)
			if info2.NewEpoch || info2.Replayed == 0 || !h2.sketch.Contains(itemKey(1000)) {
				t.Fatalf("clean restart after the recovery: %+v, journaled item there = %v", info2, h2.sketch.Contains(itemKey(1000)))
			}
		})
	}
}
