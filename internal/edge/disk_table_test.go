package edge

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/wal/waltest"
)

// tierOwner drives a diskTier through waltest's scripts. An item is an
// entry with a 300 kB body, so three fill a (1 MiB) segment.
type tierOwner struct {
	d   *diskTier
	mem *cache.Store
}

func itemKey(n int) string { return fmt.Sprintf("/item/%04d", n) }

var itemBody = []byte(strings.Repeat("x", 300_000))

func (o tierOwner) Put(n int) {
	e := cache.Entry{Key: itemKey(n), Body: itemBody, Version: 1}
	o.mem.Put(e)
	o.d.appendFill(e)
}

func (o tierOwner) Checkpoint() error {
	o.d.mu.Lock()
	defer o.d.mu.Unlock()
	_, err := o.d.log.Checkpoint(o.d.export)
	return err
}

func (o tierOwner) Close() error { return o.d.close() }

// TestDiskTierRecoveryTable runs the snapshotted log's recovery matrix
// through the disk tier. A hole in the history empties the cache, anything
// less recovers warm — and whatever was found, a purge and a fill
// journaled after the recovery are still a purge and a fill after a clean
// restart: an acknowledged purge is never undone.
func TestDiskTierRecoveryTable(t *testing.T) {
	for _, sc := range waltest.Scenarios {
		t.Run(sc.Row, func(t *testing.T) {
			dir := t.TempDir()
			clk := clock.NewSimulated(time.Unix(1000, 0))
			open := func(inj *faults.Injector) (tierOwner, RecoveryInfo) {
				mem := cache.New(cache.Config{Clock: clk})
				// The scripts place the checkpoints; the cadence never does.
				d, info, err := openDisk(dir, 1<<30, clk, inj, mem, new(metrics))
				if err != nil {
					t.Fatal(err)
				}
				return tierOwner{d, mem}, info
			}
			sc.Build(t, dir, func(inj *faults.Injector) waltest.Owner {
				o, _ := open(inj)
				return o
			})

			o, info := open(nil)
			if info.ColdStart != sc.Corrupt {
				t.Fatalf("ColdStart = %v on a row with Corrupt = %v: %+v", info.ColdStart, sc.Corrupt, info)
			}
			kept := sc.Items() - sc.Lost
			if sc.Corrupt {
				kept = 0
				if o.mem.Len() != 0 || info.Entries != 0 {
					t.Fatalf("a hole in the history left %d entries: %+v", o.mem.Len(), info)
				}
			} else if (info.SnapshotLSN != 0) != (sc.Checkpoint != 0) {
				t.Fatalf("SnapshotLSN = %d, row restores checkpoint %d", info.SnapshotLSN, sc.Checkpoint)
			}
			for n := 0; n < kept; n++ {
				if e, ok := o.mem.Peek(itemKey(n)); !ok || len(e.Body) != len(itemBody) {
					t.Fatalf("item %d: present %v, %d body bytes (%+v)", n, ok, len(e.Body), info)
				}
			}

			if kept > 0 {
				o.mem.Delete(itemKey(0))
				o.d.appendPurge(itemKey(0))
			}
			o.Put(1000)
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			o2, info2 := open(nil)
			defer o2.Close()
			if _, back := o2.mem.Peek(itemKey(0)); back {
				t.Fatalf("purged entry is back after a clean restart: %+v then %+v", info, info2)
			}
			if _, ok := o2.mem.Peek(itemKey(1000)); !ok || info2.ColdStart {
				t.Fatalf("entry filled after the recovery lost by a clean restart: %+v then %+v", info, info2)
			}
		})
	}
}
