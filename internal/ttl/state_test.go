package ttl

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"speedkit/internal/clock"
)

// buildEstimator produces an estimator with varied per-resource history.
func buildEstimator(sim *clock.Simulated) *Estimator {
	e := NewEstimator(Config{Clock: sim})
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("/res/%02d", i)
		for r := 0; r <= i%5; r++ {
			e.RecordRead(id)
			sim.Advance(time.Duration(1+i%7) * time.Second)
		}
		for w := 0; w <= i%3; w++ {
			e.RecordWrite(id)
			sim.Advance(time.Duration(2+i%11) * time.Second)
		}
	}
	return e
}

func TestEstimatorStateRoundTrip(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	e := buildEstimator(sim)

	blob := e.AppendState(nil)
	e2 := NewEstimator(Config{Clock: sim})
	if err := e2.ImportState(blob); err != nil {
		t.Fatalf("ImportState: %v", err)
	}

	// Deterministic round-trip: re-export is byte-identical.
	if !bytes.Equal(blob, e2.AppendState(nil)) {
		t.Fatal("re-exported state differs from original export")
	}
	// Exporting twice from the same estimator is also byte-identical
	// (sorted keys, no map-order leakage).
	if !bytes.Equal(e.AppendState(nil), e.AppendState(nil)) {
		t.Fatal("repeated export is not deterministic")
	}
	if e2.Tracked() != e.Tracked() {
		t.Fatalf("Tracked %d != %d", e2.Tracked(), e.Tracked())
	}
	// Behavioural equivalence: identical TTLs and rates everywhere.
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("/res/%02d", i)
		if e.TTL(id) != e2.TTL(id) {
			t.Fatalf("%s: TTL %v != %v", id, e.TTL(id), e2.TTL(id))
		}
		if e.WriteRate(id) != e2.WriteRate(id) {
			t.Fatalf("%s: WriteRate mismatch", id)
		}
		if e.ReadRate(id) != e2.ReadRate(id) {
			t.Fatalf("%s: ReadRate mismatch", id)
		}
		r1, w1, _ := e.Snapshot(id)
		r2, w2, _ := e2.Snapshot(id)
		if r1 != r2 || w1 != w2 {
			t.Fatalf("%s: counters (%d,%d) != (%d,%d)", id, r1, w1, r2, w2)
		}
	}
	// The EWMA chain continues seamlessly: the next observation updates
	// both estimators identically.
	sim.Advance(13 * time.Second)
	e.RecordWrite("/res/05")
	e2.RecordWrite("/res/05")
	if e.TTL("/res/05") != e2.TTL("/res/05") {
		t.Fatal("post-import observation diverged")
	}
}

func TestEstimatorImportRejectsGarbage(t *testing.T) {
	e := NewEstimator(Config{})
	for _, blob := range [][]byte{nil, {1, 2, 3}, []byte("SKTExxxxxxxx")} {
		if err := e.ImportState(blob); err == nil {
			t.Fatalf("ImportState(%v) accepted garbage", blob)
		}
	}
	// Truncated valid blob.
	sim := clock.NewSimulated(time.Time{})
	good := buildEstimator(sim).AppendState(nil)
	if err := e.ImportState(good[:len(good)-5]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

func TestEstimatorReset(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	e := buildEstimator(sim)
	if e.Tracked() == 0 {
		t.Fatal("setup produced no state")
	}
	e.Reset()
	if e.Tracked() != 0 {
		t.Fatalf("Tracked = %d after Reset", e.Tracked())
	}
}
