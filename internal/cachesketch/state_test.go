package cachesketch

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"speedkit/internal/clock"
)

// buildServer populates a server with a mix of tracked, merely-cached,
// and untracked resources.
func buildServer(sim *clock.Simulated) *Server {
	s := NewServer(ServerConfig{Clock: sim})
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("/page/%02d", i)
		s.ReportCachedRead(key, sim.Now().Add(time.Duration(10+i)*time.Minute))
		if i%2 == 0 {
			s.ReportWrite(key) // tracked in the sketch
		}
		sim.Advance(time.Second)
	}
	return s
}

func TestServerStateRoundTrip(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	s := buildServer(sim)
	blob := s.AppendState(nil)

	s2 := NewServer(ServerConfig{Clock: sim})
	if err := s2.ImportState(blob); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	// Deterministic: re-export is byte-identical, and so is a repeat.
	if !bytes.Equal(blob, s2.AppendState(nil)) {
		t.Fatal("re-exported state differs")
	}
	if !bytes.Equal(s.AppendState(nil), s.AppendState(nil)) {
		t.Fatal("repeated export is not deterministic")
	}
	if s2.Generation() != s.Generation() {
		t.Fatalf("generation %d != %d", s2.Generation(), s.Generation())
	}
	// Tracked membership and snapshot bits survive exactly.
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("/page/%02d", i)
		if s.Contains(key) != s2.Contains(key) {
			t.Fatalf("%s: Contains diverged", key)
		}
	}
	b1, _ := s.Snapshot().Marshal()
	b2, _ := s2.Snapshot().Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot filters differ after import")
	}
	// Scheduled removals were rebuilt: advancing past every residency
	// empties both sketches identically.
	sim.Advance(3 * time.Hour)
	if got, want := s2.Stats().Tracked, s.Stats().Tracked; got != want || got != 0 {
		t.Fatalf("tracked after expiry: %d vs %d, want 0", got, want)
	}
}

func TestServerImportRejectsGarbage(t *testing.T) {
	s := NewServer(ServerConfig{})
	for _, blob := range [][]byte{nil, {9}, []byte("SKSSxxxxxxxxxxxx")} {
		if err := s.ImportState(blob); err == nil {
			t.Fatalf("ImportState(%v) accepted garbage", blob)
		}
	}
	sim := clock.NewSimulated(time.Time{})
	good := buildServer(sim).AppendState(nil)
	if err := s.ImportState(good[:len(good)-3]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := s.ImportState(append(good, 0)); err == nil {
		t.Fatal("oversized blob accepted")
	}
}

func TestResetClearsEverything(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	s := buildServer(sim)
	s.Reset()
	if s.Generation() != 0 {
		t.Fatalf("generation = %d after Reset", s.Generation())
	}
	st := s.Stats()
	if st.Tracked != 0 || st.TableSize != 0 {
		t.Fatalf("state survived Reset: %+v", st)
	}
	if snap := s.Snapshot(); snap.MightBeStale("/page/00") {
		t.Fatal("filter bits survived Reset")
	}
}

// TestJournalEmission pins which events journal: table extensions and
// tracked writes do, ignored reports and uncached writes do not.
func TestJournalEmission(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	j := &recordingJournal{}
	s := NewServer(ServerConfig{Clock: sim, Journal: j})

	s.ReportCachedRead("/a", sim.Now().Add(time.Hour))     // journals
	s.ReportCachedRead("/a", sim.Now().Add(time.Hour))     // same expiry: no
	s.ReportWrite("/a")                                    // tracked: journals
	s.ReportWrite("/uncached")                             // uncached: no
	s.ReportCachedRead("/past", sim.Now().Add(-time.Hour)) // ignored: no

	if got := j.reads; got != 1 {
		t.Fatalf("journaled reads = %d, want 1", got)
	}
	if got := j.writes; got != 1 {
		t.Fatalf("journaled writes = %d, want 1", got)
	}

	// Generations journal once per exposure, not per snapshot: the first
	// Snapshot logs the current generation, an unchanged repeat does not.
	s.Snapshot()
	s.Snapshot()
	if len(j.gens) != 1 || j.gens[0] != s.Generation() {
		t.Fatalf("journaled generations = %v, want [%d]", j.gens, s.Generation())
	}
}

type recordingJournal struct {
	reads, writes int
	gens          []uint64
}

func (r *recordingJournal) JournalCachedRead(string, time.Time) { r.reads++ }
func (r *recordingJournal) JournalWrite(string)                 { r.writes++ }
func (r *recordingJournal) JournalGeneration(gen uint64)        { r.gens = append(r.gens, gen) }
