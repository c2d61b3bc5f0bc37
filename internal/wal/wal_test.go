package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/faults"
)

// collect returns Options wired to gather replayed records into the
// returned map, keyed by LSN.
func collect(dir string, got *map[uint64]string) Options {
	*got = make(map[uint64]string)
	return Options{
		Dir:   dir,
		Clock: clock.NewSimulated(time.Time{}),
		OnRecord: func(lsn uint64, payload []byte) {
			(*got)[lsn] = string(payload)
		},
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("lsn = %d, want %d", lsn, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("lsn %d: payload %q", i+1, got[uint64(i+1)])
		}
	}
	if next := l2.NextLSN(); next != n+1 {
		t.Fatalf("NextLSN = %d, want %d", next, n+1)
	}
	// Appends continue the LSN chain after reopen.
	lsn, err := l2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, n+1)
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentMaxBytes: 128, Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rotate-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want several at 128-byte rotation", st.Segments)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
	removed, err := l.PruneBelow(l.NextLSN() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("prune removed nothing")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The surviving tail still replays cleanly, starting past the prune.
	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) == 0 {
		t.Fatal("no records survived pruning")
	}
	for lsn := range got {
		if got[lsn] != fmt.Sprintf("rotate-%02d", lsn-1) {
			t.Fatalf("lsn %d: payload %q", lsn, got[lsn])
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("solid")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a mid-write kill: garbage half-frame at the tail.
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer l2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
	if l2.Stats().TruncatedBytes != 3 {
		t.Fatalf("TruncatedBytes = %d, want 3", l2.Stats().TruncatedBytes)
	}
	if l2.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", l2.NextLSN())
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentMaxBytes: 96, Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("payload-xx")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("test needs multiple segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST segment: damage with intact records
	// after it is corruption, not a torn tail.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+lsnBytes] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(collect(dir, new(map[uint64]string)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestMissingMiddleSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentMaxBytes: 96, Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("payload-xx")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatal("test needs at least three segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose a middle segment whole: every frame in the survivors is intact,
	// so only the cross-segment LSN chain can expose the gap.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[len(segs)/2]); err != nil {
		t.Fatal(err)
	}

	_, err = Open(collect(dir, new(map[uint64]string)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for a missing middle segment", err)
	}
}

func TestFirstLSNSeedsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Clock: clock.NewSimulated(time.Time{}), FirstLSN: 42})
	if err != nil {
		t.Fatal(err)
	}
	if l.NextLSN() != 42 {
		t.Fatalf("NextLSN = %d, want 42", l.NextLSN())
	}
	lsn, err := l.Append([]byte("seeded"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("first seeded lsn = %d, want 42", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A plain reopen replays from the seeded position.
	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatal(err)
	}
	if got[42] != "seeded" || l2.NextLSN() != 43 {
		t.Fatalf("replay = %v, NextLSN = %d", got, l2.NextLSN())
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Seeding past a log that still holds records is refused: it would
	// punch an LSN-chain gap into a live segment.
	if _, err := Open(Options{Dir: dir, Clock: clock.NewSimulated(time.Time{}), FirstLSN: 100}); err == nil {
		t.Fatal("FirstLSN past existing records must refuse to open")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	sim := clock.NewSimulated(time.Time{})
	l, err := Open(Options{Dir: t.TempDir(), Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Simulated time never advances, so only the count threshold fires.
	for i := 0; i < 4*syncEvery; i++ {
		if _, err := l.Append([]byte("batched")); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Fsyncs != 4 {
		t.Fatalf("Fsyncs = %d, want 4 (%d appends / one fsync per %d)", st.Fsyncs, 4*syncEvery, syncEvery)
	}
	// The window fires the next append's fsync once time passes.
	sim.Advance(syncWindow)
	if _, err := l.Append([]byte("windowed")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != 5 {
		t.Fatalf("Fsyncs after window = %d, want 5", got)
	}
}

func TestInjectedAppendCrashLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	// Crash on the 4th append (burst-free single rule with p=1 would kill
	// the first; use a window keyed off simulated time instead: simpler to
	// crash deterministically by probability 1 after three good appends on
	// a second injector).
	inj := faults.New(sim, 1, faults.Rule{Component: faults.WALAppend, Kind: faults.Crash, Probability: 1})
	l, err := Open(Options{Dir: dir, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Swap in the crashing injector mid-flight.
	l.mu.Lock()
	l.opts.Faults = inj
	l.mu.Unlock()
	_, err = l.Append([]byte("doomed"))
	if !errors.Is(err, faults.ErrCrash) || !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrash and ErrCrashed", err)
	}
	if !l.Crashed() {
		t.Fatal("log not marked crashed")
	}
	if _, err := l.Append([]byte("refused")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append err = %v, want ErrCrashed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatalf("recovery after injected crash: %v", err)
	}
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 synced ones", len(got))
	}
}

func TestInjectedFsyncCrashPreservesAckedRecords(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	l, err := Open(Options{Dir: dir, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("synced")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Three more acknowledged appends whose fsync will draw the kill.
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("acked-not-synced")); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	l.opts.Faults = faults.New(sim, 1, faults.Rule{Component: faults.WALFsync, Kind: faults.Crash, Probability: 1})
	l.mu.Unlock()
	if err := l.Sync(); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	if !l.Crashed() {
		t.Fatal("log not marked crashed")
	}
	if _, err := l.Append([]byte("refused")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append err = %v, want ErrCrashed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got map[uint64]string
	l2, err := Open(collect(dir, &got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Every acknowledged append survives: acknowledgement means the frame
	// reached the OS file, and an injected crash models a process kill,
	// which loses nothing the kernel already holds. (Power loss — which
	// CAN drop the unsynced suffix — is modeled separately by truncating
	// segment files; see the durable-layer tests.)
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want all 5 acknowledged", len(got))
	}
}

// TestGroupCommitCrashPreservesEveryAckedAppend drives many concurrent
// appenders into a log whose injector will kill it mid-stream, then
// asserts the write-before-ack contract: recovery replays EVERY append
// that returned an LSN, and the kill tore at most the unacknowledged tail
// (the LSN chain is intact by construction, or Open would report
// ErrCorrupt). Each append is its own write, so BatchWrites equals
// Appends however many appenders race.
func TestGroupCommitCrashPreservesEveryAckedAppend(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		sim := clock.NewSimulated(time.Time{})
		inj := faults.New(sim, seed,
			faults.Rule{Component: faults.WALAppend, Kind: faults.Crash, Probability: 0.002},
			faults.Rule{Component: faults.WALFsync, Kind: faults.Crash, Probability: 0.02},
		)
		l, err := Open(Options{Dir: dir, Clock: sim, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}

		const appenders = 8
		var mu sync.Mutex
		acked := make(map[uint64]bool)
		var wg sync.WaitGroup
		for g := 0; g < appenders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				payload := []byte{byte('a' + g)}
				for i := 0; i < 500; i++ {
					lsn, err := l.Append(payload)
					if err != nil {
						return
					}
					mu.Lock()
					acked[lsn] = true
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if st := l.Stats(); st.BatchWrites != st.Appends {
			t.Fatalf("seed %d: BatchWrites = %d, want Appends = %d", seed, st.BatchWrites, st.Appends)
		}
		if !l.Crashed() {
			// This seed never drew a crash; the invariant holds trivially.
			l.Close()
			continue
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		replayed := make(map[uint64]bool)
		l2, err := Open(Options{Dir: dir, Clock: sim, OnRecord: func(lsn uint64, payload []byte) {
			replayed[lsn] = true
		}})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		l2.Close()
		for lsn := range acked {
			if !replayed[lsn] {
				t.Fatalf("seed %d: acknowledged lsn %d lost by recovery", seed, lsn)
			}
		}
	}
}

func TestEmptyDirOpensFresh(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Clock: clock.NewSimulated(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextLSN() != 1 {
		t.Fatalf("NextLSN = %d, want 1", l.NextLSN())
	}
	if st := l.Stats(); st.Replayed != 0 || st.Segments != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
}
