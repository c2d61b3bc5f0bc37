package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/ttl"
)

// harness bundles a store with the sketch/estimator pair it persists.
type harness struct {
	dir    string
	sim    *clock.Simulated
	store  *Store
	sketch *cachesketch.Server
	est    *ttl.Estimator
}

func newHarness(t testing.TB, dir string, inj *faults.Injector) *harness {
	t.Helper()
	h := &harness{dir: dir, sim: clock.NewSimulated(time.Time{})}
	h.store = New(Config{
		Dir:          dir,
		Clock:        h.sim,
		Faults:       inj,
		ColdWindow:   time.Minute,
		BlindHorizon: 10 * time.Minute,
	})
	h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: h.sim, Journal: h.store})
	h.est = ttl.NewEstimator(ttl.Config{Clock: h.sim})
	return h
}

func (h *harness) recover(t *testing.T) RecoveryInfo {
	t.Helper()
	info, err := h.store.Recover(h.sketch, h.est)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return info
}

// populate reports a cached read + write for n keys so each is tracked.
func (h *harness) populate(n int) {
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("/doc/%03d", i)
		h.sketch.ReportCachedRead(key, h.sim.Now().Add(time.Hour))
		h.sketch.ReportWrite(key)
	}
}

func TestFreshThenCleanRestartIsWarm(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	if info := h.recover(t); info.Mode != Fresh || info.Saturated {
		t.Fatalf("fresh dir: %+v", info)
	}
	h.populate(20)
	genBefore := h.sketch.Generation()
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if info.Mode != Replay {
		t.Fatalf("Mode = %v, want Replay", info.Mode)
	}
	if info.Saturated {
		t.Fatal("clean shutdown must not saturate")
	}
	if got := h2.sketch.Generation(); got != genBefore {
		t.Fatalf("generation = %d, want %d", got, genBefore)
	}
	for i := 0; i < 20; i++ {
		if !h2.sketch.Contains(fmt.Sprintf("/doc/%03d", i)) {
			t.Fatalf("key %d lost across clean restart", i)
		}
	}
	if h2.sketch.ColdStartActive() {
		t.Fatal("cold start active after clean restart")
	}
}

func TestSnapshotReplayAndPrune(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(30)
	if err := h.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail.
	h.sketch.ReportCachedRead("/tail/a", h.sim.Now().Add(time.Hour))
	h.sketch.ReportWrite("/tail/a")
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if info.Mode != Replay || info.Saturated {
		t.Fatalf("info = %+v, want clean replay over snapshot", info)
	}
	if info.SnapshotLSN == 0 {
		t.Fatal("snapshot not found")
	}
	if !h2.sketch.Contains("/tail/a") || !h2.sketch.Contains("/doc/000") {
		t.Fatal("state lost across snapshot+replay restart")
	}
	if h2.sketch.Generation() != h.sketch.Generation() {
		t.Fatalf("generation %d != %d", h2.sketch.Generation(), h.sketch.Generation())
	}
}

func TestUncleanShutdownSaturates(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(10)
	// Force the journal to disk, then "kill" the process: no Close, no
	// clean-shutdown marker.
	if err := h.store.Sync(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if !info.Saturated {
		t.Fatal("unclean shutdown must saturate")
	}
	if !h2.sketch.ColdStartActive() {
		t.Fatal("cold-start window not active")
	}
	// Saturated sketch: everything reads as possibly stale.
	snap := h2.sketch.Snapshot()
	if !snap.MightBeStale("/never/seen") || !snap.MightBeStale("/doc/000") {
		t.Fatal("cold-start snapshot is not saturated")
	}
	// Blind window: a write to a resource with no expiry entry is still
	// tracked conservatively.
	if !h2.sketch.ReportWrite("/unknown/key") {
		t.Fatal("blind window did not track unknown write")
	}
	genCold := h2.sketch.Generation()
	// After the window the real (replayed) sketch returns.
	h2.sim.Advance(2 * time.Minute)
	if h2.sketch.ColdStartActive() {
		t.Fatal("cold window did not retire")
	}
	if h2.sketch.Generation() == genCold {
		t.Fatal("generation did not advance on cold-window exit")
	}
	snap = h2.sketch.Snapshot()
	if snap.MightBeStale("/definitely/never/seen/anywhere") {
		t.Fatal("sketch still saturated after window")
	}
	if !snap.MightBeStale("/doc/003") {
		t.Fatal("replayed key lost after cold window")
	}
}

// TestLostUnsyncedSuffixIsNotClean pins the open-marker defence: when an
// incarnation's entire unsynced output dies (power loss, or the injected
// fsync kill rolling the file back), the disk must NOT masquerade as the
// clean history the previous shutdown sealed — the fsynced open marker
// written at recovery is what voids the old clean marker.
func TestLostUnsyncedSuffixIsNotClean(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(5)
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	if info := h2.recover(t); info.Saturated {
		t.Fatalf("clean restart saturated: %+v", info)
	}
	// Everything synced so far (through the open marker) survives the
	// power loss below; record the segment sizes at this durable point.
	synced := segmentSizes(t, dir)
	// Acknowledged but never synced: the deferred fsync hasn't fired.
	h2.populate(3)

	// Power loss: roll every segment back to its durable size and drop
	// segments born after the cut.
	for name, size := range segmentSizes(t, dir) {
		durableSize, existed := synced[name]
		path := filepath.Join(dir, name)
		switch {
		case !existed:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		case durableSize < size:
			if err := os.Truncate(path, durableSize); err != nil {
				t.Fatal(err)
			}
		}
	}

	h3 := newHarness(t, dir, nil)
	info := h3.recover(t)
	if !info.Saturated {
		t.Fatalf("lost acknowledged suffix recovered as clean history: %+v", info)
	}
}

// segmentSizes maps WAL segment file names to their current sizes.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = fi.Size()
		}
	}
	return sizes
}

func TestInjectedCrashThenInPlaceRecovery(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	inj := faults.New(sim, 42, faults.Rule{Component: faults.WALAppend, Kind: faults.Crash, Probability: 0.05})
	h := newHarness(t, dir, inj)
	h.sim = sim // share the injector's clock
	h.store = New(Config{Dir: dir, Clock: sim, Faults: inj, ColdWindow: time.Minute, BlindHorizon: 10 * time.Minute})
	h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h.store})
	h.est = ttl.NewEstimator(ttl.Config{Clock: sim})
	h.recover(t)

	var crashes int
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("/doc/%03d", i%50)
		h.sketch.ReportCachedRead(key, sim.Now().Add(time.Hour))
		h.sketch.ReportWrite(key)
		if h.store.Crashed() {
			crashes++
			info, err := h.store.Recover(h.sketch, h.est)
			if err != nil {
				t.Fatalf("in-place recovery: %v", err)
			}
			if !info.Saturated {
				t.Fatal("crash recovery must saturate")
			}
			sim.Advance(2 * time.Minute) // let the cold window pass
		}
	}
	if crashes == 0 {
		t.Fatal("injector never fired; test is vacuous")
	}
	if h.store.Crashed() {
		t.Fatal("store left crashed")
	}
	st := h.store.Stats()
	if st.Recoveries != uint64(crashes)+1 {
		t.Fatalf("Recoveries = %d, want %d", st.Recoveries, crashes+1)
	}
}

func TestCorruptMidLogFallsBackToColdStart(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	h := &harness{dir: dir, sim: sim}
	// Tiny segments so the log spans several files: damage in a non-final
	// segment is mid-log corruption, not a torn tail.
	cfg := Config{Dir: dir, Clock: sim, SegmentMaxBytes: 256, ColdWindow: time.Minute, BlindHorizon: 10 * time.Minute}
	h.store = New(cfg)
	h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h.store})
	h.est = ttl.NewEstimator(ttl.Config{Clock: sim})
	h.recover(t)
	h.populate(25)
	if err := h.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	h.populate(25) // tail past the snapshot
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want several segments, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := &harness{dir: dir, sim: sim}
	h2.store = New(cfg)
	h2.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h2.store})
	h2.est = ttl.NewEstimator(ttl.Config{Clock: sim})
	info := h2.recover(t)
	if info.Mode != ColdStart {
		t.Fatalf("Mode = %v, want ColdStart", info.Mode)
	}
	if !info.Saturated {
		t.Fatal("corrupt log must saturate")
	}
	// The snapshot still applied: its keys are present.
	if !h2.sketch.Contains("/doc/000") {
		t.Fatal("snapshot state lost in cold start")
	}
	// The wiped log must be appendable again.
	h2.sketch.ReportCachedRead("/after/corruption", h2.sim.Now().Add(time.Hour))
	if !h2.sketch.ReportWrite("/after/corruption") {
		t.Fatal("post-wipe write not tracked")
	}
	if h2.store.Crashed() {
		t.Fatal("store dead after corruption recovery")
	}
	if err := h2.store.Close(); err != nil {
		t.Fatal(err)
	}

	// The reseeded log's LSNs must sit above the retained snapshot's
	// coverage, or everything journaled by this incarnation — the clean
	// marker included — would be skipped at the next replay as
	// already-covered history.
	h3 := &harness{dir: dir, sim: sim}
	h3.store = New(cfg)
	h3.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h3.store})
	h3.est = ttl.NewEstimator(ttl.Config{Clock: sim})
	info = h3.recover(t)
	if info.Saturated {
		t.Fatalf("clean restart after corruption recovery saturated: %+v", info)
	}
	if info.Replayed == 0 {
		t.Fatal("post-corruption incarnation's records were not replayed")
	}
	if !h3.sketch.Contains("/after/corruption") {
		t.Fatal("state journaled after the wipe lost across clean restart")
	}
}

// TestTornTailInsideSnapshotThenCleanRestart pins the LSN-reuse data-loss
// bug: a torn tail that truncates the only segment back INSIDE the
// snapshot's coverage used to leave the log reissuing covered LSNs, so
// every record of the next incarnation — its clean-shutdown marker
// included — was silently skipped by later recoveries (Replayed=0,
// perpetually saturated, journaled state gone despite clean shutdowns).
func TestTornTailInsideSnapshotThenCleanRestart(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(30)
	if err := h.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want the one active segment, got %v (%v)", segs, err)
	}
	// Corrupt one byte of an early frame: the CRC failure makes Open
	// truncate the torn tail from there, far below the snapshot's LSN.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if info.Mode != ColdStart || !info.Saturated {
		t.Fatalf("truncation inside snapshot coverage: %+v, want saturated ColdStart", info)
	}
	if !h2.sketch.Contains("/doc/000") {
		t.Fatal("snapshot state lost")
	}
	// Journal fresh state in the recovered incarnation and seal it.
	h2.sketch.ReportCachedRead("/post/truncation", h2.sim.Now().Add(time.Hour))
	if !h2.sketch.ReportWrite("/post/truncation") {
		t.Fatal("post-truncation write not tracked")
	}
	if err := h2.store.Close(); err != nil {
		t.Fatal(err)
	}

	h3 := newHarness(t, dir, nil)
	info = h3.recover(t)
	if info.Saturated {
		t.Fatalf("clean shutdown recovered saturated: %+v", info)
	}
	if info.Replayed == 0 {
		t.Fatal("post-truncation incarnation's records were not replayed")
	}
	if !h3.sketch.Contains("/post/truncation") {
		t.Fatal("journaled state lost despite clean shutdown")
	}
}

// TestTornTailEveryOffset is the torn-write table test: the last record's
// frame is truncated at every byte offset and bit-flipped at every byte,
// and recovery must never panic, never report a clean warm start (which
// would under-report staleness), and always leave a usable store.
func TestTornTailEveryOffset(t *testing.T) {
	// Build a pristine log once, in a template dir.
	template := t.TempDir()
	h := newHarness(t, template, nil)
	h.recover(t)
	h.populate(8)
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(template, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	pristine, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])
	// The final record is the clean-shutdown marker: frame header (8) +
	// lsn (8) + 1 payload byte.
	const lastFrame = 17
	if len(pristine) < lastFrame {
		t.Fatalf("segment only %d bytes", len(pristine))
	}

	check := func(t *testing.T, mutated []byte, wantClean bool) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		h := newHarness(t, dir, nil)
		info := h.recover(t) // must not panic or error
		if wantClean && info.Saturated {
			t.Fatalf("untampered log saturated: %+v", info)
		}
		if !wantClean && !info.Saturated {
			t.Fatalf("tampered log recovered warm: %+v", info)
		}
		// The store must be fully usable either way.
		h.sketch.ReportCachedRead("/post/recovery", h.sim.Now().Add(time.Hour))
		if !h.sketch.ReportWrite("/post/recovery") {
			t.Fatal("store unusable after recovery")
		}
	}

	t.Run("pristine", func(t *testing.T) { check(t, pristine, true) })
	t.Run("truncate", func(t *testing.T) {
		for cut := len(pristine) - lastFrame; cut < len(pristine); cut++ {
			check(t, pristine[:cut], false)
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for off := len(pristine) - lastFrame; off < len(pristine); off++ {
			mutated := make([]byte, len(pristine))
			copy(mutated, pristine)
			mutated[off] ^= 0x40
			check(t, mutated, false)
		}
	})
}

func TestSnapshotCrashLeavesTornTempOnly(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	inj := faults.New(sim, 1, faults.Rule{Component: faults.SnapshotWrite, Kind: faults.Crash, Probability: 1})
	h := &harness{dir: dir, sim: sim}
	h.store = New(Config{Dir: dir, Clock: sim, Faults: inj, ColdWindow: time.Minute})
	h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h.store})
	h.est = ttl.NewEstimator(ttl.Config{Clock: sim})
	h.recover(t)
	h.populate(10)
	if err := h.store.Snapshot(); !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	if !h.store.Crashed() {
		t.Fatal("store not marked crashed")
	}
	// No completed snapshot may exist; at most a torn temp file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			t.Fatalf("completed snapshot %s exists after crash", e.Name())
		}
	}
	// Recovery ignores the torn temp and saturates (unclean shutdown).
	info, err := h.store.Recover(h.sketch, h.est)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Saturated {
		t.Fatal("post-snapshot-crash recovery must saturate")
	}
	if !h.sketch.Contains("/doc/000") {
		t.Fatal("journaled state lost")
	}
}

// TestWholeLogTornToEmptySaturates pins the first-frame damage case: when
// the torn-tail truncation swallows every record (no snapshot yet), the
// recovery must NOT classify the directory as a fresh deployment and come
// up warm — segments that held bytes but yielded nothing are destroyed
// history, and only the saturation window preserves Δ over it.
func TestWholeLogTornToEmptySaturates(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(5)
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	// Damage the very first frame: the CRC failure makes the torn-tail
	// scan truncate from offset 0, leaving an empty segment.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if info.Mode != ColdStart || !info.Saturated {
		t.Fatalf("whole-log loss recovered as %+v, want saturated ColdStart", info)
	}
	// The store keeps working and a clean shutdown recovers warm.
	h2.sketch.ReportCachedRead("/rebuilt", h2.sim.Now().Add(time.Hour))
	if !h2.sketch.ReportWrite("/rebuilt") {
		t.Fatal("post-loss write not tracked")
	}
	if err := h2.store.Close(); err != nil {
		t.Fatal(err)
	}
	h3 := newHarness(t, dir, nil)
	if info := h3.recover(t); info.Saturated || !h3.sketch.Contains("/rebuilt") {
		t.Fatalf("clean restart after rebuild: %+v, contains=%v", info, h3.sketch.Contains("/rebuilt"))
	}
}

// TestConcurrentSnapshotsCoalesce hammers Snapshot from many goroutines:
// exactly one writer may own the temp file at a time (interleaved writes
// would fail the CRC and poison recovery), and losers must coalesce.
func TestConcurrentSnapshotsCoalesce(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir, nil)
	h.recover(t)
	h.populate(50)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- h.store.Snapshot()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Snapshot: %v", err)
		}
	}
	if err := h.store.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, dir, nil)
	info := h2.recover(t)
	if info.Saturated || info.SnapshotLSN == 0 {
		t.Fatalf("info = %+v, want clean recovery from a snapshot", info)
	}
	if !h2.sketch.Contains("/doc/049") {
		t.Fatal("state lost across snapshot recovery")
	}
}

func TestShouldSnapshotTrigger(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(time.Time{})
	h := &harness{dir: dir, sim: sim}
	h.store = New(Config{Dir: dir, Clock: sim, SnapshotEvery: 10, ColdWindow: time.Minute})
	h.sketch = cachesketch.NewServer(cachesketch.ServerConfig{Clock: sim, Journal: h.store})
	h.recover(t)
	if h.store.ShouldSnapshot() {
		t.Fatal("fresh store wants a snapshot")
	}
	h.populate(10) // 20 journal records
	if !h.store.ShouldSnapshot() {
		t.Fatal("trigger did not fire")
	}
	if err := h.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if h.store.ShouldSnapshot() {
		t.Fatal("trigger not reset by snapshot")
	}
}

// TestJournalRecordsDoNotAllocate: every record type encodes into the
// store's scratch buffer, and the log copies it into its frame buffer, so
// journaling allocates nothing once that buffer has grown.
func TestJournalRecordsDoNotAllocate(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	h := newHarness(t, t.TempDir(), nil)
	h.recover(t)
	defer h.store.Close()
	expires := h.sim.Now().Add(time.Hour)
	for name, journal := range map[string]func(){
		"cached read": func() { h.store.JournalCachedRead("/doc/001", expires) },
		"write":       func() { h.store.JournalWrite("/doc/001") },
		"generation":  func() { h.store.JournalGeneration(7) },
		"open and epoch": func() {
			h.store.mu.Lock()
			h.store.sealOpenLocked(7)
			h.store.mu.Unlock()
		},
	} {
		journal() // grows the scratch buffer and the log's frame buffer
		if n := testing.AllocsPerRun(200, journal); n != 0 {
			t.Errorf("journaling a %s record allocates %.1f per record, want 0", name, n)
		}
	}
	if h.store.Crashed() {
		t.Fatal("store crashed while journaling")
	}
}

// raceEnabled reports whether the test binary was built with the race
// detector: its instrumentation adds allocations (sync.Pool drops items at
// random), so allocation pins hold only without it.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
