package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"speedkit/internal/faults"
	"speedkit/internal/gdpr"
	"speedkit/internal/session"
)

// crashConfig is the crash-smoke profile: a Speed Kit deployment with the
// durability subsystem enabled and seed-driven process kills on the WAL
// append/fsync and snapshot-write paths.
func crashConfig(seed int64, dir string) FieldConfig {
	return FieldConfig{
		Mode:          ModeSpeedKit,
		Seed:          seed,
		Ops:           5000,
		Users:         30,
		Products:      100,
		Delta:         30 * time.Second,
		FaultRules:    faults.CrashRules(0.004),
		DataDir:       dir,
		SnapshotEvery: 64,
	}
}

// TestCrashRecoveryPreservesDelta is the heart of the crash gate: injected
// kills tear the WAL mid-write, every kill is recovered in place (the
// in-process restart), and no connected load ever exceeds Δ — the new
// sketch epoch after each unclean recovery is what makes that hold with
// lost coherence history: every holder, the server's CDN tier included,
// revalidates its older copies once.
func TestCrashRecoveryPreservesDelta(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		cfg := crashConfig(seed, t.TempDir())
		res, err := RunField(cfg)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if res.Crashes == 0 {
			t.Fatalf("seed=%d: no crashes injected — vacuous recovery gate", seed)
		}
		if res.Loads == 0 {
			t.Fatalf("seed=%d: nothing served", seed)
		}
		if res.MaxStaleness > cfg.Delta {
			t.Fatalf("seed=%d: connected staleness %v exceeds Δ=%v after %d crashes",
				seed, res.MaxStaleness, cfg.Delta, res.Crashes)
		}
		// Startup on an empty dir is Fresh; every in-run recovery replays
		// or cold-starts and none may report a clean history.
		if res.Recovery.Mode != 0 || res.RecoveryModes["fresh"] != 1 {
			t.Fatalf("seed=%d: startup recovery = %+v, modes %v", seed, res.Recovery, res.RecoveryModes)
		}
		var inRun uint64
		for mode, n := range res.RecoveryModes {
			if mode != "fresh" {
				inRun += n
			}
		}
		if inRun != res.Crashes {
			t.Fatalf("seed=%d: %d crashes but %d in-run recoveries (%v)",
				seed, res.Crashes, inRun, res.RecoveryModes)
		}
		if res.DurableStats.Recoveries != res.Crashes+1 {
			t.Fatalf("seed=%d: store counted %d recoveries, want %d",
				seed, res.DurableStats.Recoveries, res.Crashes+1)
		}
	}
}

// TestCrashTwinRunsConverge pins the determinism half of the gate: two
// runs with the same seed over separate data directories inject the same
// kill schedule and recover to identical coherence state — byte-identical
// sketch exports and equal generations.
func TestCrashTwinRunsConverge(t *testing.T) {
	r1, err := RunField(crashConfig(7, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunField(crashConfig(7, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Crashes == 0 {
		t.Fatal("no crashes injected — vacuous determinism")
	}
	if h1, h2 := r1.Faults.ScheduleHash(), r2.Faults.ScheduleHash(); h1 != h2 {
		t.Fatalf("fault schedules diverged: %x vs %x", h1, h2)
	}
	if r1.Crashes != r2.Crashes || r1.Loads != r2.Loads {
		t.Fatalf("run outcomes diverged: crashes %d/%d loads %d/%d",
			r1.Crashes, r2.Crashes, r1.Loads, r2.Loads)
	}
	g1 := r1.Service.SketchServer().Generation()
	g2 := r2.Service.SketchServer().Generation()
	if g1 != g2 {
		t.Fatalf("twin runs recovered to generations %d vs %d", g1, g2)
	}
	s1 := r1.Service.SketchServer().AppendState(nil)
	s2 := r2.Service.SketchServer().AppendState(nil)
	if !bytes.Equal(s1, s2) {
		t.Fatal("twin runs recovered to different sketch states")
	}
}

// TestCrashRestartAcrossRuns exercises the cross-process path: a cleanly
// shut-down run leaves a directory a second run restarts from warm — the
// same epoch, Δ still held.
func TestCrashRestartAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(5, dir)
	cfg.FaultRules = nil // run 1: durable but fault-free, clean shutdown
	r1, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Crashes != 0 || r1.DurableStats.WAL.Appends == 0 {
		t.Fatalf("run 1: crashes=%d appends=%d", r1.Crashes, r1.DurableStats.WAL.Appends)
	}
	r2, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Recovery.Mode.String() == "fresh" {
		t.Fatal("run 2 found no persisted state")
	}
	if r2.Recovery.NewEpoch {
		t.Fatal("clean shutdown recovered under a new epoch — clean marker lost")
	}
	if r2.MaxStaleness > cfg.Delta {
		t.Fatalf("run 2 staleness %v exceeds Δ=%v", r2.MaxStaleness, cfg.Delta)
	}
}

// TestNoPIIPersisted is the GDPR half of the gate: after a crash-laden
// run with logged-in, consenting users, nothing identity-bearing may sit
// in the WAL segments or snapshots — no PII field name and no concrete
// user identity (ID, name, email) from the simulated population.
func TestNoPIIPersisted(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(3, dir)
	res, err := RunField(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("no crashes injected — scan would miss torn-write paths")
	}

	var segs, snaps int
	var persisted []byte
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".seg"):
			segs++
		case strings.HasSuffix(path, ".snap"):
			snaps++
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		persisted = append(persisted, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 || snaps == 0 {
		t.Fatalf("scan is not covering both artifact kinds: %d segments, %d snapshots", segs, snaps)
	}

	for _, field := range gdpr.PIIFields() {
		// Two-letter names ("ip") collide with random binary bytes far too
		// often to scan for; every other canonical PII field name is long
		// enough that a hit means real leakage, not chance.
		if len(field) < 4 {
			continue
		}
		if bytes.Contains(persisted, []byte(field)) {
			t.Errorf("PII field name %q found in persisted bytes", field)
		}
	}
	for _, u := range session.Population(cfg.Seed, cfg.Users) {
		for _, val := range []string{u.ID, u.Name, u.Email} {
			if val != "" && bytes.Contains(persisted, []byte(val)) {
				t.Errorf("user identity %q found in persisted bytes", val)
			}
		}
	}
}
