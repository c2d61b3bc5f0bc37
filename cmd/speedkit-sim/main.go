// Command speedkit-sim runs one deployment simulation with explicit
// parameters and prints the full measurement report — the exploratory
// companion to speedkit-bench's fixed experiment suite.
//
// Usage:
//
//	speedkit-sim -mode speedkit -ops 50000 -writes 0.05 -delta 30s
//	speedkit-sim -mode ttl-only -ops 50000 -writes 0.05
//	speedkit-sim -mode direct -diurnal -ops 100000
//	speedkit-sim -chaos -ops 30000 -seed 7
//
// -chaos installs the deterministic fault-injection profile over every
// transport and pipeline hop, runs the deployment twice on the same
// seed, and asserts the resilience invariants: identical fault
// schedules across runs, every served page Δ-atomic, injected fault
// rates on the sketch and origin paths at or above the profile floor,
// and no leaked goroutines. Violations exit non-zero, so `make chaos`
// is a CI gate, not a demo.
//
// -crash enables the durability subsystem over a scratch directory and
// installs seed-driven process kills on the WAL append/fsync and
// snapshot-write paths; each kill tears the log mid-write and is
// recovered in place. The gate runs the deployment twice on the same
// seed over separate directories and asserts: kills actually fired,
// every connected load stayed within Δ through every crash, the twin
// runs recovered to identical sketch generations and byte-identical
// exported state, and nothing identity-bearing (PII field names,
// simulated user IDs/names/emails) sits in any persisted byte.
// Violations exit non-zero, so `make crash` is a CI gate too.
//
// -stitch runs the two-process tracing gate: a device proxy and a
// server with independent seeded tracers, joined only by real HTTP over
// a loopback listener. One page load and one write must each produce a
// single stitched trace — device and server spans sharing a trace ID
// propagated via the W3C traceparent header, with correct causal
// parentage through to the invalidation pipeline — and twin runs on the
// same seed must export byte-identical trace JSON. `make stitch`.
//
// -edge runs the edge smoke gate: a real speedkit-server and a speedkit
// edge proxy joined only by loopback HTTP. A 100-client stampede on one
// cold path must reach the origin exactly once; a backend write must
// flow through the invalidation pipeline to an edge purge; a seed-pinned
// kill torn into the disk tier's WAL append mid-fill must be recovered
// warm by an in-process restart serving byte-identical bodies without
// refetching; and no PII byte may appear in anything the edge
// persisted. `make edge`.
//
// -cluster runs the multi-node smoke gate: a 3-node coordinator-free
// deployment — per-node shard sketches over per-node WAL directories,
// delta exchange pulled over real loopback HTTP — driven on one shared
// simulated clock with seeded node kills and exchange partitions.
// Sharded invalidation matching must equal a single unsharded engine;
// every cache serve must stay within Δ of its first acknowledged write
// through every kill and partition; twin seeded runs must export
// byte-identical merged sketches; no raw identity may reach a node's
// persisted bytes; no goroutine may leak. `make cluster`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"speedkit/internal/bench"
	"speedkit/internal/clock"
	"speedkit/internal/faults"
	"speedkit/internal/gdpr"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/workload"
)

func parseMode(s string) (bench.ClientMode, error) {
	switch s {
	case "speedkit":
		return bench.ModeSpeedKit, nil
	case "direct":
		return bench.ModeDirect, nil
	case "legacy", "legacy-cdn":
		return bench.ModeLegacy, nil
	case "ttl-only", "ttlonly":
		return bench.ModeTTLOnly, nil
	}
	return 0, fmt.Errorf("unknown mode %q (speedkit|direct|legacy|ttl-only)", s)
}

func main() {
	mode := flag.String("mode", "speedkit", "client mode: speedkit|direct|legacy|ttl-only")
	ops := flag.Int("ops", 20000, "workload operations")
	users := flag.Int("users", 90, "device population")
	products := flag.Int("products", 500, "catalog size")
	writes := flag.Float64("writes", 0.02, "backend write fraction")
	delta := flag.Duration("delta", 60*time.Second, "staleness bound Δ")
	seed := flag.Int64("seed", 1, "deterministic seed")
	rate := flag.Float64("rate", 50, "mean workload ops per simulated second")
	diurnal := flag.Bool("diurnal", false, "day/night load curve")
	bounce := flag.Bool("bounce", false, "bounce model (slow loads abort sessions)")
	record := flag.String("record", "", "write the generated workload trace to this file (JSON Lines)")
	replay := flag.String("replay", "", "replay a recorded workload trace instead of generating one")
	obsDump := flag.Bool("obs", true, "dump the metrics registry after the report")
	chaos := flag.Bool("chaos", false, "chaos mode: inject faults, run twice, assert resilience invariants")
	chaosRate := flag.Float64("chaosrate", 0.15, "chaos profile base fault rate")
	crash := flag.Bool("crash", false, "crash mode: inject durability kills, recover, assert Δ + determinism + no persisted PII")
	crashRate := flag.Float64("crashrate", 0.004, "crash profile per-WAL-append kill probability")
	stitch := flag.Bool("stitch", false, "stitch mode: device↔server over real HTTP, assert cross-process trace stitching + byte-determinism")
	edgeGate := flag.Bool("edge", false, "edge mode: server+edge over real HTTP, assert coalescing, purge propagation, crash recovery, zero persisted PII")
	clusterGate := flag.Bool("cluster", false, "cluster mode: 3-node sharded deployment over loopback HTTP, assert exact matching, Δ-atomicity through node kills and partitions, twin-run determinism")
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := bench.FieldConfig{
		Mode: m, Seed: *seed, Ops: *ops, Users: *users, Products: *products,
		WriteFraction: *writes, Delta: *delta, Diurnal: *diurnal, BounceModel: *bounce,
		MeanOpsPerSecond: *rate,
	}
	if *chaos {
		runChaos(cfg, *chaosRate)
		return
	}
	if *crash {
		runCrash(cfg, *crashRate)
		return
	}
	if *stitch {
		runStitch(*seed, *delta, *products)
		return
	}
	if *edgeGate {
		runEdge(*seed, *products)
		return
	}
	if *clusterGate {
		runCluster(*seed, *products)
		return
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Trace = trace
		fmt.Printf("replaying %d ops from %s\n", len(trace), *replay)
	}
	if *record != "" {
		gen := workload.NewGenerator(workload.Config{
			Seed: *seed + 100, Products: *products, Users: *users,
			WriteFraction: *writes, Diurnal: *diurnal,
		})
		trace := gen.Take(*ops)
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := workload.WriteTrace(f, trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("recorded %d ops to %s\n", len(trace), *record)
		cfg.Trace = trace // run what was recorded
	}

	sw := clock.NewStopwatch(clock.System)
	res, err := bench.RunField(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("mode=%s ops=%d users=%d products=%d writes=%.1f%% Δ=%v\n",
		m, *ops, *users, *products, *writes*100, *delta)
	fmt.Printf("simulated %v of traffic in %v wall-clock\n\n",
		res.SimulatedDuration.Round(time.Second), sw.Elapsed().Round(time.Millisecond))

	fmt.Printf("loads            %d\n", res.Loads)
	fmt.Printf("hit ratio        %.1f%%\n", res.HitRatio()*100)
	for _, tier := range []proxy.Source{proxy.SourceDevice, proxy.SourceCDN, proxy.SourceOrigin} {
		h := res.LatencyByTier[tier]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-7s %5.1f%%  p50=%6.1fms p99=%7.1fms\n", tier,
			float64(res.TierCounts[tier])/float64(res.Loads)*100,
			h.Quantile(0.5)/1000, h.Quantile(0.99)/1000)
	}
	qs := res.Latency.Quantiles(0.5, 0.9, 0.99)
	fmt.Printf("latency          p50=%.1fms p90=%.1fms p99=%.1fms\n", qs[0]/1000, qs[1]/1000, qs[2]/1000)
	for _, region := range netsim.Regions() {
		h := res.LatencyByRegion[region]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-5s p50=%6.1fms p90=%7.1fms\n", region, h.Quantile(0.5)/1000, h.Quantile(0.9)/1000)
	}
	fmt.Printf("stale reads      %d (%.2f%%), max staleness %v\n",
		res.StaleReads, res.StaleRate()*100, res.MaxStaleness.Round(time.Millisecond))
	fmt.Printf("sketch           %d refreshes, %d bytes on wire\n", res.SketchRefreshes, res.SketchBytes)
	if res.Revalidations > 0 {
		fmt.Printf("revalidations    %d, of which %d answered 304 (%.0f%% header-only)\n",
			res.Revalidations, res.NotModified,
			float64(res.NotModified)/float64(res.Revalidations)*100)
	}
	fmt.Printf("checkouts        %d, bounces %d\n", res.Checkouts, res.Bounces)
	printTopPaths(res.PathLoads, 5)
	if *diurnal {
		printHourlyCurve(res)
	}
	fmt.Printf("\nGDPR audit:\n%s", res.Service.Auditor())
	fmt.Printf("compliant: %v\n", res.Service.Auditor().Compliant())

	if *obsDump {
		fmt.Println("\nmetrics registry (Prometheus text exposition):")
		if err := res.Service.Obs().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runChaos executes the chaos-mode gate: two seed-identical runs under
// the fault profile, then the invariant assertions. Any violation exits 1.
func runChaos(cfg bench.FieldConfig, rate float64) {
	if cfg.Mode != bench.ModeSpeedKit {
		fmt.Fprintln(os.Stderr, "chaos mode requires -mode speedkit")
		os.Exit(2)
	}
	cfg.FaultRules = faults.ChaosRules(rate)

	// Baseline the goroutine count after priming the lazy background
	// machinery (the coarse clock starts its ticker on first use), so the
	// leak check measures the runs, not library initialization.
	_ = clock.CoarseSystem.Now()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	sw := clock.NewStopwatch(clock.System)
	run1, err := bench.RunField(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos run 1:", err)
		os.Exit(1)
	}
	run2, err := bench.RunField(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos run 2:", err)
		os.Exit(1)
	}

	fmt.Printf("chaos: seed=%d ops=%d rate=%.0f%% Δ=%v (%v wall-clock, 2 runs)\n",
		cfg.Seed, cfg.Ops, rate*100, cfg.Delta, sw.Elapsed().Round(time.Millisecond))
	fmt.Printf("loads=%d failed=%d staleMax=%v offline=%d (offline staleMax=%v, unbounded by design)\n",
		run1.Loads, run1.FailedLoads, run1.MaxStaleness.Round(time.Millisecond),
		run1.OfflineServes, run1.OfflineMaxStaleness.Round(time.Millisecond))
	fmt.Print(run1.Faults.String())
	if len(run1.DegradedLoads) > 0 {
		fmt.Println("degraded loads by rung:")
		reasons := make([]proxy.DegradeReason, 0, len(run1.DegradedLoads))
		for reason := range run1.DegradedLoads {
			reasons = append(reasons, reason)
		}
		sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
		for _, reason := range reasons {
			fmt.Printf("  %-18s %d\n", reason, run1.DegradedLoads[reason])
		}
	}

	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "CHAOS VIOLATION: "+format+"\n", args...)
	}

	// 1. Determinism: two identical seeds → byte-identical fault schedules.
	h1, h2 := run1.Faults.ScheduleHash(), run2.Faults.ScheduleHash()
	if h1 != h2 {
		fail("fault schedules diverged across seed-identical runs: %x vs %x", h1, h2)
	} else {
		fmt.Printf("schedule hash    %x (identical across runs)\n", h1)
	}

	// 2. Δ-atomicity: no connected load exceeded the staleness bound.
	// Offline-shell serves are the explicit partition fallback — staleness
	// there is unbounded by design (and flagged to the caller via
	// PageLoad.Offline), so they are reported above but not gated on.
	if run1.MaxStaleness > cfg.Delta {
		fail("max staleness %v exceeds Δ=%v", run1.MaxStaleness, cfg.Delta)
	}

	// 3. The chaos actually bit: ≥10%% of sketch and origin calls faulted.
	st := run1.Faults.Stats()
	for _, c := range []faults.Component{faults.SketchFetch, faults.OriginFetch} {
		cs := st[c]
		if cs.Decisions == 0 {
			fail("component %s was never exercised", c)
		} else if cs.Rate() < 0.10 {
			fail("component %s fault rate %.1f%% below the 10%% floor", c, cs.Rate()*100)
		} else {
			fmt.Printf("fault rate       %-13s %.1f%% of %d calls\n", c, cs.Rate()*100, cs.Decisions)
		}
	}

	// 4. Something was actually served despite the chaos.
	if run1.Loads == 0 {
		fail("no loads served")
	}

	// 5. No goroutine leaks from either run.
	runtime.GC()
	leakWatch := clock.NewStopwatch(clock.System)
	for runtime.NumGoroutine() > baseline && leakWatch.Elapsed() < 2*time.Second {
		clock.Sleep(clock.System, 10*time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		fail("goroutine leak: %d before, %d after", baseline, n)
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d invariant violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("chaos: all invariants hold")
}

// runCrash executes the crash-recovery gate: two seed-identical runs with
// durability enabled and kill faults injected, each over its own scratch
// directory, then the durability invariants. Any violation exits 1.
func runCrash(cfg bench.FieldConfig, rate float64) {
	if cfg.Mode != bench.ModeSpeedKit {
		fmt.Fprintln(os.Stderr, "crash mode requires -mode speedkit")
		os.Exit(2)
	}
	cfg.FaultRules = faults.CrashRules(rate)
	cfg.SnapshotEvery = 64

	dirs := [2]string{}
	for i := range dirs {
		d, err := os.MkdirTemp("", "speedkit-crash-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}

	sw := clock.NewStopwatch(clock.System)
	runs := [2]*bench.FieldResult{}
	for i, dir := range dirs {
		c := cfg
		c.DataDir = dir
		r, err := bench.RunField(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crash run %d: %v\n", i+1, err)
			os.Exit(1)
		}
		runs[i] = r
	}
	run1, run2 := runs[0], runs[1]

	fmt.Printf("crash: seed=%d ops=%d rate=%.2f%% Δ=%v (%v wall-clock, 2 runs)\n",
		cfg.Seed, cfg.Ops, rate*100, cfg.Delta, sw.Elapsed().Round(time.Millisecond))
	fmt.Printf("loads=%d crashes=%d staleMax=%v recoveries=%v\n",
		run1.Loads, run1.Crashes, run1.MaxStaleness.Round(time.Millisecond), run1.RecoveryModes)
	w := run1.DurableStats.WAL
	fmt.Printf("wal: appends=%d fsyncs=%d replayed=%d truncated=%dB; snapshots=%d (%dB)\n",
		w.Appends, w.Fsyncs, w.Replayed, w.TruncatedBytes,
		run1.DurableStats.Snapshots, run1.DurableStats.SnapshotBytes)

	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "CRASH VIOLATION: "+format+"\n", args...)
	}

	// 1. The kills actually fired — recovery was exercised, not skipped.
	if run1.Crashes == 0 {
		fail("no crashes injected — raise -crashrate or -ops")
	}

	// 2. Δ-atomicity held through every crash and recovery.
	if run1.MaxStaleness > cfg.Delta {
		fail("max staleness %v exceeds Δ=%v", run1.MaxStaleness, cfg.Delta)
	}
	if run1.Loads == 0 {
		fail("no loads served")
	}

	// 3. Determinism: identical kill schedules and identical recovered
	// coherence state across the twin runs.
	if h1, h2 := run1.Faults.ScheduleHash(), run2.Faults.ScheduleHash(); h1 != h2 {
		fail("fault schedules diverged: %x vs %x", h1, h2)
	}
	if run1.Crashes != run2.Crashes {
		fail("crash counts diverged: %d vs %d", run1.Crashes, run2.Crashes)
	}
	g1 := run1.Service.SketchServer().Generation()
	g2 := run2.Service.SketchServer().Generation()
	if g1 != g2 {
		fail("twin runs recovered to sketch generations %d vs %d", g1, g2)
	} else {
		fmt.Printf("sketch generation %d (identical across runs)\n", g1)
	}
	if !bytes.Equal(run1.Service.SketchServer().AppendState(nil), run2.Service.SketchServer().AppendState(nil)) {
		fail("twin runs recovered to different sketch states")
	}

	// 4. GDPR: no PII field name and no simulated user identity in any
	// persisted byte — WAL segments, snapshots, torn temp files included.
	idents := []string{}
	for _, u := range session.Population(cfg.Seed, cfg.Users) {
		for _, v := range []string{u.ID, u.Name, u.Email} {
			if v != "" {
				idents = append(idents, v)
			}
		}
	}
	for _, dir := range dirs {
		hits, err := scanPII(dir, idents)
		if err != nil {
			fail("PII scan over %s: %v", dir, err)
		}
		for _, h := range hits {
			fail("%s in persisted bytes under %s", h, dir)
		}
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "crash: %d invariant violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("crash: all invariants hold")
}

// scanPII walks a durability directory and reports every PII field name
// (len ≥ 4 — two-letter names collide with random binary bytes) and every
// given identity value found in persisted bytes.
func scanPII(dir string, idents []string) ([]string, error) {
	var needles []string
	for _, f := range gdpr.PIIFields() {
		if len(f) >= 4 {
			needles = append(needles, f)
		}
	}
	needles = append(needles, idents...)
	return scanBytes(dir, needles)
}

// scanBytes walks a directory and reports every needle found in any
// persisted byte. Split from scanPII because the edge gate scans cache
// directories holding anonymous HTML verbatim: the shared shell
// legitimately contains block names ("cart") and markup words that
// collide with PII *field names*, so it scans identity *values* only.
func scanBytes(dir string, needles []string) ([]string, error) {
	var hits []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, n := range needles {
			if bytes.Contains(b, []byte(n)) {
				hits = append(hits, fmt.Sprintf("%q found in %s", n, filepath.Base(path)))
			}
		}
		return nil
	})
	return hits, err
}

// printTopPaths lists the n most-loaded paths, most popular first.
func printTopPaths(loads map[string]uint64, n int) {
	paths := make([]string, 0, len(loads))
	for p := range loads {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if loads[paths[i]] != loads[paths[j]] {
			return loads[paths[i]] > loads[paths[j]]
		}
		return paths[i] < paths[j]
	})
	if len(paths) > n {
		paths = paths[:n]
	}
	if len(paths) > 0 {
		fmt.Println("hot paths (device loads):")
	}
	for _, p := range paths {
		fmt.Printf("  %6d  %s\n", loads[p], p)
	}
}

// printHourlyCurve renders the origin-sourced loads per simulated hour as
// an ASCII bar chart — the diurnal shape the field study's traffic shows.
func printHourlyCurve(res *bench.FieldResult) {
	counts := res.OriginLoadsByHour
	if len(counts) < 2 {
		return
	}
	fmt.Println("origin fetches per simulated hour:")
	maxN := uint64(1)
	for _, n := range counts {
		maxN = max(maxN, n)
	}
	for i, n := range counts {
		bar := int(float64(n) / float64(maxN) * 40)
		fmt.Printf("  %02dh %5d %s\n", i%24, n, strings.Repeat("#", bar))
	}
}
