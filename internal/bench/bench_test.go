package bench

import (
	"strings"
	"testing"
	"time"

	"speedkit/internal/proxy"
	"speedkit/internal/workload"
)

// testScale keeps experiment tests fast; the bench harness uses 1.0.
const testScale = Scale(0.05)

func TestRunFieldSpeedKitBasics(t *testing.T) {
	r, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 1, Ops: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Loads == 0 {
		t.Fatal("no loads")
	}
	if r.HitRatio() < 0.5 {
		t.Fatalf("hit ratio %.2f too low for a Zipf workload", r.HitRatio())
	}
	if r.MaxStaleness > 60*time.Second {
		t.Fatalf("staleness %v exceeds default Δ", r.MaxStaleness)
	}
	if r.SketchRefreshes == 0 || r.SketchBytes == 0 {
		t.Fatal("sketch not exercised")
	}
	if r.SimulatedDuration <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestRunFieldDirectNeverCaches(t *testing.T) {
	r, err := RunField(FieldConfig{Mode: ModeDirect, Seed: 1, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if r.TierCounts[proxy.SourceDevice] != 0 || r.TierCounts[proxy.SourceCDN] != 0 {
		t.Fatalf("direct mode used caches: %+v", r.TierCounts)
	}
	if r.StaleReads != 0 {
		t.Fatal("direct mode served stale content")
	}
}

func TestRunFieldDeterministic(t *testing.T) {
	a, _ := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 9, Ops: 2000})
	b, _ := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 9, Ops: 2000})
	if a.Loads != b.Loads || a.StaleReads != b.StaleReads ||
		a.TierCounts[proxy.SourceDevice] != b.TierCounts[proxy.SourceDevice] ||
		a.Latency.Sum() != b.Latency.Sum() {
		t.Fatal("same-seed field runs diverged")
	}
}

// TestSustainedWritesKeepCDNCarryingTraffic is the performance-shape
// regression guard for the revalidation routing: under sustained writes,
// flagged-path traffic must be carried predominantly by the purge-
// maintained edge, not forwarded wholesale to the origin. (An earlier
// revision routed every revalidation to the origin and collapsed the hit
// ratio from ~67% to ~24% at full scale — this test pins the fix.)
func TestSustainedWritesKeepCDNCarryingTraffic(t *testing.T) {
	r, err := RunField(FieldConfig{
		Mode: ModeSpeedKit, Seed: 5, Ops: 8000, WriteFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hr := r.HitRatio(); hr < 0.55 {
		t.Fatalf("hit ratio %.2f under 5%% writes — revalidations flooding the origin?", hr)
	}
	if cdn, origin := r.TierCounts[proxy.SourceCDN], r.TierCounts[proxy.SourceOrigin]; cdn <= origin {
		t.Fatalf("cdn %d <= origin %d under sustained writes", cdn, origin)
	}
	if r.Revalidations == 0 {
		t.Fatal("no revalidations recorded — vacuous guard")
	}
}

func TestTraceReplayMatchesLiveRun(t *testing.T) {
	// Recording the generator's stream and replaying it must reproduce a
	// live run exactly (RunField derives its generator seed as Seed+100).
	gen := workload.NewGenerator(workload.Config{
		Seed: 101, Products: 500, Users: 90, WriteFraction: 0.02,
	})
	trace := gen.Take(2000)

	live, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 1, Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 1, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if live.Loads != replayed.Loads || live.StaleReads != replayed.StaleReads ||
		live.Checkouts != replayed.Checkouts || live.Latency.Sum() != replayed.Latency.Sum() {
		t.Fatalf("replay diverged: live loads=%d stale=%d sum=%v; replay loads=%d stale=%d sum=%v",
			live.Loads, live.StaleReads, live.Latency.Sum(),
			replayed.Loads, replayed.StaleReads, replayed.Latency.Sum())
	}
}

func TestTraceReplayRejectsOversizedUserIdx(t *testing.T) {
	trace := []workload.Op{{Kind: workload.ViewHome, UserIdx: 999, Path: "/"}}
	if _, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: 1, Users: 10, Trace: trace}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var shareSum float64
	for _, r := range res.Rows {
		shareSum += r.Share
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Fatalf("shares sum to %v", shareSum)
	}
	// Latency ordering across tiers.
	device, cdnRow, origin := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(device.P50ms < cdnRow.P50ms && cdnRow.P50ms < origin.P50ms) {
		t.Fatalf("tier latency ordering violated: %v / %v / %v",
			device.P50ms, cdnRow.P50ms, origin.P50ms)
	}
	// The cached tiers must dominate under Zipf traffic.
	if device.Share+cdnRow.Share < 0.5 {
		t.Fatalf("cached share only %.2f", device.Share+cdnRow.Share)
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Fatal("render missing title")
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := RunTable2(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	baseline := res.Rows[0]
	if baseline.StaleRate == 0 {
		t.Fatal("TTL-only baseline shows no staleness — vacuous comparison")
	}
	for _, r := range res.Rows[1:] {
		if r.MaxStaleness > r.Delta {
			t.Fatalf("Δ=%v: max staleness %v exceeds bound", r.Delta, r.MaxStaleness)
		}
		if r.StaleRate > baseline.StaleRate {
			t.Fatalf("sketch (Δ=%v) staler than TTL-only baseline", r.Delta)
		}
	}
	// The baseline's worst case must dwarf the tightest sketch bound.
	if baseline.MaxStaleness < 2*res.Rows[1].MaxStaleness && baseline.MaxStaleness < 5*time.Second {
		t.Fatalf("baseline max staleness %v suspiciously low", baseline.MaxStaleness)
	}
	if !strings.Contains(res.String(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestTable3Shapes(t *testing.T) {
	res, err := RunTable3(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	legacy, sk := res.Rows[0], res.Rows[1]
	if legacy.Compliant || legacy.CDNPIIFields == 0 {
		t.Fatalf("legacy arm shows no leakage: %+v", legacy)
	}
	if !sk.Compliant || sk.CDNPIIFields != 0 {
		t.Fatalf("speedkit arm leaks: %+v", sk)
	}
	if sk.CDNRequests == 0 {
		t.Fatal("speedkit arm had no CDN traffic")
	}
	if !strings.Contains(res.String(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestFigure4Shapes(t *testing.T) {
	res, err := RunFigure4(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 { // 3 systems × 3 regions
		t.Fatalf("points = %d", len(res.Points))
	}
	get := func(sys ClientMode, region string) Figure4Point {
		for _, p := range res.Points {
			if p.System == sys && string(p.Region) == region {
				return p
			}
		}
		t.Fatalf("missing point %v/%s", sys, region)
		return Figure4Point{}
	}
	for _, region := range []string{"eu", "us", "apac"} {
		direct := get(ModeDirect, region)
		sk := get(ModeSpeedKit, region)
		if sk.P50ms >= direct.P50ms {
			t.Fatalf("%s: speedkit p50 %.1f not faster than direct %.1f",
				region, sk.P50ms, direct.P50ms)
		}
	}
	// The win grows with distance from the origin.
	euGain := get(ModeDirect, "eu").P50ms / get(ModeSpeedKit, "eu").P50ms
	apacGain := get(ModeDirect, "apac").P50ms / get(ModeSpeedKit, "apac").P50ms
	if apacGain <= euGain {
		t.Fatalf("speedup should grow with RTT: eu %.2fx vs apac %.2fx", euGain, apacGain)
	}
	if !strings.Contains(res.String(), "Figure 4") {
		t.Fatal("render missing title")
	}
}

func TestFigure5Shapes(t *testing.T) {
	res, err := RunFigure5(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MaxStaleness > p.Delta {
			t.Fatalf("Δ=%v violated: %v", p.Delta, p.MaxStaleness)
		}
	}
	// Larger Δ must mean fewer sketch fetches.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.SketchRefreshes >= first.SketchRefreshes {
		t.Fatalf("sketch traffic did not fall with Δ: %d -> %d",
			first.SketchRefreshes, last.SketchRefreshes)
	}
	if !strings.Contains(res.String(), "Figure 5") {
		t.Fatal("render missing title")
	}
}

func TestFigure6Shapes(t *testing.T) {
	res := RunFigure6(testScale)
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		if p.MeasuredFPR > res.TargetFPR*2.5 {
			t.Fatalf("entries=%d FPR %.3f far above target", p.Entries, p.MeasuredFPR)
		}
		// Bits per key is constant for a fixed FPR (~6.24 at 5%).
		if p.BitsPerKey < 5 || p.BitsPerKey > 8 {
			t.Fatalf("bits/key = %v", p.BitsPerKey)
		}
		if i > 0 && p.SketchBytes <= res.Points[i-1].SketchBytes {
			t.Fatal("sketch size not growing with entries")
		}
	}
	if !strings.Contains(res.String(), "Figure 6") {
		t.Fatal("render missing title")
	}
}

func TestFigure7Shapes(t *testing.T) {
	res, err := RunFigure7(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure7Point{}
	for _, p := range res.Points {
		byName[p.Policy] = p
	}
	// Long static TTLs cache better but cost more invalidations than
	// short ones; adaptive must beat static-10s on hit ratio.
	if byName["static-1h"].HitRatio <= byName["static-10s"].HitRatio {
		t.Fatal("longer TTL did not raise hit ratio")
	}
	if byName["static-1h"].Invalidations <= byName["static-10s"].Invalidations {
		t.Fatal("longer TTL did not raise invalidation load")
	}
	if byName["adaptive"].HitRatio <= byName["static-10s"].HitRatio {
		t.Fatalf("adaptive (%.2f) no better than static-10s (%.2f)",
			byName["adaptive"].HitRatio, byName["static-10s"].HitRatio)
	}
	if !strings.Contains(res.String(), "Figure 7") {
		t.Fatal("render missing title")
	}
}

func TestFigure8Shapes(t *testing.T) {
	res := RunFigure8(Scale(0.02))
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Queries <= res.Points[i-1].Queries {
			t.Fatal("query counts not increasing")
		}
		if res.Points[i].EventsPerS <= 0 {
			t.Fatal("nonpositive throughput")
		}
	}
	// More queries must cost more per event (eventually).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.MeanLatency <= first.MeanLatency {
		t.Fatalf("latency flat across 100x queries: %v vs %v", first.MeanLatency, last.MeanLatency)
	}
	if !strings.Contains(res.String(), "Figure 8") {
		t.Fatal("render missing title")
	}
}

func TestFigure9Shapes(t *testing.T) {
	res, err := RunFigure9(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	direct, sk := res.Arms[0], res.Arms[1]
	if sk.P50ms >= direct.P50ms {
		t.Fatalf("speedkit arm not faster: %.1f vs %.1f", sk.P50ms, direct.P50ms)
	}
	if sk.BounceRate >= direct.BounceRate {
		t.Fatalf("speedkit arm bounces more: %.3f vs %.3f", sk.BounceRate, direct.BounceRate)
	}
	if res.CheckoutUplift <= 0 {
		t.Fatalf("no conversion uplift: %+.3f", res.CheckoutUplift)
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Fatal("render missing title")
	}
}

func TestAblationA1Shapes(t *testing.T) {
	res, err := RunAblationA1(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	device, originBlocks, legacy := res.Rows[0], res.Rows[1], res.Rows[2]
	// On-device blocks avoid the per-load origin round trip.
	if device.P50ms >= originBlocks.P50ms {
		t.Fatalf("device blocks (%.1f) not faster than origin blocks (%.1f)",
			device.P50ms, originBlocks.P50ms)
	}
	// Both shell strategies beat the fragmenting legacy render on hits.
	if device.HitRatio <= legacy.HitRatio {
		t.Fatalf("shell hit ratio %.2f not above legacy %.2f", device.HitRatio, legacy.HitRatio)
	}
	if !strings.Contains(res.String(), "Ablation A1") {
		t.Fatal("render missing title")
	}
}

func TestAblationA2Shapes(t *testing.T) {
	res := RunAblationA2(Scale(0.05))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	counting, rebuild := res.Rows[0], res.Rows[1]
	// Each arm is about a millisecond of wall clock, and go test ./...
	// runs other packages on the same cores: one descheduled arm is not a
	// shape. Measure again before failing, as TestAblationA3Shapes does.
	for retry := 0; retry < 2 && counting.NsPerOp >= rebuild.NsPerOp; retry++ {
		res = RunAblationA2(Scale(0.05))
		counting, rebuild = res.Rows[0], res.Rows[1]
	}
	if counting.NsPerOp >= rebuild.NsPerOp {
		t.Fatalf("counting filter (%.0f ns) not cheaper than rebuild (%.0f ns)",
			counting.NsPerOp, rebuild.NsPerOp)
	}
	// Counting cells cost 16× a bit; size trade-off must be visible.
	if counting.Bytes <= rebuild.Bytes {
		t.Fatal("counting filter reported smaller than plain filter")
	}
	if !strings.Contains(res.String(), "Ablation A2") {
		t.Fatal("render missing title")
	}
}

func TestAblationA3Shapes(t *testing.T) {
	res := RunAblationA3(Scale(0.05))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	scan, indexed := res.Rows[0], res.Rows[1]
	// Each arm is a few milliseconds of wall clock, and go test ./... runs
	// other packages (the soak among them) on the same two cores: one
	// descheduled arm is not a shape. Measure again before failing.
	for retry := 0; retry < 2 && indexed.NsPerEval*3 > scan.NsPerEval; retry++ {
		res = RunAblationA3(Scale(0.05))
		scan, indexed = res.Rows[0], res.Rows[1]
	}
	// Both arms filter before they order and keep 24 rows, so they differ
	// by how many documents they look at: 2 000 at this scale against the
	// 200 of one category. Measured 5.5× in the median over fifteen runs,
	// 3.6× at worst (each arm is a few milliseconds long); the floor is
	// set under that spread. (It was 5× while the scan cloned and ordered
	// every document before filtering one, which the index arm skipped.)
	if indexed.NsPerEval*3 > scan.NsPerEval {
		t.Fatalf("index win too small: scan %.0f vs indexed %.0f ns/eval",
			scan.NsPerEval, indexed.NsPerEval)
	}
	if !strings.Contains(res.String(), "Ablation A3") {
		t.Fatal("render missing title")
	}
}

func TestAblationA4Shapes(t *testing.T) {
	res, err := RunAblationA4(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	off, on := res.Rows[0], res.Rows[1]
	if on.DeviceShare <= off.DeviceShare {
		t.Fatalf("prefetch did not raise device share: %.3f -> %.3f",
			off.DeviceShare, on.DeviceShare)
	}
	if on.ServiceLoad <= off.ServiceLoad {
		t.Fatalf("prefetch traffic cost invisible: %d -> %d", off.ServiceLoad, on.ServiceLoad)
	}
	if !strings.Contains(res.String(), "Ablation A4") {
		t.Fatal("render missing title")
	}
}

func TestClientModeString(t *testing.T) {
	for _, m := range []ClientMode{ModeSpeedKit, ModeDirect, ModeLegacy, ModeTTLOnly} {
		if m.String() == "unknown" {
			t.Fatalf("mode %d unnamed", m)
		}
	}
	if ClientMode(9).String() != "unknown" {
		t.Fatal("unknown mode named")
	}
}

func TestScaleOpsFloor(t *testing.T) {
	if Scale(0).ops(1000) != 1000 {
		t.Fatal("zero scale must default to 1.0")
	}
	if Scale(0.001).ops(1000) != 500 {
		t.Fatal("ops floor not applied")
	}
	if Scale(2).ops(1000) != 2000 {
		t.Fatal("scale up broken")
	}
}

func TestBounceProbabilityShape(t *testing.T) {
	if bounceProbability(100*time.Millisecond) != 0 {
		t.Fatal("fast load bounces")
	}
	mid := bounceProbability(800 * time.Millisecond)
	if mid <= 0 || mid >= 0.35 {
		t.Fatalf("mid bounce = %v", mid)
	}
	if bounceProbability(10*time.Second) != 0.35 {
		t.Fatal("bounce not capped")
	}
}
