package proxy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"speedkit/internal/cache"
	"speedkit/internal/resilience"
)

func TestRetryRecoversFromTransientFetchFailure(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	calls := 0
	// Inject transience via the fake's error hook: fail twice, then heal.
	fail := 2
	tr.fetchHook = func() error {
		calls++
		if calls <= fail {
			return fmt.Errorf("edge hiccup: %w", ErrUpstream)
		}
		return nil
	}
	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("load failed despite retries: %v", err)
	}
	if calls != fail+1 {
		t.Fatalf("fetch attempts = %d, want %d", calls, fail+1)
	}
	if p.Stats().Retries != uint64(fail) {
		t.Fatalf("Retries = %d, want %d", p.Stats().Retries, fail)
	}
	// The backoff delays are accounted into the simulated latency:
	// at least base/2 + base (with ±50% jitter) on top of network costs.
	if res.Latency < 55*time.Millisecond+25*time.Millisecond {
		t.Fatalf("latency %v does not include backoff delays", res.Latency)
	}
	if res.Degraded != DegradeNone {
		t.Fatalf("successful retry marked degraded: %q", res.Degraded)
	}
}

// TestJitterSourceIsMadeByTheFirstRetry: a session that never retries
// carries no generator, and one that does draws the same sequence a
// generator seeded at construction would have given it.
func TestJitterSourceIsMadeByTheFirstRetry(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/plain"); err != nil {
		t.Fatal(err)
	}
	if p.rng != nil {
		t.Fatal("a load without retries created the jitter source")
	}
	calls := 0
	tr.fetchHook = func() error {
		if calls++; calls <= 2 {
			return fmt.Errorf("edge hiccup: %w", ErrUpstream)
		}
		return nil
	}
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	want := rand.New(rand.NewSource(p.cfg.Resilience.Seed))
	want.Float64() // first retry's jitter
	want.Float64() // second retry's
	if p.rng == nil || p.rng.Float64() != want.Float64() {
		t.Fatal("retry jitter does not replay from Resilience.Seed")
	}
}

func TestRetriesExhaustedServesHeldCopyWithinDelta(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	// Flag the page so the next load must revalidate, then make the
	// upstream persistently transiently-failing.
	tr.sketchSrv.ReportWrite("/")
	p.sketch.Install(tr.sketchSrv.Snapshot())
	tr.fetchErr = fmt.Errorf("edge melting: %w", ErrUpstream)
	clk.Advance(10 * time.Second) // copy is 10s old, within Δ=30s

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("load failed with a Δ-fresh copy held: %v", err)
	}
	if res.Degraded != DegradeRetriesExhausted {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, DegradeRetriesExhausted)
	}
	if res.Source != SourceDevice || res.Offline {
		t.Fatalf("degraded serve: %+v", res)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d", res.Version)
	}
}

func TestRetriesExhaustedWithoutYoungCopyFails(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	tr.sketchSrv.ReportWrite("/")
	p.sketch.Install(tr.sketchSrv.Snapshot())
	tr.fetchErr = fmt.Errorf("edge melting: %w", ErrUpstream)
	clk.Advance(31 * time.Second) // held copy now older than Δ — but so is the sketch

	// The sketch is also stale now; make its refresh succeed so only the
	// shell path fails.
	_, err := p.Load(context.Background(), "/")
	if !errors.Is(err, ErrUpstream) {
		t.Fatalf("err = %v, want ErrUpstream", err)
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatal("upstream failure must not masquerade as a resilience refusal")
	}
}

func TestBudgetExceededDegradesToHeldCopy(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	tr.sketchSrv.ReportWrite("/")
	p.sketch.Install(tr.sketchSrv.Snapshot())
	clk.Advance(5 * time.Second)
	// A budget below the revalidation cost: the first attempt is allowed
	// (nothing spent yet), fails transiently, and the backoff pushes the
	// accumulated latency over budget.
	p.cfg.Resilience.LoadBudget = 20 * time.Millisecond
	tr.fetchErr = fmt.Errorf("slow edge: %w", ErrUpstream)

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("budget exhaustion failed the load despite held copy: %v", err)
	}
	if res.Degraded != DegradeBudget && res.Degraded != DegradeRetriesExhausted {
		t.Fatalf("Degraded = %q", res.Degraded)
	}
	if res.Source != SourceDevice {
		t.Fatalf("source = %v", res.Source)
	}
}

func TestBudgetExceededWithoutCopyReturnsTypedError(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	p.cfg.Resilience.LoadBudget = time.Nanosecond
	tr.fetchErr = fmt.Errorf("flaky edge: %w", ErrUpstream)
	// Cold load: the first shell attempt fails and its backoff consumes
	// the (tiny) budget, so the retry is refused and no copy exists to
	// degrade to.
	_, err := p.Load(context.Background(), "/never-seen")
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatal("ErrBudgetExceeded must match the ErrDegraded family")
	}
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	tr.fetchErr = fmt.Errorf("dead edge: %w", ErrUpstream)
	tr.sketchDown = true
	p.cfg.Resilience.BreakerThreshold = 3

	// Rebuild breakers with the tightened threshold (cfg was copied at
	// New); drive failures until the shell breaker opens.
	p.brShell = resilience.NewBreaker(resilience.BreakerConfig{
		Clock: p.cfg.Clock, Threshold: 3, Cooldown: 15 * time.Second})
	for i := 0; i < 2; i++ {
		_, _ = p.Load(context.Background(), "/cold")
	}
	if p.brShell.State() != resilience.Open {
		t.Fatalf("shell breaker state = %v after repeated failures", p.brShell.State())
	}
	// Next load is refused without touching the transport.
	before := tr.blockCalls
	_, err := p.Load(context.Background(), "/cold")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatal("ErrCircuitOpen must match the ErrDegraded family")
	}
	if tr.blockCalls != before {
		t.Fatal("open breaker still called the transport")
	}
	_, shell, _ := p.BreakerStats()
	if shell.Opens == 0 || shell.Rejected == 0 {
		t.Fatalf("breaker stats = %+v", shell)
	}
}

func TestBreakerRecoversAfterCooldown(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	tr.fetchErr = fmt.Errorf("dead edge: %w", ErrUpstream)
	p.brShell = resilience.NewBreaker(resilience.BreakerConfig{
		Clock: clk, Threshold: 2, Cooldown: 15 * time.Second})
	for i := 0; i < 2; i++ {
		_, _ = p.Load(context.Background(), "/cold")
	}
	if p.brShell.State() != resilience.Open {
		t.Fatalf("breaker = %v", p.brShell.State())
	}
	tr.fetchErr = nil
	clk.Advance(16 * time.Second)
	res, err := p.Load(context.Background(), "/plain")
	if err != nil {
		t.Fatalf("post-cooldown probe load failed: %v", err)
	}
	if res.Source == SourceDevice {
		t.Fatal("probe load did not reach the network")
	}
	if p.brShell.State() != resilience.Closed {
		t.Fatalf("breaker after successful probe = %v", p.brShell.State())
	}
}

func TestSketchUnreachableForcesRevalidation(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	if _, err := p.Load(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	// Sketch endpoint down, copy and sketch both older than Δ: the
	// ladder may not blind-serve and must take the version-conditioned
	// revalidation path (the origin itself is still reachable).
	tr.sketchDown = true
	clk.Advance(31 * time.Second)

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("sketch-down load failed: %v", err)
	}
	if res.Degraded != DegradeRevalidate {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, DegradeRevalidate)
	}
	if !res.Revalidated || res.Offline {
		t.Fatalf("forced revalidation result: %+v", res)
	}
	if p.Stats().Degraded == 0 {
		t.Fatal("degradation not counted")
	}
}

func TestSketchUnreachableServeStaleWithinDelta(t *testing.T) {
	p, tr, clk := newTestProxy(t, nil)
	// Short-TTL page: the device refetches it mid-window, decoupling the
	// copy's StoredAt from the sketch's TakenAt.
	e := cache.TTLEntry(clk, "/", []byte("<html>shell</html>"), 1, 15*time.Second)
	tr.pages["/"] = e
	if _, err := p.Load(context.Background(), "/"); err != nil { // sketch @0s, copy @0s
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second)
	tr.pages["/"] = cache.TTLEntry(clk, "/", []byte("<html>shell</html>"), 1, time.Hour)
	if _, err := p.Load(context.Background(), "/"); err != nil { // TTL miss → refetch: copy @20s, sketch @0s
		t.Fatal(err)
	}
	tr.sketchDown = true
	clk.Advance(11 * time.Second) // sketch 31s old (> Δ), copy 11s old (< Δ)

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("serve-stale load failed: %v", err)
	}
	if res.Degraded != DegradeServeStale {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, DegradeServeStale)
	}
	if res.Source != SourceDevice || res.Offline {
		t.Fatalf("serve-stale result: %+v", res)
	}
	// The served copy is provably within the bound: it was stored 11s
	// ago, so its staleness cannot exceed Δ = 30s.
	if p.Stats().OfflineServes != 0 {
		t.Fatal("serve-stale miscounted as offline")
	}
}

func TestContextCancellationNotRetried(t *testing.T) {
	p, tr, _ := newTestProxy(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	tr.fetchHook = func() error {
		calls++
		return nil
	}
	_, err := p.Load(ctx, "/")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("cancelled load still made %d transport calls", calls)
	}
	if p.Stats().Retries != 0 {
		t.Fatal("cancelled load recorded retries")
	}
}

func TestBlocksFailureFallsBackToLocalRender(t *testing.T) {
	u := loggedInUser()
	p, tr, _ := newTestProxy(t, u)
	p.cfg.OriginBlocks = map[string]bool{"cart": true}
	tr.blockErr = fmt.Errorf("blocks endpoint down: %w", ErrUpstream)

	res, err := p.Load(context.Background(), "/")
	if err != nil {
		t.Fatalf("blocks failure failed the page: %v", err)
	}
	if res.Degraded != DegradeBlocksLocal {
		t.Fatalf("Degraded = %q, want %q", res.Degraded, DegradeBlocksLocal)
	}
	if res.BlocksPersonalized != 2 {
		t.Fatalf("blocks = %d, want 2 (local fallbacks)", res.BlocksPersonalized)
	}
	if p.Stats().BlocksOrigin != 0 || p.Stats().BlocksLocal == 0 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestErrorTaxonomyIsMatchable(t *testing.T) {
	cases := []struct {
		err      error
		degraded bool
	}{
		{ErrOffline, false},
		{ErrUpstream, false},
		{ErrDegraded, true},
		{ErrBudgetExceeded, true},
		{ErrCircuitOpen, true},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("proxy: fetch /x: %w", c.err)
		if !errors.Is(wrapped, c.err) {
			t.Fatalf("%v not matchable through wrapping", c.err)
		}
		if errors.Is(wrapped, ErrDegraded) != c.degraded {
			t.Fatalf("%v: ErrDegraded match = %v, want %v", c.err, !c.degraded, c.degraded)
		}
	}
	if errors.Is(ErrBudgetExceeded, ErrCircuitOpen) {
		t.Fatal("distinct refusals must not match each other")
	}
}
