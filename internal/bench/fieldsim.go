// Package bench implements the experiment harness: one function per table
// and figure of the reconstructed evaluation (see DESIGN.md's
// per-experiment index). Each function runs a deterministic simulation and
// returns a typed result whose String method prints the same rows or
// series the corresponding artifact reports. The root-level bench_test.go
// and cmd/speedkit-bench both drive these functions.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/faults"
	"speedkit/internal/metrics"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/ttl"
	"speedkit/internal/workload"
)

// ClientMode selects which delivery architecture the simulated devices
// use.
type ClientMode int

// Delivery architectures under comparison.
const (
	// ModeSpeedKit is the full system: client proxy, sketch coherence,
	// CDN, adaptive TTLs, on-device personalization.
	ModeSpeedKit ClientMode = iota
	// ModeDirect is the no-caching control arm: every load hits the
	// origin.
	ModeDirect
	// ModeLegacy is a traditional personalizing CDN: per-user cache keys,
	// fixed TTLs, cookies crossing the CDN boundary.
	ModeLegacy
	// ModeTTLOnly is a shared-cache CDN without the coherence protocol:
	// anonymous shells cached under fixed TTLs, no sketch, no purges.
	ModeTTLOnly
)

// String names the mode.
func (m ClientMode) String() string {
	switch m {
	case ModeSpeedKit:
		return "speedkit"
	case ModeDirect:
		return "direct"
	case ModeLegacy:
		return "legacy-cdn"
	case ModeTTLOnly:
		return "ttl-only"
	}
	return "unknown"
}

// FieldConfig parameterizes one simulated deployment under load.
type FieldConfig struct {
	Mode ClientMode
	// Seed drives workload, catalog, and network determinism.
	Seed int64
	// Ops is the number of workload operations to execute.
	Ops int
	// Users is the device population (default 90, spread over regions).
	Users int
	// Products is the catalog size (default 500).
	Products int
	// Delta is the coherence bound for Speed Kit devices (default 60s).
	Delta time.Duration
	// TTLSource overrides the service TTL policy (nil = adaptive for
	// Speed Kit, static 60s for baselines).
	TTLSource ttl.TTLSource
	// WriteFraction is the workload's backend write share (default 0.02).
	WriteFraction float64
	// Diurnal enables the day/night load curve.
	Diurnal bool
	// MeanOpsPerSecond sets simulated load (default 50).
	MeanOpsPerSecond float64
	// BounceModel makes slow loads abort sessions when true (used by the
	// A/B conversion experiment).
	BounceModel bool
	// Trace, when non-nil, replays this exact op stream instead of
	// generating one (see workload.ReadTrace). Ops is ignored; UserIdx
	// values must be < Users.
	Trace []workload.Op
	// PrefetchLinks enables link prefetching on Speed Kit devices.
	PrefetchLinks int
	// FaultRules, when non-empty, installs a deterministic fault injector
	// over the service transports and the invalidation pipeline (chaos
	// mode). Loads that exhaust the degradation ladder are then counted
	// in FailedLoads instead of aborting the run.
	FaultRules []faults.Rule
	// FaultSeed seeds the injector (default Seed+500), so the fault
	// schedule is reproducible independently of the workload stream.
	FaultSeed int64
	// DeviceResilience parameterizes the devices' retry/backoff/breaker
	// layer (zero value = proxy defaults).
	DeviceResilience proxy.ResilienceConfig
	// DataDir, when non-empty, enables the durability subsystem: the
	// service journals coherence state there, recovers from it at startup,
	// and — whenever an injected fault kills the store mid-run — recovers
	// again in place, the in-process analogue of a process restart. Crash
	// faults come from FaultRules targeting the WAL/snapshot components
	// (see faults.CrashRules).
	DataDir string
	// SnapshotEvery passes through to durable.Config (0 = its default).
	SnapshotEvery int
}

func (c *FieldConfig) applyDefaults() {
	if c.Ops <= 0 {
		c.Ops = 20000
	}
	if c.Users <= 0 {
		c.Users = 90
	}
	if c.Products <= 0 {
		c.Products = 500
	}
	if c.Delta <= 0 {
		c.Delta = 60 * time.Second
	}
	if c.WriteFraction == 0 {
		c.WriteFraction = 0.02
	}
	if c.MeanOpsPerSecond <= 0 {
		c.MeanOpsPerSecond = 50
	}
}

// FieldResult aggregates one simulated deployment run.
type FieldResult struct {
	Mode ClientMode
	// Latency histograms, overall and per serving tier / region
	// (microsecond values).
	Latency         *metrics.Histogram
	LatencyByTier   map[proxy.Source]*metrics.Histogram
	LatencyByRegion map[netsim.Region]*metrics.Histogram
	// Loads per tier.
	TierCounts map[proxy.Source]uint64
	// PathLoads counts loads per path (bounded by the simulated catalog);
	// OriginLoadsByHour counts origin-sourced loads per simulated hour
	// since the run began. The field report's two printouts.
	PathLoads         map[string]uint64
	OriginLoadsByHour []uint64
	// Consistency. MaxStaleness covers connected serving only — the loads
	// the Δ bound applies to. Offline-shell serves (PageLoad.Offline) are
	// the explicit partition fallback where no staleness bound is
	// achievable; they are tallied separately below.
	Loads        uint64
	StaleReads   uint64
	MaxStaleness time.Duration
	// OfflineServes counts offline-shell loads; OfflineMaxStaleness is
	// the worst staleness among them (unbounded by design).
	OfflineServes       uint64
	OfflineMaxStaleness time.Duration
	// Funnel outcomes.
	Checkouts uint64
	Bounces   uint64
	// Sketch traffic (Speed Kit only).
	SketchRefreshes uint64
	SketchBytes     int
	// Revalidations and NotModified aggregate the devices' coherence
	// traffic; NotModified counts the 304-equivalents where only headers
	// travelled (Speed Kit only).
	Revalidations uint64
	NotModified   uint64
	// Service handle for post-run inspection (auditor, CDN stats, ...).
	Service *core.Service
	// SimulatedDuration is how much virtual time the run covered.
	SimulatedDuration time.Duration
	// Faults is the injector handle (nil unless FaultRules were set):
	// schedule, hash, and per-component rates for chaos assertions.
	Faults *faults.Injector
	// FailedLoads counts loads that failed even after the degradation
	// ladder (chaos mode tolerates them; they never serve stale bytes).
	FailedLoads uint64
	// DegradedLoads counts served loads per degradation rung.
	DegradedLoads map[proxy.DegradeReason]uint64
	// Recovery is how the durable store rebuilt state at startup (zero
	// when DataDir was empty — the run was memory-only).
	Recovery durable.RecoveryInfo
	// Crashes counts injected durability kills recovered in place;
	// RecoveryModes tallies every recovery (startup included) by mode.
	Crashes       uint64
	RecoveryModes map[string]uint64
	// DurableStats is the durability layer's final counter snapshot,
	// captured after the clean shutdown that ends the run.
	DurableStats durable.Stats
}

// HitRatio returns the share of loads served without an origin fetch.
func (r *FieldResult) HitRatio() float64 {
	cached := r.TierCounts[proxy.SourceDevice] + r.TierCounts[proxy.SourceCDN]
	if r.Loads == 0 {
		return 0
	}
	return float64(cached) / float64(r.Loads)
}

// StaleRate returns the share of loads that returned stale content.
func (r *FieldResult) StaleRate() float64 {
	if r.Loads == 0 {
		return 0
	}
	return float64(r.StaleReads) / float64(r.Loads)
}

// RunField executes one deployment simulation.
func RunField(cfg FieldConfig) (*FieldResult, error) {
	cfg.applyDefaults()
	clk := clock.NewSimulated(time.Time{})

	svcCfg := core.Config{
		Clock: clk,
		Seed:  cfg.Seed,
		Delta: cfg.Delta,
	}
	svcCfg.PrefetchLinks = cfg.PrefetchLinks
	var inj *faults.Injector
	if len(cfg.FaultRules) > 0 {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = cfg.Seed + 500
		}
		inj = faults.New(clk, seed, cfg.FaultRules...)
		svcCfg.Faults = inj
		svcCfg.DeviceResilience = cfg.DeviceResilience
	}
	var store *durable.Store
	if cfg.DataDir != "" {
		store = durable.New(durable.Config{
			Dir:           cfg.DataDir,
			Clock:         clk,
			Faults:        inj,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		svcCfg.Durable = store
	}
	switch cfg.Mode {
	case ModeSpeedKit:
		svcCfg.TTLSource = cfg.TTLSource // nil → adaptive
	case ModeTTLOnly:
		svcCfg.DisableInvalidation = true
		svcCfg.DisableSketchOnDevices = true
		svcCfg.TTLSource = cfg.TTLSource
		if svcCfg.TTLSource == nil {
			svcCfg.TTLSource = ttl.Static(60 * time.Second)
		}
	default:
		svcCfg.TTLSource = ttl.Static(60 * time.Second)
	}

	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   svcCfg,
		Products: cfg.Products,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var recoveryModes map[string]uint64
	var startupRecovery durable.RecoveryInfo
	if store != nil {
		info, rerr := svc.Recovery()
		if rerr != nil {
			return nil, rerr
		}
		startupRecovery = info
		recoveryModes = map[string]uint64{info.Mode.String(): 1}
	}

	users := session.Population(cfg.Seed, cfg.Users)
	devices := make([]*core.Device, len(users))
	for i, u := range users {
		devices[i] = svc.NewDevice(u, u.Region)
	}

	// nextOp supplies the op stream: a trace replay or a live generator.
	var nextOp func() (workload.Op, bool)
	var elapsed time.Duration
	if cfg.Trace != nil {
		trace := cfg.Trace
		i := 0
		nextOp = func() (workload.Op, bool) {
			if i >= len(trace) {
				return workload.Op{}, false
			}
			op := trace[i]
			i++
			elapsed += op.Gap
			return op, true
		}
		cfg.Ops = len(trace)
	} else {
		gen := workload.NewGenerator(workload.Config{
			Seed:             cfg.Seed + 100,
			Products:         cfg.Products,
			Users:            cfg.Users,
			WriteFraction:    cfg.WriteFraction,
			Diurnal:          cfg.Diurnal,
			MeanOpsPerSecond: cfg.MeanOpsPerSecond,
		})
		nextOp = func() (workload.Op, bool) {
			op := gen.Next()
			elapsed = gen.Elapsed()
			return op, true
		}
	}
	writeRng := rand.New(rand.NewSource(cfg.Seed + 200))
	bounceRng := rand.New(rand.NewSource(cfg.Seed + 300))

	res := &FieldResult{
		Mode:            cfg.Mode,
		Latency:         metrics.NewHistogram(),
		LatencyByTier:   map[proxy.Source]*metrics.Histogram{},
		LatencyByRegion: map[netsim.Region]*metrics.Histogram{},
		TierCounts:      map[proxy.Source]uint64{},
		PathLoads:       map[string]uint64{},
		Service:         svc,
		Faults:          inj,
		DegradedLoads:   map[proxy.DegradeReason]uint64{},
		Recovery:        startupRecovery,
		RecoveryModes:   recoveryModes,
	}
	for _, src := range []proxy.Source{proxy.SourceDevice, proxy.SourceCDN, proxy.SourceOrigin} {
		res.LatencyByTier[src] = metrics.NewHistogram()
	}
	for _, rg := range netsim.Regions() {
		res.LatencyByRegion[rg] = metrics.NewHistogram()
	}
	bounced := make([]bool, len(users))

	ctx := context.Background()
	start := clk.Now()
	load := func(idx int, path string) error {
		u := users[idx]
		var lat time.Duration
		var src proxy.Source
		var version uint64
		var offline bool
		switch cfg.Mode {
		case ModeSpeedKit, ModeTTLOnly:
			pl, err := devices[idx].Load(ctx, path)
			if err != nil {
				// Under chaos, loads that fail even after the degradation
				// ladder are an expected outcome — counted, never served
				// stale. Anything outside the typed failure families is
				// still a bug and aborts the run.
				if inj != nil && (errors.Is(err, proxy.ErrOffline) ||
					errors.Is(err, proxy.ErrDegraded) || errors.Is(err, proxy.ErrUpstream)) {
					res.FailedLoads++
					return nil
				}
				return err
			}
			if pl.Degraded != proxy.DegradeNone {
				res.DegradedLoads[pl.Degraded]++
			}
			if pl.Offline {
				offline = true
				res.OfflineServes++
			}
			lat, src, version = pl.Latency, pl.Source, pl.Version
			if pl.SketchRefreshed {
				res.SketchRefreshes++
			}
		case ModeDirect:
			br, err := svc.LoadDirect(u, u.Region, path)
			if err != nil {
				return err
			}
			lat, src, version = br.Latency, br.Source, br.Version
		case ModeLegacy:
			//lint:ignore piiflow measuring the legacy (non-compliant) baseline is the experiment's point
			br, err := svc.LoadLegacy(u, u.Region, path)
			if err != nil {
				return err
			}
			lat, src, version = br.Latency, br.Source, br.Version
		}
		res.Loads++
		res.TierCounts[src]++
		res.PathLoads[path]++
		if src == proxy.SourceOrigin {
			hour := int(clk.Now().Sub(start) / time.Hour)
			for len(res.OriginLoadsByHour) <= hour {
				res.OriginLoadsByHour = append(res.OriginLoadsByHour, 0)
			}
			res.OriginLoadsByHour[hour]++
		}
		us := float64(lat.Microseconds())
		res.Latency.Observe(us)
		res.LatencyByTier[src].Observe(us)
		res.LatencyByRegion[u.Region].Observe(us)

		if stale := svc.VersionLog().Staleness(path, version, clk.Now()); stale > 0 {
			if offline {
				if stale > res.OfflineMaxStaleness {
					res.OfflineMaxStaleness = stale
				}
			} else {
				res.StaleReads++
				if stale > res.MaxStaleness {
					res.MaxStaleness = stale
				}
			}
		}
		if cfg.BounceModel {
			if p := bounceProbability(lat); p > 0 && bounceRng.Float64() < p {
				bounced[idx] = true
				users[idx].ClearCart()
				res.Bounces++
			}
		}
		return nil
	}

	for i := 0; i < cfg.Ops; i++ {
		op, ok := nextOp()
		if !ok {
			break
		}
		if op.UserIdx >= len(users) {
			return nil, fmt.Errorf("bench: trace op %d references user %d beyond population %d",
				i, op.UserIdx, len(users))
		}
		clk.Advance(op.Gap)
		switch op.Kind {
		case workload.ViewHome, workload.ViewCategory, workload.ViewProduct:
			if op.Kind == workload.ViewHome {
				bounced[op.UserIdx] = false // new session attempt
			}
			if bounced[op.UserIdx] {
				continue // user left; the rest of the session is lost
			}
			if err := load(op.UserIdx, op.Path); err != nil {
				return nil, err
			}
			if op.Kind == workload.ViewProduct {
				users[op.UserIdx].RecordView(op.ProductID)
			}
		case workload.AddToCart:
			if !bounced[op.UserIdx] {
				users[op.UserIdx].AddToCart(op.ProductID, 1)
			}
		case workload.Checkout:
			if !bounced[op.UserIdx] && users[op.UserIdx].CartSize() > 0 {
				users[op.UserIdx].ClearCart()
				res.Checkouts++
			}
		case workload.UpdatePrice, workload.UpdateStock:
			if _, err := workload.ApplyWrite(svc.Docs(), writeRng, op); err != nil {
				return nil, err
			}
		}
		// An injected durability kill flips the store dead mid-op; the
		// in-place recovery below is the process restart: memory is reset
		// and rebuilt from the snapshot plus whatever WAL tail survived,
		// with a new sketch epoch covering what did not.
		if store != nil && store.Crashed() {
			info, rerr := svc.RecoverDurable()
			if rerr != nil {
				return nil, fmt.Errorf("bench: crash recovery after op %d: %w", i, rerr)
			}
			res.Crashes++
			res.RecoveryModes[info.Mode.String()]++
		}
	}
	res.SketchBytes = svc.SketchServer().SketchBytes()
	res.SimulatedDuration = elapsed
	for _, dev := range devices {
		st := dev.Stats()
		res.Revalidations += st.Revalidations
		res.NotModified += st.NotModified
	}
	if store != nil {
		// Graceful shutdown: seal the log with the clean marker so the next
		// run over this directory restarts warm. A store left dead by a
		// crash in the run's final ops stays torn on disk — exactly what a
		// later recovery must see.
		if err := store.Close(); err != nil && !errors.Is(err, faults.ErrCrash) {
			return nil, err
		}
		res.DurableStats = store.Stats()
	}
	return res, nil
}

// bounceProbability maps page-load latency to the chance the user leaves:
// zero below 150 ms, rising linearly to 35% at 1.5 s and capped there.
// The shape follows published bounce-rate-vs-load-time field studies,
// with the knee scaled to this simulation's latency regime (shell-only
// loads; a real page multiplies these by its asset count).
func bounceProbability(lat time.Duration) float64 {
	const floor = 150 * time.Millisecond
	const ceil = 1500 * time.Millisecond
	if lat <= floor {
		return 0
	}
	p := 0.35 * float64(lat-floor) / float64(ceil-floor)
	if p > 0.35 {
		p = 0.35
	}
	return p
}
