package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/invalidb"
	"speedkit/internal/obs"
	"speedkit/internal/proxy"
	"speedkit/internal/query"
	"speedkit/internal/session"
	"speedkit/internal/storage"
	"speedkit/internal/workload"
)

// --- Figure 6: sketch size vs tracked entries --------------------------------

// Figure6Point sizes the client sketch for one population of stale
// entries.
type Figure6Point struct {
	Entries     int
	SketchBytes int
	MeasuredFPR float64
	BitsPerKey  float64
}

// Figure6Result is the sizing series.
type Figure6Result struct {
	TargetFPR float64
	Points    []Figure6Point
}

// RunFigure6 reproduces Figure 6: wire size and realized false-positive
// rate of the client sketch as the number of simultaneously stale-tracked
// resources grows.
func RunFigure6(scale Scale) *Figure6Result {
	const target = 0.05
	out := &Figure6Result{TargetFPR: target}
	sizes := []int{1000, 10000, 100000, 1000000}
	if scale < 1 {
		sizes = []int{1000, 10000, 100000}
	}
	for _, n := range sizes {
		f := bloom.NewFilterForCapacity(uint64(n), target)
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("/product/p%07d", i))
		}
		fp := 0
		probes := 20000
		for i := 0; i < probes; i++ {
			if f.Contains(fmt.Sprintf("/other/o%07d", i)) {
				fp++
			}
		}
		out.Points = append(out.Points, Figure6Point{
			Entries:     n,
			SketchBytes: f.SizeBytes() + 13,
			MeasuredFPR: float64(fp) / float64(probes),
			BitsPerKey:  float64(f.Bits()) / float64(n),
		})
	}
	return out
}

// String renders the series.
func (f *Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — sketch size (target FPR %.0f%%)\n", f.TargetFPR*100)
	fmt.Fprintf(&b, "%10s %14s %12s %12s\n", "entries", "bytes on wire", "FPR", "bits/key")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%10d %14d %11.2f%% %12.2f\n",
			p.Entries, p.SketchBytes, p.MeasuredFPR*100, p.BitsPerKey)
	}
	return b.String()
}

// --- Figure 8: invalidation pipeline throughput --------------------------------

// Figure8Point is one registered-query count's performance.
type Figure8Point struct {
	Queries     int
	EventsPerS  float64
	MeanLatency time.Duration
}

// Figure8Result is the matcher scaling series. Unlike the simulation
// experiments this one measures real wall-clock performance of the
// matching engine.
type Figure8Result struct {
	Events int
	Points []Figure8Point
}

// RunFigure8 reproduces Figure 8: invalidation-engine throughput and
// per-event matching latency as the number of registered continuous
// queries grows.
func RunFigure8(scale Scale) *Figure8Result {
	events := Scale(scale).ops(5000)
	out := &Figure8Result{Events: events}
	counts := []int{10, 100, 1000, 10000}
	if scale < 1 {
		counts = []int{10, 100, 1000}
	}
	for _, nq := range counts {
		eng := invalidb.New(invalidb.Config{})
		for i := 0; i < nq; i++ {
			eng.Register(fmt.Sprintf("/q/%d", i),
				query.MustParse(fmt.Sprintf(`products WHERE category = %q AND price < %d`,
					workload.Categories[i%len(workload.Categories)], 50+i%150)))
		}
		ev := storage.ChangeEvent{
			Collection: "products", ID: "p1", Kind: storage.ChangeUpdate,
			Before: query.NewDoc("p1", map[string]any{"category": "shoes", "price": 40.0}),
			After:  query.NewDoc("p1", map[string]any{"category": "shoes", "price": 60.0}),
		}
		sw := clock.NewStopwatch(clock.System)
		for i := 0; i < events; i++ {
			eng.Process(ev)
		}
		elapsed := sw.Elapsed()
		out.Points = append(out.Points, Figure8Point{
			Queries:     nq,
			EventsPerS:  float64(events) / elapsed.Seconds(),
			MeanLatency: elapsed / time.Duration(events),
		})
	}
	return out
}

// String renders the series.
func (f *Figure8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — invalidation matcher scaling (%d events each)\n", f.Events)
	fmt.Fprintf(&b, "%10s %14s %16s\n", "queries", "events/s", "latency/event")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%10d %14.0f %16s\n", p.Queries, p.EventsPerS, p.MeanLatency)
	}
	return b.String()
}

// --- Ablation A1: dynamic blocks -----------------------------------------------

// AblationA1Row compares one personalization strategy.
type AblationA1Row struct {
	Strategy string
	P50ms    float64
	P90ms    float64
	HitRatio float64
}

// AblationA1Result is the dynamic-blocks ablation.
type AblationA1Result struct{ Rows []AblationA1Row }

// RunAblationA1 reproduces Ablation A1: what the anonymous-shell +
// on-device-blocks design buys over rendering personalized pages at the
// origin. Three strategies over identical traffic:
//
//	shell+device-blocks — the Speed Kit design
//	shell+origin-blocks — cacheable shell, but fragments fetched from the
//	                      origin's first-party API each load
//	full-origin-render  — the legacy personalizing CDN
func RunAblationA1(seed int64, scale Scale) (*AblationA1Result, error) {
	out := &AblationA1Result{}
	ops := scale.ops(15000)

	// Strategy 1: standard Speed Kit.
	r1, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: seed, Ops: ops})
	if err != nil {
		return nil, err
	}
	qs := r1.Latency.Quantiles(0.5, 0.9)
	out.Rows = append(out.Rows, AblationA1Row{
		Strategy: "shell+device-blocks",
		P50ms:    qs[0] / 1000, P90ms: qs[1] / 1000, HitRatio: r1.HitRatio(),
	})

	// Strategy 2: shell cached, blocks fetched from the origin. Built by
	// hand: same storefront, but devices configured with OriginBlocks.
	r2, err := runOriginBlocksArm(seed, ops)
	if err != nil {
		return nil, err
	}
	qs = r2.Latency.Quantiles(0.5, 0.9)
	out.Rows = append(out.Rows, AblationA1Row{
		Strategy: "shell+origin-blocks",
		P50ms:    qs[0] / 1000, P90ms: qs[1] / 1000, HitRatio: r2.HitRatio(),
	})

	// Strategy 3: the legacy full-page render.
	r3, err := RunField(FieldConfig{Mode: ModeLegacy, Seed: seed, Ops: ops})
	if err != nil {
		return nil, err
	}
	qs = r3.Latency.Quantiles(0.5, 0.9)
	out.Rows = append(out.Rows, AblationA1Row{
		Strategy: "full-origin-render",
		P50ms:    qs[0] / 1000, P90ms: qs[1] / 1000, HitRatio: r3.HitRatio(),
	})
	return out, nil
}

// runOriginBlocksArm is RunField's Speed Kit flow with every dynamic
// block forced over the first-party origin channel.
func runOriginBlocksArm(seed int64, ops int) (*FieldResult, error) {
	clk := clock.NewSimulated(time.Time{})
	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config:   core.Config{Clock: clk, Seed: seed},
		Products: 500,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	users := session.Population(seed, 90)
	devices := make([]*core.Device, len(users))
	for i, u := range users {
		// Every dynamic block comes from the origin (strategy 2).
		devices[i] = svc.NewDevice(u, u.Region, "greeting", "cart", "reco", "tier")
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed + 100, Products: 500, Users: 90})

	res := &FieldResult{
		Mode:       ModeSpeedKit,
		Latency:    obs.NewHistogram(),
		TierCounts: map[proxy.Source]uint64{},
	}
	for i := 0; i < ops; i++ {
		op := gen.Next()
		clk.Advance(op.Gap)
		switch op.Kind {
		case workload.ViewHome, workload.ViewCategory, workload.ViewProduct:
			pl, err := devices[op.UserIdx].Load(context.Background(), op.Path)
			if err != nil {
				return nil, err
			}
			res.Loads++
			res.TierCounts[pl.Source]++
			res.Latency.Observe(float64(pl.Latency.Microseconds()))
		case workload.AddToCart:
			users[op.UserIdx].AddToCart(op.ProductID, 1)
		}
	}
	return res, nil
}

// String renders the ablation.
func (a *AblationA1Result) String() string {
	var b strings.Builder
	b.WriteString("Ablation A1 — dynamic-block strategies\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "strategy", "p50 [ms]", "p90 [ms]", "hit ratio")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-22s %10.1f %10.1f %9.1f%%\n", r.Strategy, r.P50ms, r.P90ms, r.HitRatio*100)
	}
	return b.String()
}

// --- Ablation A2: Bloom maintenance strategies -----------------------------------

// AblationA2Row is one maintenance strategy's cost.
type AblationA2Row struct {
	Strategy string
	NsPerOp  float64
	Bytes    int
}

// AblationA2Result compares counting-filter maintenance against periodic
// rebuilds of a plain filter.
type AblationA2Result struct {
	Churn int
	Rows  []AblationA2Row
}

// RunAblationA2 reproduces Ablation A2: the cost of keeping the server
// sketch exact. The counting filter supports O(1) removals; the plain
// filter must be rebuilt from the live key set whenever anything expires.
func RunAblationA2(scale Scale) *AblationA2Result {
	churn := Scale(scale).ops(200000)
	out := &AblationA2Result{Churn: churn}
	const live = 10000

	keys := make([]string, live)
	for i := range keys {
		keys[i] = fmt.Sprintf("/r/%d", i)
	}

	// Strategy 1: counting filter, add+remove per churn op.
	cf := bloom.NewCountingForCapacity(live, 0.05)
	for _, k := range keys {
		cf.Add(k)
	}
	sw := clock.NewStopwatch(clock.System)
	for i := 0; i < churn; i++ {
		k := keys[i%live]
		cf.Remove(k)
		cf.Add(k)
	}
	out.Rows = append(out.Rows, AblationA2Row{
		Strategy: "counting-filter",
		NsPerOp:  float64(sw.Elapsed().Nanoseconds()) / float64(churn),
		Bytes:    cf.SizeBytes(),
	})

	// Strategy 2: plain filter rebuilt from the full live set on every
	// removal batch (batched 1000 ops per rebuild to be charitable).
	pf := bloom.NewFilterForCapacity(live, 0.05)
	sw.Reset()
	rebuilds := churn / 1000
	if rebuilds == 0 {
		rebuilds = 1
	}
	for r := 0; r < rebuilds; r++ {
		pf.Clear()
		for _, k := range keys {
			pf.Add(k)
		}
	}
	out.Rows = append(out.Rows, AblationA2Row{
		Strategy: "rebuild-per-1k-ops",
		NsPerOp:  float64(sw.Elapsed().Nanoseconds()) / float64(churn),
		Bytes:    pf.SizeBytes(),
	})
	return out
}

// String renders the ablation.
func (a *AblationA2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A2 — server-sketch maintenance (%d churn ops, 10k live keys)\n", a.Churn)
	fmt.Fprintf(&b, "%-20s %12s %12s\n", "strategy", "ns/op", "bytes")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-20s %12.1f %12d\n", r.Strategy, r.NsPerOp, r.Bytes)
	}
	return b.String()
}

// --- Ablation A3: query-index acceleration ---------------------------------

// AblationA3Row is one evaluation strategy's cost.
type AblationA3Row struct {
	Strategy  string
	NsPerEval float64
}

// AblationA3Result compares indexed versus scanning evaluation of the
// listing queries that the invalidation-heavy workloads re-render
// constantly.
type AblationA3Result struct {
	Docs  int
	Evals int
	Rows  []AblationA3Row
}

// RunAblationA3 measures the document store's equality index: the same
// category-listing query evaluated by full collection scan and via the
// index, over a catalog sized like a mid-size shop.
func RunAblationA3(scale Scale) *AblationA3Result {
	// The scan arm is O(docs × evals); scale both so quick test passes
	// stay quick while the full run exercises a realistic catalog.
	docs := int(20000 * float64(scale))
	if docs < 2000 {
		docs = 2000
	}
	// Few hundred evals suffice: each evaluation is deterministic, so
	// more repeats only average out scheduler noise.
	evals := int(300 * float64(scale))
	if evals < 50 {
		evals = 50
	}
	out := &AblationA3Result{Docs: docs, Evals: evals}

	store := storage.NewDocumentStore(clock.NewSimulated(time.Time{}))
	if err := workload.SeedCatalog(store, 1, docs); err != nil {
		panic(err) // deterministic seed into an empty store cannot fail
	}
	q := query.New("products", query.Eq("category", "shoes")).OrderBy("price", false).WithLimit(24)

	run := func(name string) {
		sw := clock.NewStopwatch(clock.System)
		for i := 0; i < evals; i++ {
			store.Query(q)
		}
		out.Rows = append(out.Rows, AblationA3Row{
			Strategy:  name,
			NsPerEval: float64(sw.Elapsed().Nanoseconds()) / float64(evals),
		})
	}
	run("full-scan")
	store.CreateIndex("products", "category")
	run("equality-index")
	return out
}

// String renders the ablation.
func (a *AblationA3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3 — listing-query evaluation (%d docs, %d evals)\n", a.Docs, a.Evals)
	fmt.Fprintf(&b, "%-16s %14s\n", "strategy", "ns/eval")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-16s %14.0f\n", r.Strategy, r.NsPerEval)
	}
	return b.String()
}

// --- Ablation A4: link prefetching ------------------------------------------

// AblationA4Row is one prefetch setting's outcome.
type AblationA4Row struct {
	PrefetchK    int
	DeviceShare  float64
	ProductP50ms float64
	ServiceLoad  uint64 // origin renders + edge hits (extra traffic cost)
}

// AblationA4Result quantifies the prefetch trade: faster next clicks
// versus extra service traffic.
type AblationA4Result struct{ Rows []AblationA4Row }

// RunAblationA4 runs identical traffic with prefetching off and on.
func RunAblationA4(seed int64, scale Scale) (*AblationA4Result, error) {
	out := &AblationA4Result{}
	ops := scale.ops(15000)
	for _, k := range []int{0, 3, 8} {
		r, err := RunField(FieldConfig{Mode: ModeSpeedKit, Seed: seed, Ops: ops, PrefetchLinks: k})
		if err != nil {
			return nil, err
		}
		st := r.Service.Stats()
		cd := r.Service.CDN().Stats()
		out.Rows = append(out.Rows, AblationA4Row{
			PrefetchK:    k,
			DeviceShare:  float64(r.TierCounts[proxy.SourceDevice]) / float64(r.Loads),
			ProductP50ms: r.LatencyByTier[proxy.SourceDevice].Quantile(0.5) / 1000,
			ServiceLoad:  st.OriginRenders + cd.Hits,
		})
	}
	return out, nil
}

// String renders the ablation.
func (a *AblationA4Result) String() string {
	var b strings.Builder
	b.WriteString("Ablation A4 — link prefetching\n")
	fmt.Fprintf(&b, "%10s %14s %16s %14s\n", "prefetch K", "device share", "device p50 [ms]", "service load")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%10d %13.1f%% %16.2f %14d\n", r.PrefetchK, r.DeviceShare*100, r.ProductP50ms, r.ServiceLoad)
	}
	return b.String()
}
