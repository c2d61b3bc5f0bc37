package obs

import (
	"sort"
	"sync"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/tracectx"
)

// The Δ-budget SLO: the paper's bounded-staleness promise, folded into
// operable telemetry. Every page load that consulted a sketch snapshot
// observes the fraction of the Δ staleness budget that snapshot had
// consumed (SketchAge/Δ). The SLO says a target fraction of loads stay
// within budget (frac <= 1.0); everything here — per-source budget
// histograms, trace-ID exemplars on the tail buckets, multi-window
// burn rates — exists to answer "which requests are burning the budget,
// how fast, and where is the trace that shows why".

// budgetBuckets are the upper bounds (inclusive) of the Δ-budget
// histogram, as fractions of Δ. Observations above the last bound land
// in the +Inf overflow bucket — those are the loads that breached the
// staleness budget outright.
var budgetBuckets = [...]float64{0.10, 0.25, 0.50, 0.75, 0.90, 1.00}

// sloMinute aggregates one minute of observations for burn-rate math.
type sloMinute struct {
	epochMin int64
	total    uint64
	breached uint64
}

// burnRingMinutes bounds the burn-rate lookback: the longest default
// window (6h) plus the in-progress minute.
const burnRingMinutes = 6*60 + 1

// Exemplar links a tail observation to the trace that produced it: the
// join key from an SLO dashboard to /debug/traces/<id>. It carries the
// anonymous trace identity only — no user, no session.
type Exemplar struct {
	TraceID tracectx.TraceID `json:"trace_id"`
	Source  string           `json:"source"`
	Budget  float64          `json:"budget"`
}

// SLOConfig configures NewDeltaSLO. The zero value works.
type SLOConfig struct {
	// Clock drives burn-rate windowing; default the coarse system clock.
	Clock clock.Clock
	// Registry receives the mirrored instruments; default obs.Default.
	Registry *Registry
	// Objective is the target fraction of loads within Δ budget.
	// Default 0.999.
	Objective float64
	// Windows are the burn-rate lookbacks, each at most 6h.
	// Default 5m, 30m, 6h.
	Windows []time.Duration
	// ExemplarTail is the budget fraction at and above which an
	// observation donates its trace ID as an exemplar. Default 0.75.
	ExemplarTail float64
	// ExemplarCap bounds retained exemplars (a ring, newest wins).
	// Default 32.
	ExemplarCap int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Clock == nil {
		c.Clock = clock.CoarseSystem
	}
	if c.Registry == nil {
		c.Registry = Default
	}
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{5 * time.Minute, 30 * time.Minute, 6 * time.Hour}
	}
	if c.ExemplarTail <= 0 {
		c.ExemplarTail = 0.75
	}
	if c.ExemplarCap <= 0 {
		c.ExemplarCap = 32
	}
	return c
}

// sloSource is the per-serving-tier staleness histogram. counts has one
// slot per budgetBuckets bound plus the +Inf overflow.
type sloSource struct {
	counts [len(budgetBuckets) + 1]uint64
	total  uint64
	sum    float64
	// permil mirrors the distribution into the registry (summary shape,
	// Δ-budget in thousandths) so /metrics carries it too.
	permil *Histogram
}

// DeltaSLO tracks the Δ-staleness SLO. A nil *DeltaSLO is fully
// disabled — Observe is a nil-check no-op — matching the *Tracer and
// *Logger contracts, so the proxy takes one without caring whether SLO
// telemetry is deployed.
type DeltaSLO struct {
	cfg SLOConfig

	mu        sync.Mutex
	sources   map[string]*sloSource
	ring      [burnRingMinutes]sloMinute
	exemplars []Exemplar
	exemNext  int

	burnGauges []*Gauge // one per cfg.Windows entry
}

// NewDeltaSLO creates the SLO tracker and registers its instruments:
// speedkit.slo.delta_budget_permil{source=...} (summary),
// speedkit.slo.burn_rate_millis{window=...} (gauge, burn rate x1000),
// and speedkit.slo.objective_millis (gauge).
func NewDeltaSLO(cfg SLOConfig) *DeltaSLO {
	cfg = cfg.withDefaults()
	s := &DeltaSLO{
		cfg:       cfg,
		sources:   make(map[string]*sloSource),
		exemplars: make([]Exemplar, 0, cfg.ExemplarCap),
	}
	for _, w := range cfg.Windows {
		s.burnGauges = append(s.burnGauges,
			cfg.Registry.Gauge("speedkit.slo.burn_rate_millis", L("window", w.String())))
	}
	cfg.Registry.Gauge("speedkit.slo.objective_millis").Set(int64(cfg.Objective * 1000))
	return s
}

// Observe records one page load: which tier served it, what fraction of
// the Δ budget the consulted snapshot had burned, and the trace that
// can explain it (zero TraceID when the load was unsampled — the
// observation still counts, it just cannot donate an exemplar).
func (s *DeltaSLO) Observe(source string, frac float64, tid tracectx.TraceID) {
	if s == nil {
		return
	}
	if frac < 0 {
		frac = 0
	}
	now := s.cfg.Clock.Now()

	s.mu.Lock()
	src, ok := s.sources[source]
	if !ok {
		src = &sloSource{
			permil: s.cfg.Registry.Histogram("speedkit.slo.delta_budget_permil", L("source", source)),
		}
		s.sources[source] = src
	}
	src.counts[bucketFor(frac)]++
	src.total++
	src.sum += frac

	min := now.Unix() / 60
	slot := &s.ring[int(min%burnRingMinutes+burnRingMinutes)%burnRingMinutes]
	if slot.epochMin != min {
		*slot = sloMinute{epochMin: min}
	}
	slot.total++
	breached := frac > 1.0
	if breached {
		slot.breached++
	}

	if frac >= s.cfg.ExemplarTail && !tid.IsZero() {
		ex := Exemplar{TraceID: tid, Source: source, Budget: frac}
		if len(s.exemplars) < s.cfg.ExemplarCap {
			s.exemplars = append(s.exemplars, ex)
		} else {
			s.exemplars[s.exemNext] = ex
		}
		s.exemNext = (s.exemNext + 1) % s.cfg.ExemplarCap
	}
	s.mu.Unlock()

	// Outside the lock: the registry instrument is itself thread-safe.
	src.permil.Observe(frac * 1000)
}

func bucketFor(frac float64) int {
	for i, ub := range budgetBuckets {
		if frac <= ub {
			return i
		}
	}
	return len(budgetBuckets)
}

// burnAt computes the burn rate over the trailing window ending at now:
// (breached/total) / (1 - objective). 1.0 means the error budget burns
// exactly as fast as it accrues; 0 when the window saw no traffic.
func (s *DeltaSLO) burnAt(nowMin int64, window time.Duration) (rate float64, total, breached uint64) {
	minutes := int64(window / time.Minute)
	if minutes < 1 {
		minutes = 1
	}
	for i := range s.ring {
		m := &s.ring[i]
		if m.epochMin > nowMin-minutes && m.epochMin <= nowMin && m.total > 0 {
			total += m.total
			breached += m.breached
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return (float64(breached) / float64(total)) / (1 - s.cfg.Objective), total, breached
}

// SLOWindow is one burn-rate window in a snapshot.
type SLOWindow struct {
	Window   string  `json:"window"`
	Total    uint64  `json:"total"`
	Breached uint64  `json:"breached"`
	BurnRate float64 `json:"burn_rate"`
}

// SLOSource is one serving tier's staleness distribution in a snapshot.
type SLOSource struct {
	Source string `json:"source"`
	// Buckets are cumulative counts per upper bound, +Inf last —
	// Prometheus histogram convention, so `le` math ports directly.
	Buckets []SLOBucket `json:"buckets"`
	Total   uint64      `json:"total"`
	Sum     float64     `json:"sum"`
}

// SLOBucket is one cumulative histogram bucket.
type SLOBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// SLOSnapshot is the /debug/slo JSON shape: everything deterministic —
// sources sorted, exemplars oldest-first, bucket bounds fixed.
type SLOSnapshot struct {
	Objective float64     `json:"objective"`
	Windows   []SLOWindow `json:"windows"`
	Sources   []SLOSource `json:"sources"`
	Exemplars []Exemplar  `json:"exemplars"`
}

// Snapshot captures the SLO state and refreshes the burn-rate gauges in
// the registry (burn x1000, clamped into int64), so a /metrics scrape
// preceded by a Snapshot — which is how the HTTP layer orders it — sees
// current burn. Safe for concurrent use; nil returns the zero snapshot.
func (s *DeltaSLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	nowMin := s.cfg.Clock.Now().Unix() / 60

	s.mu.Lock()
	defer s.mu.Unlock()

	snap := SLOSnapshot{Objective: s.cfg.Objective}
	for i, w := range s.cfg.Windows {
		rate, total, breached := s.burnAt(nowMin, w)
		snap.Windows = append(snap.Windows, SLOWindow{
			Window: w.String(), Total: total, Breached: breached, BurnRate: rate,
		})
		s.burnGauges[i].Set(int64(rate * 1000))
	}

	names := make([]string, 0, len(s.sources))
	for name := range s.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := s.sources[name]
		out := SLOSource{Source: name, Total: src.total, Sum: src.sum}
		var cum uint64
		for i, ub := range budgetBuckets {
			cum += src.counts[i]
			out.Buckets = append(out.Buckets, SLOBucket{LE: formatBound(ub), Count: cum})
		}
		cum += src.counts[len(budgetBuckets)]
		out.Buckets = append(out.Buckets, SLOBucket{LE: "+Inf", Count: cum})
		snap.Sources = append(snap.Sources, out)
	}

	// Exemplars oldest-first: replay order, deterministic under the
	// simulated clock.
	if len(s.exemplars) < s.cfg.ExemplarCap {
		snap.Exemplars = append(snap.Exemplars, s.exemplars...)
	} else {
		snap.Exemplars = append(snap.Exemplars, s.exemplars[s.exemNext:]...)
		snap.Exemplars = append(snap.Exemplars, s.exemplars[:s.exemNext]...)
	}
	if snap.Exemplars == nil {
		snap.Exemplars = []Exemplar{}
	}
	return snap
}

func formatBound(ub float64) string {
	// The fixed bounds are all two-decimal fractions; render them
	// stably without pulling in strconv float formatting subtleties.
	switch ub {
	case 0.10:
		return "0.10"
	case 0.25:
		return "0.25"
	case 0.50:
		return "0.50"
	case 0.75:
		return "0.75"
	case 0.90:
		return "0.90"
	case 1.00:
		return "1.00"
	}
	return "+Inf"
}
