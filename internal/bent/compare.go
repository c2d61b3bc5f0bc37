package bent

import "fmt"

// Regression is one benchmark that fell outside its suite's noise band
// relative to the committed baseline.
type Regression struct {
	Suite string `json:"suite"`
	Name  string `json:"name"`
	// Metric is "ns/op", "allocs/op", or "missing".
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Allowed is the band edge the current value exceeded.
	Allowed float64 `json:"allowed"`
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: %s: benchmark missing from current run (baseline %.6g ns/op)",
			r.Suite, r.Name, r.Baseline)
	}
	return fmt.Sprintf("%s: %s: %s %.6g exceeds allowed %.6g (baseline %.6g)",
		r.Suite, r.Name, r.Metric, r.Current, r.Allowed, r.Baseline)
}

// CanonicalName is the identity a benchmark is matched under: the parsed
// name with any procs suffix reattached. Splitting a result line at the
// last dash cannot tell a GOMAXPROCS suffix from a trailing numeric
// sub-benchmark parameter ("appenders-8" on a GOMAXPROCS=1 box parses as
// name "appenders", procs 8), so matching on the reconstituted full name
// is the only lossless identity. It is stable as long as runs pin -cpu,
// which every suite with parameterized benchmarks does.
func CanonicalName(r Result) string {
	if r.Procs > 0 {
		return fmt.Sprintf("%s-%d", r.Name, r.Procs)
	}
	return r.Name
}

// Compare diffs a fresh run against the committed baseline for a suite.
// Every baseline benchmark must be present in the current run and inside
// the noise band: ns/op may grow to baseline*(1+noise*scale); allocs/op
// may grow by at most the benchmark's absolute alloc-noise (AllocBound;
// never scaled, so zero-alloc promises stay hard). New benchmarks with no baseline entry
// are ignored — they start gating once the baseline is regenerated.
// Matching is by CanonicalName, so baselines seeded on a box with a
// different GOMAXPROCS default still line up as long as the suite pins
// -cpu.
func Compare(s Suite, current, baseline Report, scale float64) []Regression {
	if scale <= 0 {
		scale = 1
	}
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[CanonicalName(r)] = r
	}
	var regs []Regression
	for _, base := range baseline.Benchmarks {
		got, ok := cur[CanonicalName(base)]
		if !ok {
			regs = append(regs, Regression{
				Suite: s.Name, Name: CanonicalName(base), Metric: "missing",
				Baseline: base.NsPerOp,
			})
			continue
		}
		if allowed := base.NsPerOp * (1 + s.Noise*scale); got.NsPerOp > allowed {
			regs = append(regs, Regression{
				Suite: s.Name, Name: CanonicalName(base), Metric: "ns/op",
				Baseline: base.NsPerOp, Current: got.NsPerOp, Allowed: allowed,
			})
		}
		if base.AllocsPerOp != nil && got.AllocsPerOp != nil {
			if allowed := *base.AllocsPerOp + s.AllocBound(base.Name); *got.AllocsPerOp > allowed {
				regs = append(regs, Regression{
					Suite: s.Name, Name: CanonicalName(base), Metric: "allocs/op",
					Baseline: float64(*base.AllocsPerOp),
					Current:  float64(*got.AllocsPerOp),
					Allowed:  float64(allowed),
				})
			}
		}
	}
	return regs
}
