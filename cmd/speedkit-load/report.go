package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// results is what -all writes and -compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Go        string                     `json:"go"`
	Visitors  int                        `json:"visitors"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult joins a workload's untraced runs and its traced run.
type workloadResult struct {
	// Runs is how many untraced runs EndToEnd summarises.
	Runs int `json:"runs"`
	// EndToEnd holds each metric's median over those runs, write latency
	// too where the workload writes; Spread the distance between their
	// quartiles as a share of that median.
	EndToEnd map[string]metricValue `json:"end_to_end"`
	Spread   map[string]float64     `json:"spread"`
	// Checks sums the checks of the untraced runs.
	Checks checks `json:"checks"`
	// The traced run's per-layer numbers and its own checks.
	PerLayer     map[string]metricValue `json:"per_layer"`
	TracedChecks checks                 `json:"traced_checks"`
}

// allRuns is how many untraced runs of each workload -all takes the
// medians of: the fewest that have quartiles.
const allRuns = 5

// runAll runs the four workloads, allRuns times untraced then once
// traced, each run in a fresh process of this executable, so heap state
// and rusage never carry over from one to the next.
func runAll(out io.Writer, seed int64, seconds int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("find own executable: %w", err)
	}
	res := results{Seed: seed, Seconds: seconds, Go: runtime.Version(), Visitors: visitorCount(), Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{Runs: allRuns}
		res.Workloads[w.Name] = wr
		var runs []map[string]metricValue
		for i := 0; i < allRuns; i++ {
			o, dt, err := runChild(out, exe, w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if dt.Writes > 0 {
				o.Metrics[writeLatency[0].Name] = metricValue{Value: dt.WriteP50us, Unit: writeLatency[0].Unit}
				o.Metrics[writeLatency[1].Name] = metricValue{Value: dt.WriteP99us, Unit: writeLatency[1].Unit}
			}
			runs = append(runs, o.Metrics)
			wr.Checks.add(dt.Checks)
		}
		wr.EndToEnd, wr.Spread = summarise(runs)
		o, dt, err := runChild(out, exe, w.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		wr.PerLayer, wr.TracedChecks = o.Metrics, dt.Checks
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// quartiles returns the first, second and third quartile of sorted, as
// Python's statistics.quantiles(values, n=4) gives them.
func quartiles(sorted []float64) (q [3]float64) {
	n := len(sorted)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		frac := float64(i*(n+1)-j*4) / 4
		q[i-1] = sorted[j-1]*(1-frac) + sorted[j]*frac
	}
	return q
}

// summarise reduces runs of one workload to each metric's median and
// spread. With fewer than two runs the spread is left out.
func summarise(runs []map[string]metricValue) (map[string]metricValue, map[string]float64) {
	medians, spreads := map[string]metricValue{}, map[string]float64{}
	for name, first := range runs[0] {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r[name].Value)
		}
		sort.Float64s(vals)
		if len(vals) < 2 {
			medians[name] = first
			continue
		}
		q := quartiles(vals)
		medians[name] = metricValue{Value: q[1], Unit: first.Unit}
		if q[1] != 0 {
			spreads[name] = (q[2] - q[0]) / q[1]
		}
	}
	return medians, spreads
}

// runChild runs one workload in a child process, passes its report
// through to out, and parses the detail and the outcome from its last
// two lines.
func runChild(out io.Writer, exe, name string, seed int64, seconds, trace int) (*outcome, *detail, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if runErr == nil && len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s (trace %d): printed no detail and outcome", name, trace)
	}
	report := lines[:max(len(lines)-2, 0)]
	for _, l := range report {
		fmt.Fprintf(out, "%s\n", l)
	}
	if runErr != nil {
		return nil, nil, fmt.Errorf("%s (trace %d): %w", name, trace, runErr)
	}
	var o outcome
	var dt detail
	for i, v := range []any{&dt, &o} {
		if err := json.Unmarshal(lines[len(report)+i], v); err != nil {
			return nil, nil, fmt.Errorf("%s (trace %d): the last two lines are not detail and outcome: %w", name, trace, err)
		}
	}
	return &o, &dt, nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a as a share of a, positive
// when worse, whichever direction the metric improves in.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric (write
// latency too, where the workload writes), both medians, the relative
// change, the bound and the wider of the two spreads. A metric that
// worsened past its bound is a regression, unless the runs of either
// side spread wider than the bound: then the difference is unresolved,
// whichever way it points. It returns an error on a regression, when the
// share of failed ops rose, or when the share of ops with a known defect
// (unpersonalized, stale reads) rose by more than its tolerance.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	flagged := 0
	// share prints a count of ops on both sides and flags a rise of its
	// share of the ops attempted beyond tolerance.
	share := func(name, flag string, na, ofA, nb, ofB int, tolerance float64) {
		mark := ""
		if float64(nb)/float64(max(ofB, 1)) > float64(na)/float64(max(ofA, 1))+tolerance {
			mark = "  " + flag
			flagged++
		}
		fmt.Fprintf(out, "  %-20s %9d/%-8d %9d/%-8d%s\n", name, na, ofA, nb, ofB, mark)
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("%s: missing from one of the files", w.Name)
		}
		fmt.Fprintf(out, "%s (medians of %d and %d runs)\n", w.Name, wa.Runs, wb.Runs)
		specs := endToEnd
		if w.writeShare > 0 {
			specs = append(specs[:len(specs):len(specs)], writeLatency[:]...)
		}
		for _, m := range specs {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := worsening(m, va, vb)
			spread := max(wa.Spread[m.Name], wb.Spread[m.Name])
			word, mark := "worse", ""
			switch {
			case spread > m.Bound:
				mark = "  UNRESOLVED"
			case worse > m.Bound:
				mark = "  OUTSIDE BOUND"
				flagged++
			}
			if worse < 0 {
				word, worse = "better", -worse
			}
			fmt.Fprintf(out, "  %-20s %14.4f %14.4f %-6s %6.2f%% %-6s (bound %.0f%%, spread %.2f%%)%s\n",
				m.Name, va, vb, m.Unit, 100*worse, word, 100*m.Bound, 100*spread, mark)
		}
		share("failed/attempted", "FAILURES ROSE", wa.Checks.Failed, wa.Checks.Attempted, wb.Checks.Failed, wb.Checks.Attempted, 0)
		share("unpersonalized", "UNPERSONALIZED ROSE", wa.Checks.Unpersonalized, wa.Checks.Attempted, wb.Checks.Unpersonalized, wb.Checks.Attempted, unpersonalizedRise)
		share("stale reads", "STALE READS ROSE", wa.Checks.Stale+wa.Checks.StaleUnstamped, wa.Checks.Attempted, wb.Checks.Stale+wb.Checks.StaleUnstamped, wb.Checks.Attempted, staleShare)
	}
	if flagged > 0 {
		return fmt.Errorf("%d regressions between %s and %s", flagged, pathA, pathB)
	}
	return nil
}
