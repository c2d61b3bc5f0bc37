// Package bent is the continuous benchmark harness behind
// cmd/speedkit-bent: named benchmark suites declared in checked-in
// .suite files, machine-readable runs of `go test -bench`, and
// regression comparison against committed BENCH_<suite>.json baselines.
//
// The package is three small layers, each usable alone:
//
//   - parsing: Parse turns `go test -bench` text output into a Report;
//   - suites: LoadSuites reads the declarative suite registry;
//   - comparison: Compare diffs a fresh Report against a baseline Report
//     within a configurable noise band and reports regressions.
//
// Everything is stdlib-only and deterministic: no clock reads, no
// network; provenance notes are passed in by callers.
package bent

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name without the -P GOMAXPROCS suffix. For
	// sub-benchmarks the suffix is cut at the LAST dash, so
	// "BenchmarkWALAppend/durable/appenders-8-1" parses as name
	// ".../appenders-8" at procs 1 — stable across -cpu settings.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (0 if unsuffixed).
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N for the final run.
	Iterations uint64 `json:"iterations"`
	// NsPerOp is the headline latency.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from -benchmem; nil when absent.
	BytesPerOp  *uint64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *uint64 `json:"allocs_per_op,omitempty"`
}

// Report is the machine-readable form of one benchmark run — the
// document committed as BENCH_<suite>.json and diffed by Compare.
type Report struct {
	// Suite names the suite that produced the run.
	Suite string `json:"suite,omitempty"`
	// Note describes the provenance of the numbers.
	Note string `json:"note,omitempty"`
	// Goos/Goarch/CPU/Pkg echo the context lines go test prints.
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Parse consumes `go test -bench` output and extracts context plus
// results.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := ParseLine(line)
			if !ok {
				continue
			}
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	return rep, sc.Err()
}

// ParseLine parses one result line, e.g.
//
//	BenchmarkParallelCacheGet-4  35077526  35.50 ns/op  0 B/op  0 allocs/op
//	BenchmarkWALAppend/durable/appenders-8-1  300  25626 ns/op  0 allocs/op
//
// The GOMAXPROCS suffix is cut at the last dash so sub-benchmark names
// containing dashes keep their identity.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	var res Result
	res.Name = fields[0]
	if i := strings.LastIndex(fields[0], "-"); i > 0 {
		if p, err := strconv.Atoi(fields[0][i+1:]); err == nil {
			res.Name, res.Procs = fields[0][:i], p
		}
	}
	iter, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Iterations = iter
	// Remaining fields are value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				res.NsPerOp = v
			}
		case "B/op":
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				res.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				res.AllocsPerOp = &v
			}
		}
	}
	return res, res.NsPerOp > 0
}

// ReadReport loads a committed BENCH_<suite>.json document.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// WriteReport writes rep as indented JSON, the committed-baseline form.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
