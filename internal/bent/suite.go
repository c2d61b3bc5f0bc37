package bent

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Suite is one named benchmark suite from the checked-in registry: the
// benchmarks to run, where to run them, and how to judge the result
// against the committed baseline.
//
// Suite-file format (one suite per "<name>.suite" file, "key: value"
// lines, '#' comments and blank lines ignored):
//
//	name:       wal-append              # suite name (must match filename)
//	package:    ./internal/wal          # go test package path
//	bench:      ^BenchmarkWALAppend$    # -bench regexp
//	baseline:   BENCH_wal.json          # committed baseline, repo-relative
//	benchtime:  300x                    # default -benchtime for full runs
//	cpu:        4                       # optional -cpu value
//	noise:      0.60                    # allowed fractional ns/op growth
//	alloc-noise: 0                      # allowed allocs/op growth
//	alloc-noise BenchmarkX: 0           # the same, for one benchmark
//	note:       free-form provenance text
//
// noise is the suite's noise band: a benchmark regresses when its ns/op
// exceeds baseline*(1+noise*scale) (scale is the runner's -noise-scale).
// alloc-noise bounds allocs/op growth in absolute allocations and is NOT
// scaled — the zero-alloc gates stay tight no matter how noisy the box.
// "alloc-noise <name>" overrides it for the benchmark of that name (no -P
// suffix), which the bench regexp must select: a suite whose rows wobble
// by different amounts gates each at its own bound.
type Suite struct {
	Name       string
	Package    string
	Bench      string
	Baseline   string
	Benchtime  string
	CPU        string
	Noise      float64
	AllocNoise uint64
	// AllocNoiseFor holds the per-benchmark alloc-noise overrides, by
	// benchmark name; nil when the suite declares none.
	AllocNoiseFor map[string]uint64
	Note          string
}

// AllocBound is the allocs/op growth s allows the benchmark named name:
// its own alloc-noise line, else the suite's.
func (s Suite) AllocBound(name string) uint64 {
	if n, ok := s.AllocNoiseFor[name]; ok {
		return n
	}
	return s.AllocNoise
}

// defaultNoise is the noise band for suites that do not declare one:
// ±30% before scaling, roughly what a quiet shared box shows run-to-run
// for microsecond-scale benchmarks.
const defaultNoise = 0.30

// ParseSuite parses one suite file.
func ParseSuite(path string, data []byte) (Suite, error) {
	s := Suite{Noise: defaultNoise}
	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return Suite{}, fmt.Errorf("%s:%d: not a 'key: value' line: %q", path, ln+1, raw)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if bench, ok := strings.CutPrefix(key, "alloc-noise "); ok {
			bench = strings.TrimSpace(bench)
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || bench == "" {
				return Suite{}, fmt.Errorf("%s:%d: bad alloc-noise override %q", path, ln+1, raw)
			}
			if s.AllocNoiseFor == nil {
				s.AllocNoiseFor = make(map[string]uint64)
			}
			s.AllocNoiseFor[bench] = n
			continue
		}
		switch key {
		case "name":
			s.Name = val
		case "package":
			s.Package = val
		case "bench":
			s.Bench = val
		case "baseline":
			s.Baseline = val
		case "benchtime":
			s.Benchtime = val
		case "cpu":
			s.CPU = val
		case "noise":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return Suite{}, fmt.Errorf("%s:%d: bad noise %q", path, ln+1, val)
			}
			s.Noise = f
		case "alloc-noise":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Suite{}, fmt.Errorf("%s:%d: bad alloc-noise %q", path, ln+1, val)
			}
			s.AllocNoise = n
		case "note":
			s.Note = val
		default:
			return Suite{}, fmt.Errorf("%s:%d: unknown key %q", path, ln+1, key)
		}
	}
	if s.Name == "" || s.Package == "" || s.Bench == "" {
		return Suite{}, fmt.Errorf("%s: name, package and bench are required", path)
	}
	if want := strings.TrimSuffix(filepath.Base(path), ".suite"); s.Name != want {
		return Suite{}, fmt.Errorf("%s: suite name %q does not match filename", path, s.Name)
	}
	if len(s.AllocNoiseFor) > 0 {
		// An override naming no benchmark the suite runs would gate
		// nothing, and the row it meant would keep the suite's bound.
		re, err := regexp.Compile(s.Bench)
		if err != nil {
			return Suite{}, fmt.Errorf("%s: bad bench regexp: %v", path, err)
		}
		for bench := range s.AllocNoiseFor {
			if top, _, _ := strings.Cut(bench, "/"); !re.MatchString(top) {
				return Suite{}, fmt.Errorf("%s: alloc-noise override for %q, which bench %q does not select", path, bench, s.Bench)
			}
		}
	}
	return s, nil
}

// LoadSuites reads every *.suite file in dir, sorted by name.
func LoadSuites(dir string) ([]Suite, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.suite"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.suite files in %s", dir)
	}
	sort.Strings(paths)
	suites := make([]Suite, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		s, err := ParseSuite(p, data)
		if err != nil {
			return nil, err
		}
		suites = append(suites, s)
	}
	return suites, nil
}
