package bent

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func u64(v uint64) *uint64 { return &v }

func TestParseLineSimple(t *testing.T) {
	res, ok := ParseLine("BenchmarkParallelCacheGet-4  35077526  35.50 ns/op  0 B/op  0 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if res.Name != "BenchmarkParallelCacheGet" || res.Procs != 4 {
		t.Fatalf("name/procs = %q/%d", res.Name, res.Procs)
	}
	if res.Iterations != 35077526 || res.NsPerOp != 35.50 {
		t.Fatalf("iter/ns = %d/%v", res.Iterations, res.NsPerOp)
	}
	if res.BytesPerOp == nil || *res.BytesPerOp != 0 || res.AllocsPerOp == nil || *res.AllocsPerOp != 0 {
		t.Fatalf("benchmem fields = %v/%v", res.BytesPerOp, res.AllocsPerOp)
	}
}

// Sub-benchmark names carry dashes of their own; the procs suffix is the
// LAST dash-number, and the parameter dashes stay in the name.
func TestParseLineSubBenchmarkNames(t *testing.T) {
	cases := []struct {
		line, name string
		procs      int
	}{
		{"BenchmarkWALAppend/durable/appenders-8-1  300  25626 ns/op  0 allocs/op",
			"BenchmarkWALAppend/durable/appenders-8", 1},
		{"BenchmarkInvalidationMatching/shards-8-4  2000  7525 ns/op",
			"BenchmarkInvalidationMatching/shards-8", 4},
		{"BenchmarkNoProcsSuffix  100  50.0 ns/op", "BenchmarkNoProcsSuffix", 0},
	}
	for _, c := range cases {
		res, ok := ParseLine(c.line)
		if !ok {
			t.Fatalf("rejected: %s", c.line)
		}
		if res.Name != c.name || res.Procs != c.procs {
			t.Fatalf("line %q: name/procs = %q/%d, want %q/%d",
				c.line, res.Name, res.Procs, c.name, c.procs)
		}
	}
}

func TestParseReport(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: speedkit/internal/wal
cpu: Intel(R) Xeon(R)
BenchmarkWALAppend/durable/appenders-8-1   300   25626 ns/op   0 B/op  0 allocs/op
BenchmarkWALAppend/durable/appenders-1-1   300  262165 ns/op   0 B/op  0 allocs/op
PASS
ok  	speedkit/internal/wal	1.2s
`
	rep, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Pkg != "speedkit/internal/wal" {
		t.Fatalf("context = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks", len(rep.Benchmarks))
	}
	if b := rep.Benchmarks[1]; b.Name != "BenchmarkWALAppend/durable/appenders-1" || b.NsPerOp != 262165 {
		t.Fatalf("second benchmark = %+v", b)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	rep := Report{
		Suite: "wal-append",
		Goos:  "linux",
		Benchmarks: []Result{
			{Name: "B/a-1", Procs: 1, Iterations: 10, NsPerOp: 100, AllocsPerOp: u64(0)},
		},
	}
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != rep.Suite || len(got.Benchmarks) != 1 ||
		got.Benchmarks[0] != rep.Benchmarks[0] && *got.Benchmarks[0].AllocsPerOp != 0 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestParseSuite(t *testing.T) {
	data := []byte(`# WAL append throughput
name: wal-append
package: ./internal/wal
bench: ^BenchmarkWALAppend$
baseline: BENCH_wal.json
benchtime: 300x   # keep full runs under a second
noise: 0.60
alloc-noise: 0
note: measured on the seed box
`)
	s, err := ParseSuite("benchsuites/wal-append.suite", data)
	if err != nil {
		t.Fatal(err)
	}
	want := Suite{
		Name: "wal-append", Package: "./internal/wal", Bench: "^BenchmarkWALAppend$",
		Baseline: "BENCH_wal.json", Benchtime: "300x", Noise: 0.60,
		AllocNoise: 0, Note: "measured on the seed box",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("suite = %+v, want %+v", s, want)
	}
}

// TestAllocNoiseOverride: an "alloc-noise <name>" line bounds that one
// benchmark's allocs/op growth, in either direction from the suite's, and
// the suite's bound still holds for every other row.
func TestAllocNoiseOverride(t *testing.T) {
	s, err := ParseSuite("benchsuites/edge.suite", []byte(`name: edge
package: ./internal/edge
bench: ^BenchmarkEdge(Hit|CoalescedMiss|Purge)$
alloc-noise: 64
alloc-noise BenchmarkEdgeHit: 0   # the hit path is exact
alloc-noise BenchmarkEdgePurge: 80
`))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]uint64{"BenchmarkEdgeHit": 0, "BenchmarkEdgePurge": 80}; !reflect.DeepEqual(s.AllocNoiseFor, want) || s.AllocNoise != 64 {
		t.Fatalf("alloc-noise %d, overrides %v, want 64 and %v", s.AllocNoise, s.AllocNoiseFor, want)
	}
	base := Report{Benchmarks: []Result{
		{Name: "BenchmarkEdgeHit", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(5)},
		{Name: "BenchmarkEdgeCoalescedMiss", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(300)},
		{Name: "BenchmarkEdgePurge", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(60)},
	}}
	run := func(hit, miss, purge uint64) []string {
		cur := Report{Benchmarks: []Result{
			{Name: "BenchmarkEdgeHit", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(hit)},
			{Name: "BenchmarkEdgeCoalescedMiss", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(miss)},
			{Name: "BenchmarkEdgePurge", Procs: 4, NsPerOp: 100, AllocsPerOp: u64(purge)},
		}}
		var out []string
		for _, r := range Compare(s, cur, base, 1) {
			out = append(out, fmt.Sprintf("%s %s %.0f", r.Name, r.Metric, r.Allowed))
		}
		return out
	}
	if regs := run(5, 364, 140); len(regs) != 0 {
		t.Fatalf("every row at its bound: %v", regs)
	}
	if regs := run(6, 364, 140); !reflect.DeepEqual(regs, []string{"BenchmarkEdgeHit-4 allocs/op 5"}) {
		t.Fatalf("one allocation more on the hit: %v", regs)
	}
	if regs := run(5, 365, 141); !reflect.DeepEqual(regs, []string{"BenchmarkEdgeCoalescedMiss-4 allocs/op 364", "BenchmarkEdgePurge-4 allocs/op 140"}) {
		t.Fatalf("past the suite's and the purge's bounds: %v", regs)
	}

	for _, c := range []struct{ data, wantErr string }{
		{"alloc-noise BenchmarkEdgeHit: -1", "bad alloc-noise override"},
		{"alloc-noise BenchmarkEdgeHit: 1.5", "bad alloc-noise override"},
		{"alloc-noise BenchmarkEdgeHits: 0", "does not select"},
	} {
		data := "name: edge\npackage: .\nbench: ^BenchmarkEdge(Hit|Purge)$\n" + c.data
		if _, err := ParseSuite("edge.suite", []byte(data)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: err = %v, want containing %q", c.data, err, c.wantErr)
		}
	}
}

func TestParseSuiteErrors(t *testing.T) {
	cases := []struct{ name, data, wantErr string }{
		{"x.suite", "name: x\npackage: .", "bench"},
		{"x.suite", "name: y\npackage: .\nbench: B", "does not match filename"},
		{"x.suite", "name: x\npackage: .\nbench: B\nnoise: -1", "bad noise"},
		{"x.suite", "name: x\npackage: .\nbench: B\nwibble: 3", "unknown key"},
		{"x.suite", "just some text", "key: value"},
	}
	for _, c := range cases {
		if _, err := ParseSuite(c.name, []byte(c.data)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("data %q: err = %v, want containing %q", c.data, err, c.wantErr)
		}
	}
}

// The same benchmark line splits differently depending on the machine's
// GOMAXPROCS ("appenders-8" alone vs "appenders-8-4"): CanonicalName must
// reconstitute the same identity either way the parse went.
func TestCanonicalNameReattachesSuffix(t *testing.T) {
	onProcs1, _ := ParseLine("BenchmarkWALAppend/durable/appenders-8  300  25626 ns/op")
	if got := CanonicalName(onProcs1); got != "BenchmarkWALAppend/durable/appenders-8" {
		t.Fatalf("canonical = %q", got)
	}
	plain, _ := ParseLine("BenchmarkFilterContains  100  20 ns/op")
	if got := CanonicalName(plain); got != "BenchmarkFilterContains" {
		t.Fatalf("canonical = %q", got)
	}
}

func TestCompareMatchesByCanonicalName(t *testing.T) {
	s := Suite{Name: "wal-append", Noise: 0.5}
	// Baseline recorded name "…/appenders" with procs 8 (param eaten by
	// the suffix cut on a GOMAXPROCS=1 box); current run parsed the same
	// way. They must match, and a different appender count must not.
	base := Report{Benchmarks: []Result{
		{Name: "B/appenders", Procs: 8, NsPerOp: 100},
	}}
	cur := Report{Benchmarks: []Result{
		{Name: "B/appenders", Procs: 16, NsPerOp: 1},
		{Name: "B/appenders", Procs: 8, NsPerOp: 110},
	}}
	if regs := Compare(s, cur, base, 1); len(regs) != 0 {
		t.Fatalf("canonical match failed: %v", regs)
	}
	if regs := Compare(s, Report{Benchmarks: cur.Benchmarks[:1]}, base, 1); len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("wrong-param entry matched: %v", regs)
	}
}

func TestCompare(t *testing.T) {
	s := Suite{Name: "wal-append", Noise: 0.5, AllocNoise: 0}
	base := Report{Benchmarks: []Result{
		{Name: "B/fast", NsPerOp: 100, AllocsPerOp: u64(0)},
		{Name: "B/slow", NsPerOp: 1000, AllocsPerOp: u64(2)},
		{Name: "B/gone", NsPerOp: 50},
	}}
	cur := Report{Benchmarks: []Result{
		{Name: "B/fast", NsPerOp: 149, AllocsPerOp: u64(0)},  // inside band
		{Name: "B/slow", NsPerOp: 1600, AllocsPerOp: u64(3)}, // ns + allocs regress
		{Name: "B/new", NsPerOp: 5},                          // no baseline: ignored
	}}
	regs := Compare(s, cur, base, 1)
	if len(regs) != 3 {
		t.Fatalf("regressions = %v", regs)
	}
	kinds := map[string]bool{}
	for _, r := range regs {
		kinds[r.Name+"|"+r.Metric] = true
		if r.Suite != "wal-append" {
			t.Fatalf("suite = %q", r.Suite)
		}
	}
	for _, want := range []string{"B/slow|ns/op", "B/slow|allocs/op", "B/gone|missing"} {
		if !kinds[want] {
			t.Fatalf("missing regression %s in %v", want, regs)
		}
	}
	// Widening the scale clears the ns/op finding but never the alloc or
	// missing ones — alloc bands are absolute, missing is missing.
	regs = Compare(s, cur, base, 10)
	if len(regs) != 2 {
		t.Fatalf("scaled regressions = %v", regs)
	}
	for _, r := range regs {
		if r.Metric == "ns/op" {
			t.Fatalf("ns/op finding survived wide scale: %v", r)
		}
	}
}

func TestLoadSuitesFromRepo(t *testing.T) {
	// The checked-in registry must parse and contain the twelve suites
	// the harness promises.
	suites, err := LoadSuites("../../benchsuites")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"api", "cache-evict", "cluster-matching", "durable", "edge", "end-to-end-pageload", "hotpath", "invalidation-matching", "load", "obs", "store", "wal-append"}
	if len(suites) != len(want) {
		t.Fatalf("loaded %d suites, want %d", len(suites), len(want))
	}
	for i, s := range suites {
		if s.Name != want[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, s.Name, want[i])
		}
		if s.Baseline == "" {
			t.Fatalf("suite %q has no baseline", s.Name)
		}
	}
}
