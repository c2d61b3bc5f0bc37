package speedkit_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
)

// loadBudget is what a load allocates in each product package, per
// topology of loadCases: DESIGN.md's "Where a load goes" table. A package
// a row does not name is budgeted 0. net/http and whatever no product
// frame allocates are printed, not gated here: the load suite's rows gate
// them with the rest of each load.
var loadBudget = map[string]map[string]int{
	"edge_hit": {
		"cache": 6, "edge": 2, "httpbody": 2, "httpclient": 1, "proxy": 1, "cachesketch": 1,
	},
	"edge_miss": {
		"cache": 12, "edge": 9, "proxy": 5, "httpbody": 3, "httpclient": 3,
		"origin": 2, "cachesketch": 2, "httpapi": 2, "core": 1,
	},
	"direct_personalized": {
		"httpbody": 9, "cache": 6, "httpclient": 5, "httpapi": 3, "proxy": 3,
		"core": 1, "origin": 1, "cachesketch": 1,
	},
	"revalidate": {
		"edge": 2, "httpbody": 2, "httpclient": 2,
	},
}

// Layers that are printed but not gated.
const (
	layerHTTP  = "net/http"
	layerOther = "other"
)

// TestWhereALoadGoes splits each BenchmarkLoad topology's allocations by
// the package that makes them and holds every product package to its
// budget: one allocation more anywhere fails, naming the package and
// printing its stacks. It reads the heap profile at a rate of 1, so every
// allocation of the process is counted; an allocation belongs to the
// nearest speedkit/internal/<pkg> or net/http frame on its stack. An
// edge_miss op's purge is measured alone over as many ops and taken off.
// Under -v, and on a failure, it prints the measured rows in the format of
// DESIGN.md's table; re-recording the budget is editing loadBudget.
func TestWhereALoadGoes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four loopback topologies")
	}
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const loads = 200
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	var rows []string
	for _, c := range loadCases {
		t.Run(c.name, func(t *testing.T) {
			op := c.build(t)
			got := allocsByLayer(func() {
				for i := 0; i < loads; i++ {
					if op.prepare != nil {
						op.prepare()
					}
					op.run()
				}
			})
			if op.prepare != nil {
				got.sub(allocsByLayer(func() {
					for i := 0; i < loads; i++ {
						op.prepare()
					}
				}))
			}
			per := got.perLoad(loads)
			rows = append(rows, layerRow(c.name, per, got.total(), loads))
			for _, pkg := range sortedKeys(per) {
				if pkg == layerHTTP || pkg == layerOther {
					continue
				}
				if want := loadBudget[c.name][pkg]; per[pkg] > want {
					t.Errorf("%s allocates %d per load in %s, budget %d (%.2f measured); its stacks, largest first:\n%s",
						c.name, per[pkg], pkg, want, float64(got.count[pkg])/loads, got.stacks(pkg, loads))
				}
			}
		})
	}
	if t.Failed() || testing.Verbose() {
		t.Logf("allocations per load, %d loads per topology:\n"+
			"| Topology | Profiled | `net/http` | Other | Product's own, by package |\n"+
			"|---|---|---|---|---|\n%s", loads, strings.Join(rows, "\n"))
	}
}

// layerAllocs is a window's allocations by layer, and by stack within it.
type layerAllocs struct {
	count   map[string]int64
	byStack map[string][]stackCount
}

type stackCount struct {
	pcs []uintptr
	n   int64
}

// allocsByLayer runs fn between two reads of the heap profile and returns
// the allocations the difference holds, by layer. Nothing is tallied
// before the second read, so the tally's own allocations stay out.
func allocsByLayer(fn func()) layerAllocs {
	before := memProfile()
	fn()
	after := memProfile()
	seen := make(map[[32]uintptr]int64, len(before))
	for _, r := range before {
		seen[r.Stack0] += r.AllocObjects
	}
	byStack := make(map[[32]uintptr]int64, len(after))
	for _, r := range after {
		byStack[r.Stack0] += r.AllocObjects
	}
	la := layerAllocs{count: map[string]int64{}, byStack: map[string][]stackCount{}}
	for stk, n := range byStack {
		if n -= seen[stk]; n <= 0 {
			continue
		}
		pcs := (&runtime.StackRecord{Stack0: stk}).Stack()
		layer := layerOf(pcs)
		la.count[layer] += n
		la.byStack[layer] = append(la.byStack[layer], stackCount{pcs, n})
	}
	return la
}

// memProfile reads the heap profile, which stands as of the garbage
// collection cycle before the last: it follows three.
func memProfile() []runtime.MemProfileRecord {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// sub takes o's counts off la's. The stacks stay la's.
func (la layerAllocs) sub(o layerAllocs) {
	for layer, n := range o.count {
		la.count[layer] -= n
	}
}

func (la layerAllocs) total() int64 {
	var sum int64
	for _, n := range la.count {
		sum += n
	}
	return sum
}

// perLoad is each layer's count over loads, rounded to the nearest
// integer: a count that is the same every load divides exactly, and a
// background allocation now and then stays below a half.
func (la layerAllocs) perLoad(loads int) map[string]int {
	per := make(map[string]int, len(la.count))
	for layer, n := range la.count {
		if r := int(math.Round(float64(n) / float64(loads))); r != 0 {
			per[layer] = r
		}
	}
	return per
}

// layerOf names the nearest frame of a stack that is a product package
// or net/http.
func layerOf(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if pkg, ok := strings.CutPrefix(f.Function, "speedkit/internal/"); ok {
			return pkg[:strings.IndexAny(pkg, "./")]
		}
		if strings.HasPrefix(f.Function, "net/http.") || strings.HasPrefix(f.Function, "net/http/") {
			return layerHTTP
		}
		if !more {
			return layerOther
		}
	}
}

// stacks prints the layer's stacks that allocate at least once every two
// loads, largest first, each from the allocation out to the op.
func (la layerAllocs) stacks(layer string, loads int) string {
	stks := la.byStack[layer]
	sort.Slice(stks, func(i, j int) bool { return stks[i].n > stks[j].n })
	var b strings.Builder
	for _, sc := range stks {
		if 2*sc.n < int64(loads) {
			break
		}
		fmt.Fprintf(&b, "%.2f per load:\n", float64(sc.n)/float64(loads))
		frames := runtime.CallersFrames(sc.pcs)
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			more = more && !strings.HasPrefix(f.Function, "speedkit_test.")
		}
	}
	return b.String()
}

// layerRow is one topology's row of DESIGN.md's table: the profiled
// allocations per load, net/http's and the rest's, then the product's own
// by package, largest first.
func layerRow(name string, per map[string]int, total int64, loads int) string {
	pkgs, own := []string(nil), 0
	for _, pkg := range sortedKeys(per) {
		if pkg != layerHTTP && pkg != layerOther {
			pkgs = append(pkgs, pkg)
			own += per[pkg]
		}
	}
	sort.SliceStable(pkgs, func(i, j int) bool { return per[pkgs[i]] > per[pkgs[j]] })
	parts := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		parts[i] = fmt.Sprintf("`%s` %d", pkg, per[pkg])
	}
	return fmt.Sprintf("| `%s` | %.1f | %d | %d | %d: %s |",
		name, float64(total)/float64(loads), per[layerHTTP], per[layerOther], own, strings.Join(parts, ", "))
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// raceEnabled reports whether the test binary was built with the race
// detector.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
