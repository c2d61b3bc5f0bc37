package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/workload"
)

func TestOpListsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		paths := newPathTable(w)
		a := opLists(w, paths, 1, 2, 2, 2000)
		b := opLists(w, paths, 1, 2, 2, 2000)
		c := opLists(w, paths, 2, 2, 2, 2000)
		if !reflect.DeepEqual(a, b) || opsHash(a) != opsHash(b) {
			t.Errorf("%s: equal seeds gave different op lists", w.Name)
		}
		if reflect.DeepEqual(a, c) || opsHash(a) == opsHash(c) {
			t.Errorf("%s: different seeds gave equal op lists", w.Name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: two visitors got the same op list", w.Name)
		}
		// A longer list extends a shorter one: the seed fixes the ops, the
		// run length only how many are made.
		if long := opLists(w, paths, 1, 2, 2, 3000); !reflect.DeepEqual(a[0], long[0][:2000]) {
			t.Errorf("%s: a longer list does not start with the shorter one", w.Name)
		}
		var writes, fresh, loads int
		for _, o := range a[0] {
			if o.kind == opWrite {
				writes++
				continue
			}
			loads++
			if o.fresh {
				fresh++
			}
		}
		if got := float64(writes) / 2000; math.Abs(got-w.writeShare) > 0.03 {
			t.Errorf("%s: write share %.3f, want %.2f", w.Name, got, w.writeShare)
		}
		if want := (loads + w.session - 1) / w.session; fresh != want {
			t.Errorf("%s: %d fresh devices over %d loads, want %d", w.Name, fresh, loads, want)
		}
	}
}

func TestFacetBandsTileThePriceRange(t *testing.T) {
	const n = 2048
	k := len(workload.Categories)
	for j := 0; j < n; j++ {
		lo, hi := facetRange(n, j)
		if !(lo < hi) {
			t.Fatalf("facet %d: empty band [%v, %v)", j, lo, hi)
		}
		if facetBand(j) == 0 && lo != priceLo {
			t.Errorf("facet %d: first band starts at %v", j, lo)
		}
		switch nextLo, _ := facetRange(n, min(j+k, n-1)); {
		case j+k < n && nextLo != hi:
			t.Errorf("facet %d: band ends at %v, the next starts at %v", j, hi, nextLo)
		case j+k >= n && hi != priceLo+priceSpan:
			t.Errorf("facet %d: last band ends at %v", j, hi)
		}
	}
}

// raceDetector is set by race_test.go when the race detector is on.
var raceDetector bool

// scaled shrinks a workload for the smoke test.
func scaled(w mix, by int) *mix {
	w.products = max(w.products/by, 20)
	w.warmOps = max(w.warmOps/by, 10)
	if w.facets > 0 {
		w.facets = max(w.facets/by, 2*len(workload.Categories))
	}
	return &w
}

// TestSmoke runs every workload at 1/200 scale through the traced path —
// wrappers, checks, layer table, probe pass, trace.json — and the
// untraced one.
func TestSmoke(t *testing.T) {
	visitors := 2
	if raceDetector {
		// storage.DocumentStore.Get bumps stats.Reads under a read lock, so
		// two page renders at once are a data race in the program (at the
		// parent commit too; the fix lies outside the benchmark). One
		// visitor keeps renders apart, and the detector still watches the
		// benchmark's own goroutines: visitor, handlers, purges, poller.
		visitors = 1
	}
	for _, full := range workloads {
		t.Run(full.Name, func(t *testing.T) {
			w := scaled(full, 200)
			dir := t.TempDir()
			var report bytes.Buffer
			m, dt, err := runTraced(&report, w, 1, 400*time.Millisecond, dir, visitors)
			if err != nil {
				t.Fatalf("traced run: %v\n%s", err, report.String())
			}
			if c := dt.Checks; c.Attempted == 0 || c.Failed != 0 {
				t.Errorf("checks: %+v", c)
			}
			// The X-Blocks defect shows behind an edge and nowhere else.
			if (dt.Checks.Unpersonalized > 0) != w.edge {
				t.Errorf("%d unpersonalized loads with edge=%v", dt.Checks.Unpersonalized, w.edge)
			}
			if (dt.Writes > 0) != (w.writeShare > 0) || (dt.WriteP50us > 0) != (w.writeShare > 0) {
				t.Errorf("write latency %v over %d writes with writeShare %v", dt.WriteP50us, dt.Writes, w.writeShare)
			}
			for _, name := range []string{"proxy.load_us", "proxy.self_us", "httpclient.self_us", "loopback.device_hop_us", "httpapi.page_us", "core.fetch_origin_us", "loadgen.ops_hash"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
			if _, ok := m["loadgen.trace_overhead_pct"]; !ok {
				t.Error("no loadgen.trace_overhead_pct")
			}
			if (m["edge.requests_per_load"] > 0) != w.edge {
				t.Errorf("edge.requests_per_load = %v with edge=%v", m["edge.requests_per_load"], w.edge)
			}
			if (m["httpapi.write_us"] > 0) != (w.writeShare > 0) || (m["core.write_pipeline_us"] > 0) != (w.writeShare > 0) {
				t.Errorf("write metrics %v / %v with writeShare %v", m["httpapi.write_us"], m["core.write_pipeline_us"], w.writeShare)
			}
			if (m["httpclient.fetch_blocks_us"] > 0) != w.originBlocks {
				t.Errorf("httpclient.fetch_blocks_us = %v with originBlocks=%v", m["httpclient.fetch_blocks_us"], w.originBlocks)
			}
			known := map[string]bool{}
			for _, spec := range perLayer {
				known[spec.Name] = true
			}
			for name := range m {
				if !known[name] {
					t.Errorf("value for %s, which is no per-layer metric", name)
				}
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".json"))
			if left, _ := filepath.Glob(filepath.Join(dir, "durable-*")); len(left) > 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}

			e, dt, err := runUntraced(io.Discard, w, 1, 200*time.Millisecond, dir, visitors)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if c := dt.Checks; c.Attempted == 0 || c.Failed != 0 {
				t.Errorf("untraced checks: %+v", c)
			}
			for _, spec := range endToEnd {
				if e[spec.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", spec.Name, e[spec.Name])
				}
			}
		})
	}
}

// checkTraceFile asserts the spans of trace.json are well-formed: every
// parent present and in the same trace, every child starting inside its
// parent, and every client-side child (a transport call, a round trip)
// also ending inside it. A handler may outlast the round trip that
// called it: the client has the whole response before the handler
// returns.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []jsonSpan
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[string]jsonSpan{}
	roots := map[string]int{}
	for _, s := range spans {
		byID[s.ID.String()] = s
		if s.Parent == nil {
			roots[s.Trace.String()]++
		}
	}
	if len(roots) == 0 {
		t.Fatalf("%s holds no trace", path)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s/%s ends before it starts", s.Layer, s.Kind)
		}
		if roots[s.Trace.String()] != 1 {
			t.Errorf("trace %s has %d root spans, want 1", s.Trace, roots[s.Trace.String()])
		}
		if s.Parent == nil {
			continue
		}
		p, ok := byID[s.Parent.String()]
		if !ok {
			t.Errorf("span %s/%s: parent %s not in the file", s.Layer, s.Kind, s.Parent)
			continue
		}
		if p.Trace != s.Trace {
			t.Errorf("span %s/%s sits in another trace than its parent", s.Layer, s.Kind)
		}
		if s.StartNs < p.StartNs || s.StartNs > p.EndNs {
			t.Errorf("span %s/%s starts outside its parent %s", s.Layer, s.Kind, p.Layer)
		}
		clientSide := s.Layer == layerNames[layerTransport] || s.Layer == layerNames[layerDeviceRT] || s.Layer == layerNames[layerEdgeRT]
		if clientSide && s.EndNs > p.EndNs {
			t.Errorf("span %s/%s outlasts its parent %s", s.Layer, s.Kind, p.Layer)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec holds the tables to the driver's contract and the committed
// BENCHMARK.json to the tables.
func TestSpec(t *testing.T) {
	spec := benchmarkSpec()
	data, err := marshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Error("BENCHMARK.json does not round-trip")
	}
	if committed, err := os.ReadFile("../../BENCHMARK.json"); err != nil {
		t.Error(err)
	} else if !bytes.Equal(committed, data) {
		t.Error("BENCHMARK.json is out of date: run go run ./cmd/speedkit-load -write-spec BENCHMARK.json")
	}

	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s breaks the contract", m.Unit, m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.Bound, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("better %q of %s", m.Better, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s breaks the contract", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("better %q of %s", m.Better, m.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	type knobs struct {
		rate, p50, writeP99, rateSpread          float64
		failed, unpersonalized, unstamped, stale int
	}
	same := knobs{rate: 1000, p50: 50, writeP99: 4000, unpersonalized: 700}
	mk := func(k knobs) *results {
		r := &results{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			e := map[string]metricValue{}
			for _, m := range endToEnd {
				e[m.Name] = metricValue{Value: 100, Unit: m.Unit}
			}
			e["loads_per_s"] = metricValue{Value: k.rate, Unit: "1/s"}
			e["load_p50_us"] = metricValue{Value: k.p50, Unit: "us"}
			e["write_p50_us"] = metricValue{Value: 1000, Unit: "us"}
			e["write_p99_us"] = metricValue{Value: k.writeP99, Unit: "us"}
			r.Workloads[w.Name] = &workloadResult{Runs: 5, EndToEnd: e,
				Spread: map[string]float64{"loads_per_s": k.rateSpread},
				Checks: checks{Attempted: 1000, Failed: k.failed, Unpersonalized: k.unpersonalized, StaleUnstamped: k.unstamped, Stale: k.stale}}
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := map[string]float64{}
	for _, m := range append(endToEnd, writeLatency[:]...) {
		bound[m.Name] = m.Bound
	}
	base := write("base.json", mk(same))
	for _, tc := range []struct {
		name   string
		change func(*knobs)
		flag   string
	}{
		{"same", func(*knobs) {}, ""},
		// Just inside and just outside each metric's own bound.
		{"within", func(k *knobs) {
			k.rate *= 1 - bound["loads_per_s"]/2
			k.p50 *= 1 + bound["load_p50_us"]/2
			k.writeP99 *= 1 + bound["write_p99_us"]/2
		}, ""},
		{"better", func(k *knobs) { k.rate, k.p50, k.writeP99 = 2000, 20, 2000 }, ""},
		{"slower", func(k *knobs) { k.rate *= 1 - bound["loads_per_s"] - 0.02 }, "OUTSIDE BOUND"},
		{"later", func(k *knobs) { k.p50 *= 1 + bound["load_p50_us"] + 0.02 }, "OUTSIDE BOUND"},
		{"slow writes", func(k *knobs) { k.writeP99 *= 1 + bound["write_p99_us"] + 0.02 }, "OUTSIDE BOUND"},
		// Runs that spread wider than the bound decide nothing.
		{"slower, noisy", func(k *knobs) {
			k.rate *= 1 - bound["loads_per_s"] - 0.02
			k.rateSpread = bound["loads_per_s"] + 0.01
		}, ""},
		{"failing", func(k *knobs) { k.failed = 3 }, "FAILURES ROSE"},
		{"a few more unpersonalized", func(k *knobs) { k.unpersonalized += 5 }, ""},
		{"unpersonalized", func(k *knobs) { k.unpersonalized += 30 }, "UNPERSONALIZED ROSE"},
		{"one stale read of an unstamped version", func(k *knobs) { k.unstamped = 1 }, ""},
		{"stale reads", func(k *knobs) { k.unstamped, k.stale = 2, 3 }, "STALE READS ROSE"},
	} {
		k := same
		tc.change(&k)
		var out bytes.Buffer
		err := compareFiles(&out, base, write("other.json", mk(k)))
		if (err != nil) != (tc.flag != "") {
			t.Errorf("%s: err = %v\n%s", tc.name, err, out.String())
		}
		if tc.flag != "" && !strings.Contains(out.String(), tc.flag) {
			t.Errorf("%s: report lacks %q\n%s", tc.name, tc.flag, out.String())
		}
		if !strings.Contains(out.String(), "write_p99_us") {
			t.Errorf("%s: report lacks write latency\n%s", tc.name, out.String())
		}
		if strings.Contains(out.String(), "UNRESOLVED") != (k.rateSpread > 0) {
			t.Errorf("%s: UNRESOLVED with spread %v\n%s", tc.name, k.rateSpread, out.String())
		}
	}
}

// TestSummarise: medians and quartile spreads as the driver takes them
// (Python's statistics.quantiles(values, n=4)).
func TestSummarise(t *testing.T) {
	var runs []map[string]metricValue
	for _, v := range []float64{12, 10, 15, 11, 30} {
		runs = append(runs, map[string]metricValue{"x": {Value: v, Unit: "us"}})
	}
	med, spread := summarise(runs)
	// quantiles([10, 11, 12, 15, 30], n=4) == [10.5, 12.0, 22.5]
	if med["x"] != (metricValue{Value: 12, Unit: "us"}) || spread["x"] != 1 {
		t.Errorf("median %v, spread %v, want 12 us and 1", med["x"], spread["x"])
	}
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles of 1..10 = %v", q)
	}
}

// TestQuietSlices: the timed metrics come from the fastest fifth of the
// slices, ranked by ops per second and not by ops, and from no op that
// ended after the last mark.
func TestQuietSlices(t *testing.T) {
	sec := int64(time.Second)
	// Ten slices; the third is two seconds long and holds the most ops
	// at a middling rate. CPU time runs at twice the wall time.
	ends := []int64{1, 2, 4, 5, 6, 7, 8, 9, 10, 11}
	ops := []int{100, 90, 150, 120, 95, 80, 110, 70, 60, 50}
	marks := []mark{{}}
	for _, e := range ends {
		marks = append(marks, mark{at: e * sec, cpu: time.Duration(2 * e * sec)})
	}
	chosen, q := quietSlices(marks, ops)
	for i, c := range chosen {
		if c != (i == 3 || i == 6) {
			t.Errorf("slice %d chosen = %v", i, c)
		}
	}
	if q.slices != 2 || q.total != 10 || q.ops != 230 || q.span != 2*time.Second || q.cpu != 4*time.Second || q.opsPerSec() != 115 {
		t.Errorf("pooled %+v", q)
	}
	for end, want := range map[int64]int{1: 0, sec: 0, sec + 1: 1, 3 * sec: 2, 11 * sec: 9, 11*sec + 1: -1} {
		if got := sliceOf(marks, end); got != want {
			t.Errorf("an op that ended at %d is in slice %d, want %d", end, got, want)
		}
	}
	// A phase too short for a boundary is one slice, and that one is used.
	if chosen, q := quietSlices(marks[:2], ops[:1]); !chosen[0] || q.ops != 100 {
		t.Errorf("single slice: chosen %v, pooled %+v", chosen, q)
	}
}

// TestJudge: the stale check tells apart a read the version log judges
// stale, one it passes only for want of a stamp, and one it has no
// grounds to judge.
func TestJudge(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	log := cachesketch.NewVersionLog()
	// Version 2 was current for a moment between two writes and never
	// stamped: both recorded the version they found, 3.
	log.RecordWrite("/p", 1, at(0))
	log.RecordWrite("/p", 3, at(10))
	settled := at(100)
	for _, tc := range []struct {
		name   string
		path   string
		v      uint64
		readAt time.Time
		want   verdict
		err    bool
	}{
		{"current", "/p", 3, at(50), fresh, false},
		{"superseded within Δ", "/p", 1, at(12), fresh, false},
		{"superseded before Δ", "/p", 1, at(20), stale, false},
		{"unstamped, within Δ", "/p", 2, at(12), fresh, false},
		{"unstamped, before Δ", "/p", 2, at(20), staleUnstamped, false},
		{"no version", "/p", 0, at(50), 0, true},
		{"beyond the log", "/p", 4, at(50), 0, true},
		{"no history", "/q", 1, at(50), 0, true},
	} {
		got, err := judge(log, tc.path, tc.v, tc.readAt, settled)
		if got != tc.want || (err != nil) != tc.err {
			t.Errorf("%s: got (%v, %v), want %v, error %v", tc.name, got, err, tc.want, tc.err)
		}
	}
}

// TestAggregateRejectsMisplacedSpans: the layer table comes only from
// spans that nest.
func TestAggregateRejectsMisplacedSpans(t *testing.T) {
	build := func(childStart, childEnd int64, l layer) error {
		tr := newTracer()
		root := tr.root(layerLoad, traceKindLoad, 0, 0)
		root.start, root.end = 100, 200
		child := tr.child(root.context(), l, kindNone)
		child.start, child.end = childStart, childEnd
		tr.mu.Lock()
		tr.spans = append(tr.spans, *root, *child)
		tr.mu.Unlock()
		_, err := tr.aggregate()
		return err
	}
	if err := build(120, 180, layerTransport); err != nil {
		t.Errorf("nested child: %v", err)
	}
	if err := build(120, 250, layerAPI); err != nil {
		t.Errorf("handler outlasting its caller: %v", err)
	}
	for name, err := range map[string]error{
		"child starting before its parent":    build(50, 150, layerTransport),
		"child starting after its parent":     build(210, 220, layerAPI),
		"client-side child outlasting parent": build(120, 250, layerTransport),
	} {
		if err == nil {
			t.Errorf("%s: aggregate accepted it", name)
		}
	}
}
