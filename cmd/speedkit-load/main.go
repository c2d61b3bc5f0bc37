// Command speedkit-load is the repository's benchmark: end-to-end and
// per-layer numbers over the real topology — device proxies → edge →
// server — in one process over loopback HTTP. See README.md.
//
//	speedkit-load --workload browse_hot --seed 1 --seconds 10 --trace 0
//	speedkit-load -all -seed 1 -out results.json
//	speedkit-load -compare a.json b.json
//	speedkit-load -write-spec BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/session"
)

// setups is how many times an untraced run sets the deployment up;
// setup_s is the median, and the last one is measured.
const setups = 3

func main() {
	name := flag.String("workload", "", "run this workload and print its metrics (the driver's mode)")
	seed := flag.Int64("seed", 1, "workload seed: equal seeds give equal op lists")
	seconds := flag.Int("seconds", runSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	all := flag.Bool("all", false, "run every workload untraced and traced, each in a fresh process")
	out := flag.String("out", "", "with -all: write the results here as JSON")
	compare := flag.Bool("compare", false, "compare two -all result files: -compare a.json b.json")
	spec := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	var err error
	switch {
	case *spec != "":
		err = writeSpec(*spec)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *all:
		err = runAll(os.Stdout, *seed, *seconds, *out)
	case *name != "":
		err = runOne(os.Stdout, *name, *seed, *seconds, *trace == 1)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "speedkit-load:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of a run's standard output, in the shape
// the driver's contract fixes.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line a run prints before its outcome: what the outcome
// has no key for. -all keeps it in the results file, -compare reads it.
type detail struct {
	Checks checks `json:"checks"`
	// Write latency, request → ack: the median and the 99th percentile
	// over the Writes samples of the phase's quiet slices, like the load
	// latency. Zero on a workload that does not write.
	Writes     int     `json:"writes"`
	WriteP50us float64 `json:"write_p50_us"`
	WriteP99us float64 `json:"write_p99_us"`
}

func newDetail(r *result) detail {
	return detail{
		Checks:     r.checks,
		Writes:     len(r.quiet.writes),
		WriteP50us: percentile(r.quiet.writes, 0.50) / 1e3,
		WriteP99us: percentile(r.quiet.writes, 0.99) / 1e3,
	}
}

// runOne runs one workload, prints every metric by name and unit, then
// the detail line, and ends with the outcome line. A failed check is an
// error.
func runOne(out io.Writer, name string, seed int64, seconds int, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	limit := time.Duration(seconds) * time.Second
	var (
		specs  []metricSpec
		values map[string]float64
		dt     detail
		err    error
	)
	if traced {
		specs = perLayer
		values, dt, err = runTraced(out, w, seed, limit, workDir, visitorCount())
	} else {
		specs = endToEnd
		values, dt, err = runUntraced(out, w, seed, limit, workDir, visitorCount())
	}
	if err != nil {
		return err
	}

	c := dt.Checks
	o := outcome{Correct: c.Failed == 0, Attempted: c.Attempted, Failed: c.Failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		o.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		note := ""
		if m.Moves != "" {
			note = "-> " + m.Moves
		}
		fmt.Fprintf(out, "  %-34s %16.4f %-8s %s\n", m.Name, values[m.Name], m.Unit, note)
	}
	if dt.Writes > 0 {
		fmt.Fprintf(out, "  %-34s %16.4f %-8s over %d writes\n  %-34s %16.4f %-8s\n",
			"write_p50_us", dt.WriteP50us, "us", dt.Writes, "write_p99_us", dt.WriteP99us, "us")
	}
	fmt.Fprintf(out, "  ops_attempted %d  ops_failed %d  (errors %d, stale %d, pii_at_edge %d, slow %d, unpersonalized %d, stale_unstamped %d)\n",
		c.Attempted, c.Failed, c.Errors, c.Stale, c.PIIAtEdge, c.Slow, c.Unpersonalized, c.StaleUnstamped)
	for _, v := range []any{dt, o} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if !o.Correct {
		return fmt.Errorf("%s: %d of %d ops failed a check", w.Name, o.Failed, o.Attempted)
	}
	return nil
}

// visitorCount is the closed loop's size: one visitor per processor.
func visitorCount() int { return runtime.NumCPU() }

// setUp builds w's deployment and runs the fixed warm-up op lists
// through it. It returns the deployment, the phase, ready to measure once
// it has its op lists, and how long set-up took.
func setUp(w *mix, seed int64, tr *tracer, dir string, users []*session.User, warm [][]op) (*deployment, *phase, time.Duration, error) {
	sw := clock.NewStopwatch(clock.System)
	d, err := newDeployment(w, seed, tr, dir, users)
	if err != nil {
		return nil, nil, 0, err
	}
	p := &phase{d: d, lists: warm}
	for i := range warm {
		p.visitors = append(p.visitors, newVisitor(i, d, users))
	}
	p.run(0)
	return d, p, sw.Elapsed(), nil
}

// warmLists and measuredLists make each visitor's warm-up and measured op
// list from the seed. A measured list holds as many ops as the workload's
// ceiling rate allows in limit; a visitor that gets through it wraps.
func warmLists(w *mix, paths *pathTable, seed int64, visitors int) [][]op {
	return opLists(w, paths, seed, 1, visitors, w.warmOps)
}

func measuredLists(w *mix, paths *pathTable, seed int64, visitors int, limit time.Duration) [][]op {
	return opLists(w, paths, seed, 2, visitors, max(1, int(limit.Seconds()*float64(w.opsPerSec))/visitors))
}

// report prints the phase's headline, its whole-phase numbers beside
// those of the quiet slices the metrics come from, and the first ops a
// check flagged.
func (r *result) report(out io.Writer, name string, seed int64, visitors int, note string) {
	fmt.Fprintf(out, "%s seed %d%s: %d visitors, %d ops in %.2fs (%d loads, %d writes)\n",
		name, seed, note, visitors, r.checks.Attempted, r.elapsed.Seconds(), len(r.loads), len(r.writes))
	q := &r.quiet
	fmt.Fprintf(out, "  whole phase: %.1f ops/s, load p50 %.1f us, p99 %.1f us over %d loads\n",
		float64(r.checks.Attempted)/r.elapsed.Seconds(), percentile(r.loads, 0.50)/1e3, percentile(r.loads, 0.99)/1e3, len(r.loads))
	fmt.Fprintf(out, "  fastest %d of %d slices (%.2fs): %.1f ops/s, load p50 %.1f us, p99 %.1f us over %d loads\n",
		q.slices, q.total, q.span.Seconds(), q.opsPerSec(), percentile(q.loads, 0.50)/1e3, percentile(q.loads, 0.99)/1e3, len(q.loads))
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runUntraced measures the end-to-end metrics of n visitors with no
// wrapper installed.
func runUntraced(out io.Writer, w *mix, seed int64, limit time.Duration, dir string, n int) (map[string]float64, detail, error) {
	paths := newPathTable(w)
	warm := warmLists(w, paths, seed, n)

	users := newUsers()
	var p *phase
	var took []float64
	for i := 0; i < setups; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, detail{}, err
			}
		}
		var d time.Duration
		var err error
		if _, p, d, err = setUp(w, seed, nil, dir, users, warm); err != nil {
			return nil, detail{}, err
		}
		took = append(took, d.Seconds())
	}
	sort.Float64s(took)
	// Taken after the fixed warm-up, not after the timed phase: how much
	// the timed phase adds depends on how many ops the machine got
	// through, which would make a faster program look heavier. And before
	// the measured op lists exist: they would outweigh the deployment.
	heap := liveHeapMB()
	p.lists = measuredLists(w, paths, seed, n, limit)

	r, err := p.measure(limit)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, detail{}, err
	}
	ops := float64(r.checks.Attempted)
	r.report(out, w.Name, seed, n, "")
	return map[string]float64{
		"setup_s":            took[len(took)/2],
		"loads_per_s":        r.quiet.opsPerSec(),
		"load_p50_us":        percentile(r.quiet.loads, 0.50) / 1e3,
		"load_p99_us":        percentile(r.quiet.loads, 0.99) / 1e3,
		"cpu_us_per_op":      float64(r.quiet.cpu) / 1e3 / float64(r.quiet.ops),
		"allocs_per_op":      float64(r.mallocs) / ops,
		"alloc_bytes_per_op": float64(r.bytes) / ops,
		"live_heap_mb":       heap,
	}, newDetail(r), nil
}

// runTraced yields the per-layer metrics of n visitors: a short untraced
// phase for the tracing overhead, then a traced phase on a fresh
// deployment with the wrappers installed, then the probe pass.
func runTraced(out io.Writer, w *mix, seed int64, limit time.Duration, dir string, n int) (m map[string]float64, dt detail, err error) {
	paths := newPathTable(w)
	warm, lists := warmLists(w, paths, seed, n), measuredLists(w, paths, seed, n, limit)

	users := newUsers()
	_, p, _, err := setUp(w, seed, nil, dir, users, warm)
	if err != nil {
		return nil, detail{}, err
	}
	p.lists = lists
	plain, err := p.measure(limit / 4)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, detail{}, err
	}

	tr := newTracer()
	d, p, _, err := setUp(w, seed, tr, dir, users, warm)
	if err != nil {
		return nil, detail{}, err
	}
	p.lists = lists
	defer func() {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}()
	p.traced = true
	before := d.readStats()
	tracedLimit := limit - limit/4
	r, err := p.measure(tracedLimit)
	if err != nil {
		return nil, detail{}, err
	}
	after := d.readStats()
	// Purge POSTs still in flight belong to the traced phase.
	d.purges.Wait()

	r.report(out, w.Name, seed, n, " traced")
	lt, err := tr.aggregate()
	if err != nil {
		return nil, detail{}, err
	}
	lt.print(out)
	m = layerMetrics(lt, r, before, after)
	m["loadgen.off_path_us"] = lt.offPathTotal() / 1e3
	m["loadgen.trace_overhead_pct"] = 100 * (1 - r.quiet.opsPerSec()/plain.quiet.opsPerSec())
	m["loadgen.ops_hash"] = float64(opsHash(lists))
	// Written before the probe pass, whose purges would add spans of
	// their own.
	tracePath := filepath.Join(dir, "trace-"+w.Name+".json")
	if err := tr.writeSample(tracePath, traceSampleLoads/uint64(n)); err != nil {
		return nil, detail{}, fmt.Errorf("write %s: %w", tracePath, err)
	}
	if err := d.probe(lists, m); err != nil {
		return nil, detail{}, err
	}
	if w.originBlocks {
		if err := d.probeBlocks(m, users[0]); err != nil {
			return nil, detail{}, err
		}
	}
	return m, newDetail(r), nil
}

// layerMetrics turns the layer table, the visitors' counters and the
// two server-side Stats readings into the per-layer metrics.
func layerMetrics(lt *layerTable, r *result, before, after serverStats) map[string]float64 {
	us := func(ns float64) float64 { return ns / 1e3 }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	loads := uint64(len(r.loads))
	writes := uint64(len(r.writes))
	m := map[string]float64{
		"proxy.load_us":                   us(lt.load),
		"proxy.self_us":                   us(lt.self[layerLoad]),
		"proxy.device_hit_ratio":          ratio(r.proxy.DeviceHits, r.proxy.Loads),
		"proxy.sketch_refreshes_per_load": ratio(r.proxy.SketchRefreshes, r.proxy.Loads),
		"proxy.revalidations_per_load":    ratio(r.proxy.Revalidations, r.proxy.Loads),
		"proxy.unpersonalized_loads":      float64(r.checks.Unpersonalized),

		"httpclient.calls_per_load":  lt.calls[layerTransport],
		"httpclient.self_us":         us(lt.self[layerTransport]),
		"httpclient.fetch_us":        us(lt.kindMean["httpclient/fetch"]),
		"httpclient.fetch_sketch_us": us(lt.kindMean["httpclient/fetch_sketch"]),
		"httpclient.revalidate_us":   us(lt.kindMean["httpclient/revalidate"]),
		"httpclient.fetch_blocks_us": us(lt.kindMean["httpclient/fetch_blocks"]),

		"loopback.device_hop_us": us(lt.self[layerDeviceRT]),
		"loopback.edge_hop_us":   us(lt.self[layerEdgeRT]),

		"edge.requests_per_load": lt.calls[layerEdge],
		"edge.self_us":           us(lt.self[layerEdge]),
		"edge.hit_us":            us(lt.kindMean["edge/hit"]),
		"edge.miss_us":           us(lt.kindMean["edge/miss"]),
		"edge.revalidate_us":     us(lt.kindMean["edge/revalidated"]),
		"edge.bypass_us":         us(lt.kindMean["edge/bypass"]),
		"edge.purge_us":          us(lt.kindMean["edge/purge"]),
		"edge.purge_lag_p50_us":  us(percentile(lt.purgeLag, 0.50)),
		"edge.purge_lag_p99_us":  us(percentile(lt.purgeLag, 0.99)),

		"httpapi.requests_per_load": lt.calls[layerAPI],
		"httpapi.page_us":           us(lt.kindMean["httpapi/page"]),
		"httpapi.sketch_us":         us(lt.kindMean["httpapi/sketch"]),
		"httpapi.blocks_us":         us(lt.kindMean["httpapi/blocks"]),
		"httpapi.write_us":          us(lt.kindMean["httpapi/write"]),
		"httpapi.not_modified_ratio": ratio(uint64(lt.kindCount["httpapi/page_304"]),
			uint64(lt.kindCount["httpapi/page_304"]+lt.kindCount["httpapi/page"])),

		"core.origin_renders_per_load": ratio(after.core.OriginRenders-before.core.OriginRenders, loads),
		"core.invalidations_per_write": ratio(after.core.Invalidations-before.core.Invalidations, writes),
		"cdn.hit_ratio": ratio(after.cdn.Hits-before.cdn.Hits,
			after.cdn.Hits-before.cdn.Hits+after.cdn.Misses-before.cdn.Misses),

		"cachesketch.flattens_per_snapshot": ratio(after.sketch.Flattens-before.sketch.Flattens, after.sketch.Snapshots-before.sketch.Snapshots),
		"cachesketch.tracked":               float64(after.sketch.Tracked),

		"invalidb.registered":        float64(after.engine.Registered),
		"invalidb.matches_per_event": ratio(after.engine.Matches-before.engine.Matches, after.engine.EventsProcessed-before.engine.EventsProcessed),

		"wal.appends_per_write":      ratio(after.durable.WAL.Appends-before.durable.WAL.Appends, writes),
		"wal.fsyncs_per_write":       ratio(after.durable.WAL.Fsyncs-before.durable.WAL.Fsyncs, writes),
		"wal.batch_writes_per_write": ratio(after.durable.WAL.BatchWrites-before.durable.WAL.BatchWrites, writes),
		"durable.snapshots":          float64(after.durable.Snapshots - before.durable.Snapshots),

		"write.p50_us":          us(percentile(r.writes, 0.50)),
		"write.p99_us":          us(percentile(r.writes, 0.99)),
		"check.errors":          float64(r.checks.Errors),
		"check.stale":           float64(r.checks.Stale),
		"check.stale_unstamped": float64(r.checks.StaleUnstamped),
		"check.pii_at_edge":     float64(r.checks.PIIAtEdge),
		"check.slow":            float64(r.checks.Slow),
	}
	e0, e1 := before.edge, after.edge
	served := (e1.Hits - e0.Hits) + (e1.Misses - e0.Misses) + (e1.Revalidated - e0.Revalidated) +
		(e1.CoalescedWaiters - e0.CoalescedWaiters) + (e1.ServedStale - e0.ServedStale)
	m["edge.hit_ratio"] = ratio(e1.Hits-e0.Hits, served)
	m["edge.coalesced_waiters"] = float64(e1.CoalescedWaiters - e0.CoalescedWaiters)
	m["edge.served_stale"] = float64(e1.ServedStale - e0.ServedStale)
	m["edge.upstream_errors"] = float64(e1.UpstreamErrors - e0.UpstreamErrors)
	return m
}
