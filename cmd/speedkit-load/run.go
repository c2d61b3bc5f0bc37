package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/httpclient"
	"speedkit/internal/netsim"
	"speedkit/internal/proxy"
	"speedkit/internal/session"
	"speedkit/internal/tracectx"
)

// blockMarker is what an unfilled dynamic-block placeholder starts with
// (origin.BlockPlaceholder renders "<!--block:NAME-->").
var blockMarker = []byte("<!--block:")

// sample is one completed op as the visitor saw it.
type sample struct {
	op     int32 // index into the visitor's op list
	failed bool  // transport or Load error, or a non-2xx write
	// unpersonalized: the body still holds a block placeholder.
	unpersonalized bool
	version        uint64
	// end and dur are nanoseconds: end since the phase began.
	end int64
	dur int64
}

// visitor is one closed-loop client: one goroutine, one keep-alive
// connection to the device-facing tier and one to the server.
type visitor struct {
	idx int
	d   *deployment
	// users is the pool this visitor's devices take their owners from.
	users []*session.User
	// hc carries the devices' requests; writes go to the server on whc.
	hc  *http.Client
	whc *http.Client

	dev     *proxy.Proxy
	devices int
	// stats sums the counters of retired devices.
	stats proxy.Stats

	samples []sample
}

func newVisitor(idx int, d *deployment, users []*session.User) *visitor {
	oneConn := func() *http.Client {
		var rt http.RoundTripper = &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		if d.tr != nil {
			rt = d.tr.roundTripper(layerDeviceRT, rt)
		}
		return &http.Client{Timeout: 10 * time.Second, Transport: rt}
	}
	return &visitor{idx: idx, d: d, users: users, hc: oneConn(), whc: oneConn()}
}

func (v *visitor) close() {
	v.retire()
	v.hc.CloseIdleConnections()
	v.whc.CloseIdleConnections()
}

// retire folds the current device's counters into the visitor's.
func (v *visitor) retire() {
	if v.dev == nil {
		return
	}
	addStats(&v.stats, v.dev.Stats())
	v.dev = nil
}

// addStats adds the counters the benchmark reports from s to sum.
func addStats(sum *proxy.Stats, s proxy.Stats) {
	sum.Loads += s.Loads
	sum.DeviceHits += s.DeviceHits
	sum.SketchRefreshes += s.SketchRefreshes
	sum.Revalidations += s.Revalidations
}

// freshDevice gives the visitor a new device: empty cache, no sketch.
func (v *visitor) freshDevice(visitors int) {
	v.retire()
	var tr proxy.Transport = httpclient.New(v.d.deviceURL, v.hc)
	if v.d.tr != nil {
		tr = &tracedTransport{t: v.d.tr, inner: tr}
	}
	cfg := proxy.Config{
		User:    v.users[(v.idx+v.devices*visitors)%len(v.users)],
		Region:  netsim.EU,
		Delta:   delta,
		Clock:   clock.System,
		Network: v.d.network,
	}
	if v.d.w.originBlocks {
		cfg.OriginBlocks = map[string]bool{"reco": true}
	}
	v.dev = proxy.New(cfg, tr)
	v.devices++
}

// phase is one timed stretch of the closed loop over fixed op lists.
type phase struct {
	d        *deployment
	visitors []*visitor
	lists    [][]op
	// traced makes every op open a root span.
	traced bool
	// marks are the slice boundaries of the last measured run.
	marks   []mark
	markErr error
}

// sliceLen is how long one slice of a measured phase is. The phase's
// timed metrics come from its fastest slices (see quiet).
const sliceLen = time.Second

// mark is a slice boundary: the moment the first visitor completed its
// first op past a multiple of sliceLen, and the process's CPU time then.
// The visitor takes it between two of its own ops, so it costs the phase
// one getrusage a second and no goroutine.
type mark struct {
	at  int64 // ns since the phase began
	cpu time.Duration
}

// markAt records a slice boundary at the given moment of the phase.
func (p *phase) markAt(at int64) {
	cpu, err := cpuTime()
	if err != nil {
		p.markErr = err
	}
	p.marks = append(p.marks, mark{at: at, cpu: cpu})
}

func (p *phase) close() error {
	for _, v := range p.visitors {
		v.close()
	}
	return p.d.close()
}

// run drives every visitor through its list: the whole list once when
// limit is zero (warm-up), else around the list until limit has passed,
// the first visitor marking the slice boundaries. It returns when the
// phase began and the wall time it took.
func (p *phase) run(limit time.Duration) (time.Time, time.Duration) {
	p.marks, p.markErr = p.marks[:0], nil
	if limit > 0 {
		p.markAt(0)
	}
	start := clock.System.Now()
	var wg sync.WaitGroup
	for i, v := range p.visitors {
		wg.Add(1)
		go func(v *visitor, ops []op) {
			defer wg.Done()
			marking := limit > 0 && v.idx == 0
			next := int64(sliceLen)
			for n := 0; ; n++ {
				if limit == 0 && n == len(ops) {
					return
				}
				began := clock.Since(clock.System, start)
				if limit > 0 && began >= limit {
					if marking {
						p.markAt(int64(began))
					}
					return
				}
				i := n % len(ops)
				s := v.do(p, ops[i], uint64(n))
				s.op = int32(i)
				s.end = int64(clock.Since(clock.System, start))
				s.dur = s.end - int64(began)
				v.samples = append(v.samples, s)
				if marking && s.end >= next && s.end < int64(limit) {
					p.markAt(s.end)
					next = (s.end/int64(sliceLen) + 1) * int64(sliceLen)
				}
			}
		}(v, p.lists[i])
	}
	wg.Wait()
	return start, clock.Since(clock.System, start)
}

// do performs one op and checks what came back.
func (v *visitor) do(p *phase, o op, seq uint64) sample {
	ctx := context.Background()
	if o.kind == opWrite {
		var sp *span
		req, err := http.NewRequest(http.MethodPost, p.d.serverURL+"/v1/write?"+o.arg, nil)
		if err != nil {
			return sample{failed: true}
		}
		if p.traced {
			sp = p.d.tr.root(layerWrite, traceKindWrite, v.idx, seq)
			req.Header.Set(tracectx.Header, sp.context().Traceparent())
		}
		resp, err := v.whc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
		}
		if sp != nil {
			p.d.tr.finish(sp)
		}
		return sample{failed: err != nil || resp.StatusCode/100 != 2}
	}

	if o.fresh || v.dev == nil {
		v.freshDevice(len(p.visitors))
	}
	var sp *span
	if p.traced {
		sp = p.d.tr.root(layerLoad, traceKindLoad, v.idx, seq)
		ctx = tracectx.ContextWithSpan(ctx, sp.context())
	}
	res, err := v.dev.Load(ctx, o.arg)
	if sp != nil {
		p.d.tr.finish(sp)
	}
	if err != nil {
		return sample{failed: true}
	}
	return sample{version: res.Version, unpersonalized: bytes.Contains(res.Body, blockMarker)}
}

// checks are the output checks of one measured phase, each with its own
// counter.
type checks struct {
	Attempted int `json:"attempted"`
	// Failed: ops that failed at least one check, plus the PIIAtEdge
	// requests.
	Failed int `json:"failed"`
	// Errors: a transport or Load error, or a non-2xx write.
	Errors int `json:"errors"`
	// Stale: reads that were not Δ-atomic by the server's version log.
	// StaleUnstamped: stale reads of a version the log never stamped and so
	// passes. Both kinds are what the render/write race in README.md leaves
	// behind, a handful in one run of write_storm in ten: up to staleShare
	// of the loads they are counted here only, and -compare flags a rise;
	// beyond it each is a failed op.
	Stale          int `json:"stale"`
	StaleUnstamped int `json:"stale_unstamped"`
	// PIIAtEdge: requests that carried a user parameter into the edge.
	PIIAtEdge int `json:"pii_at_edge"`
	// Slow: ops that took longer than slowOp.
	Slow int `json:"slow"`
	// Unpersonalized: pages delivered with an unfilled block
	// placeholder. Each is a failed op, except behind an edge, whose hits
	// drop X-Blocks at this commit (the X-Blocks defect in README.md):
	// there they are counted here only, and -compare flags a rise.
	Unpersonalized int `json:"unpersonalized"`
}

// add sums another run's checks into c.
func (c *checks) add(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Errors += o.Errors
	c.Stale += o.Stale
	c.PIIAtEdge += o.PIIAtEdge
	c.Slow += o.Slow
	c.Unpersonalized += o.Unpersonalized
	c.StaleUnstamped += o.StaleUnstamped
}

// verdict is what the stale check says about one read.
type verdict uint8

const (
	fresh verdict = iota
	// stale: not Δ-atomic by the stamps of the server's version log.
	stale
	// staleUnstamped: the log holds no stamp for the served version and so
	// passes it, but a newer version was already current Δ before the
	// read. Versions only grow, so the read was stale all the same.
	staleUnstamped
)

// judge holds one read of path, which returned version v at readAt,
// against the server's version log, or says why the log cannot judge
// it. settled is a time after the phase, when every write is recorded.
func judge(log *cachesketch.VersionLog, path string, v uint64, readAt, settled time.Time) (verdict, error) {
	switch latest := log.CurrentVersion(path, settled); {
	case latest == 0:
		return 0, fmt.Errorf("stale check cannot run: the version log has no history for served path %s", path)
	case v == 0 || v > latest:
		return 0, fmt.Errorf("stale check cannot run: %s was served at version %d, the version log holds none beyond %d", path, v, latest)
	}
	switch {
	case !log.DeltaAtomic(path, v, readAt, delta):
		return stale, nil
	case v < log.CurrentVersion(path, readAt.Add(-delta)):
		return staleUnstamped, nil
	}
	return fresh, nil
}

// result is what one measured phase yields.
type result struct {
	checks checks
	// notes describes the first few ops a check flagged, for the report.
	notes   []string
	elapsed time.Duration
	// loads and writes are the sorted latencies, ns, of the whole phase;
	// quiet holds what the timed metrics are taken from.
	loads   []int64
	writes  []int64
	quiet   quiet
	mallocs uint64
	bytes   uint64
	proxy   proxy.Stats
}

// quiet pools the fastest fifth of a measured phase's slices: those in
// which it completed most ops per second. Throughput, the latency
// percentiles and CPU per op are all taken from these slices and no
// others. The box this runs on is a few cores of a shared host, and for
// seconds to minutes at a time its neighbours slow every instruction by
// a quarter (allocations per op stay put while CPU per op rises), so
// numbers over the whole phase follow the host: ten runs of one commit
// spread by 15-25 %, the fastest fifth of their slices by half of that or
// less. The price: a stall that recurs in fewer than four slices of five
// shows in the whole-phase numbers of the report, not in the metrics.
type quiet struct {
	// slices were pooled, of the phase's total; span is their summed length.
	slices, total int
	span          time.Duration
	ops           int
	cpu           time.Duration
	loads, writes []int64 // sorted latencies, ns
}

func (q *quiet) opsPerSec() float64 { return float64(q.ops) / q.span.Seconds() }

// quietSlices ranks the slices between marks by ops completed per second,
// given how many ops ended in each, and says which make the fastest fifth.
func quietSlices(marks []mark, ops []int) (chosen []bool, q quiet) {
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(ops[i]) / float64(marks[i+1].at-marks[i].at) }
	sort.Slice(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	chosen = make([]bool, len(ops))
	q.slices, q.total = max(1, len(ops)/5), len(ops)
	for _, i := range order[:q.slices] {
		chosen[i] = true
		q.span += time.Duration(marks[i+1].at - marks[i].at)
		q.cpu += marks[i+1].cpu - marks[i].cpu
		q.ops += ops[i]
	}
	return chosen, q
}

// sliceOf is the slice an op that ended at end belongs to, or -1 for one
// that ended after the last mark.
func sliceOf(marks []mark, end int64) int {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].at >= end })
	if i == len(marks) {
		return -1
	}
	return i - 1
}

// note keeps what the report says about visitor i's sample s, which a
// check flagged as what.
func (r *result) note(p *phase, i int, s sample, what string) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf("%s: visitor %d op %d, %s, took %v, ended %v into the phase, error %t, version %d",
			what, i, s.op, p.lists[i][s.op].arg, time.Duration(s.dur), time.Duration(s.end), s.failed, s.version))
	}
}

func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// measure runs the measured phase for limit and checks its outputs.
func (p *phase) measure(limit time.Duration) (*result, error) {
	for i, v := range p.visitors {
		// Room for one pass over the list, so recording allocates nothing
		// while the phase is measured.
		v.samples = make([]sample, 0, len(p.lists[i]))
		// The phase begins on fresh devices, so their counters cover it
		// and nothing else.
		v.retire()
		v.stats = proxy.Stats{}
	}
	piiBefore := p.d.piiAtEdge.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	startedAt, elapsed := p.run(limit)

	runtime.ReadMemStats(&m1)
	if p.markErr != nil {
		return nil, p.markErr
	}

	perSlice := make([]int, len(p.marks)-1)
	for _, v := range p.visitors {
		for _, s := range v.samples {
			if i := sliceOf(p.marks, s.end); i >= 0 {
				perSlice[i]++
			}
		}
	}
	r := &result{elapsed: elapsed, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
	var inQuiet []bool
	inQuiet, r.quiet = quietSlices(p.marks, perSlice)
	r.checks.PIIAtEdge = int(p.d.piiAtEdge.Load() - piiBefore)
	r.checks.Failed = r.checks.PIIAtEdge
	verlog := p.d.svc.VersionLog()
	settled := clock.System.Now()
	// staleOnly counts the stale reads that failed no other check.
	staleOnly := 0
	for i, v := range p.visitors {
		v.retire()
		addStats(&r.proxy, v.stats)
		for _, s := range v.samples {
			o := p.lists[i][s.op]
			r.checks.Attempted++
			all, pooled := &r.loads, &r.quiet.loads
			if o.kind == opWrite {
				all, pooled = &r.writes, &r.quiet.writes
			}
			*all = append(*all, s.dur)
			if i := sliceOf(p.marks, s.end); i >= 0 && inQuiet[i] {
				*pooled = append(*pooled, s.dur)
			}
			failed, staleRead := false, false
			switch {
			case s.failed:
				r.checks.Errors++
				failed = true
			case s.dur > int64(slowOp):
				r.checks.Slow++
				failed = true
			}
			if o.kind == opLoad && !s.failed {
				switch v, err := judge(verlog, o.arg, s.version, startedAt.Add(time.Duration(s.end)), settled); {
				case err != nil:
					return nil, err
				case v == stale:
					r.checks.Stale++
					staleRead = true
					r.note(p, i, s, "stale")
				case v == staleUnstamped:
					r.checks.StaleUnstamped++
					staleRead = true
					r.note(p, i, s, "stale, unstamped")
				}
				if s.unpersonalized {
					r.checks.Unpersonalized++
					failed = failed || !p.d.w.edge
				}
			}
			switch {
			case failed:
				r.checks.Failed++
				r.note(p, i, s, "failed")
			case staleRead:
				staleOnly++
			}
		}
	}
	if float64(r.checks.Stale+r.checks.StaleUnstamped) > staleShare*float64(len(r.loads)) {
		r.checks.Failed += staleOnly
	}
	for _, l := range [][]int64{r.loads, r.writes, r.quiet.loads, r.quiet.writes} {
		slices.Sort(l)
	}
	if len(r.quiet.loads) == 0 {
		return nil, fmt.Errorf("the measured phase completed no load")
	}
	return r, nil
}
