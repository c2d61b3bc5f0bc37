package speedkit_test

// Hot-path microbenchmarks tracked in BENCH_hotpath.json (the hotpath
// suite of cmd/speedkit-bent). Each one exercises a read path that sits
// on every request in a production deployment, under RunParallel so that
// lock contention — not single-thread speed — dominates the result:
//
//   - BenchmarkParallelCacheGet:    cache.Store.Get under concurrency
//   - BenchmarkParallelSketchCheck: cachesketch.Client.Check (sketch probe)
//   - BenchmarkSnapshotReuse:       cachesketch.Server.Snapshot generation
//     reuse (a pointer load when the sketch is unchanged)
//
// Run with -benchmem: the acceptance bar is 0 allocs/op for the sketch
// probe and cache hit paths.

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"speedkit/internal/bloom"
	"speedkit/internal/cache"
	"speedkit/internal/cachesketch"
	"speedkit/internal/clock"
	"speedkit/internal/obs"
	"speedkit/internal/slog"
	"speedkit/internal/tracectx"
)

const hotpathKeys = 1024 // power of two so key selection is a mask

func hotpathKeySet() []string {
	keys := make([]string, hotpathKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("/product/p%05d", i)
	}
	return keys
}

func BenchmarkParallelCacheGet(b *testing.B) {
	keys := hotpathKeySet()
	st := cache.New(cache.Config{})
	for i, k := range keys {
		st.Put(cache.TTLEntry(clock.System, k, make([]byte, 64), uint64(i), time.Hour))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := st.Get(keys[i&(hotpathKeys-1)]); !ok {
				b.Error("unexpected miss")
				return
			}
			i++
		}
	})
}

func BenchmarkParallelSketchCheck(b *testing.B) {
	keys := hotpathKeySet()
	clk := clock.CoarseSystem
	srv := cachesketch.NewServer(cachesketch.ServerConfig{Capacity: hotpathKeys, Clock: clk})
	// Half the keys are stale-tracked, so the probe exercises both the
	// hit (Revalidate) and miss (ServeFromCache) exits.
	for i, k := range keys {
		if i%2 == 0 {
			srv.ReportCachedRead(k, clk.Now().Add(time.Hour))
			srv.ReportWrite(k)
		}
	}
	cl := cachesketch.NewClient(clk, time.Hour)
	cl.Install(srv.Snapshot())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if d := cl.Check(keys[i&(hotpathKeys-1)]); d == cachesketch.RefreshSketch {
				b.Error("sketch unexpectedly stale")
				return
			}
			i++
		}
	})
}

func BenchmarkSnapshotReuse(b *testing.B) {
	keys := hotpathKeySet()
	clk := clock.CoarseSystem
	// Large capacity makes Flatten genuinely expensive (m ≈ 1.2M cells at
	// 0.01 FPR), so the benchmark measures whether Snapshot() re-flattens
	// on every call or reuses the cached filter for an unchanged sketch.
	srv := cachesketch.NewServer(cachesketch.ServerConfig{Capacity: 200000, FalsePositiveRate: 0.01, Clock: clk})
	for _, k := range keys {
		srv.ReportCachedRead(k, clk.Now().Add(time.Hour))
		srv.ReportWrite(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if sn := srv.Snapshot(); sn == nil {
				b.Error("nil snapshot")
				return
			}
		}
	})
	b.StopTimer()
	// The whole point: an unchanged generation never re-flattens.
	if fl := srv.Stats().Flattens; fl != 1 {
		b.Errorf("flattens = %d across %d snapshots, want exactly 1", fl, srv.Stats().Snapshots)
	}
}

// BenchmarkFilterContains records the raw Bloom membership probe — the
// innermost operation of every sketch check — so BENCH_hotpath.json pins
// its 0 allocs/op directly, not only via the composed Check path.
func BenchmarkFilterContains(b *testing.B) {
	keys := hotpathKeySet()
	f := bloom.NewFilterForCapacity(hotpathKeys, 0.01)
	for i, k := range keys {
		if i%2 == 0 {
			f.Add(k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.Contains(keys[i&(hotpathKeys-1)])
			i++
		}
	})
}

// BenchmarkSnapshotMightBeStale records the client-visible staleness
// probe on a flattened snapshot, isolated from the Δ bookkeeping that
// Client.Check adds on top.
func BenchmarkSnapshotMightBeStale(b *testing.B) {
	keys := hotpathKeySet()
	clk := clock.CoarseSystem
	srv := cachesketch.NewServer(cachesketch.ServerConfig{Capacity: hotpathKeys, Clock: clk})
	for i, k := range keys {
		if i%2 == 0 {
			srv.ReportCachedRead(k, clk.Now().Add(time.Hour))
			srv.ReportWrite(k)
		}
	}
	sn := srv.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			sn.MightBeStale(keys[i&(hotpathKeys-1)])
			i++
		}
	})
}

// --- observability overhead -------------------------------------------------
//
// The telemetry acceptance bar (see internal/obs/alloc_test.go for the
// hard AllocsPerRun gates): disabled or unsampled tracing and a
// pre-resolved counter increment must stay 0 allocs/op and single-digit
// nanoseconds, so instrumentation can ride every request unconditionally.

// BenchmarkObsTracerDisabled measures the per-request cost of tracing
// when the tracer is off (sample rate 0): Start returns nil and every
// nil-trace method is a no-op.
func BenchmarkObsTracerDisabled(b *testing.B) {
	tr := obs.NewTracer(clock.CoarseSystem, 0, 16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t := tr.Start("page_load", "/product/p00001")
			t.SetSource("device")
			t.SetTotal(0)
			tr.Finish(t)
		}
	})
}

// BenchmarkObsTracerUnsampled measures the same path with tracing on but
// at a 1-in-2^20 sample rate — the steady-state cost almost every
// request pays: one atomic increment and a modulo.
func BenchmarkObsTracerUnsampled(b *testing.B) {
	tr := obs.NewTracer(clock.CoarseSystem, 1<<20, 16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t := tr.Start("page_load", "/product/p00001")
			t.SetSource("device")
			tr.Finish(t)
		}
	})
}

// BenchmarkObsCounterInc measures a pre-resolved labeled counter — the
// handle pattern every instrumented hot path uses (resolve at
// construction, atomic add per event).
func BenchmarkObsCounterInc(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("speedkit.bench.loads.total", obs.L("source", "device"))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkObsPropagationUnsampled measures the full server-side
// propagation cost for a request whose head decided NOT to trace: parse
// the W3C traceparent header, honor the cleared sampling bit in
// StartRemote. This is what every request from an untraced client pays;
// the bar is 0 allocs/op (hard-gated in internal/obs/alloc_test.go and
// internal/tracectx's parse gates).
func BenchmarkObsPropagationUnsampled(b *testing.B) {
	tr := obs.NewTracer(clock.CoarseSystem, 1, 16)
	const header = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			parent, _ := tracectx.ParseTraceparent(header)
			if t := tr.StartRemote("http.page", "/product/p00001", parent); t != nil {
				b.Fatal("unsampled parent was recorded")
			}
		}
	})
}

// BenchmarkObsLoggerDisabled measures a level-filtered log call — the
// cost every instrumented site pays when its level is off. The nil
// *Event chain must be two loads and a branch: 0 allocs/op, hard-gated
// in internal/slog's alloc tests.
func BenchmarkObsLoggerDisabled(b *testing.B) {
	lg := slog.New(io.Discard, clock.CoarseSystem, slog.LevelError)
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lg.Debug(ctx).Str("source", "cdn").Uint("generation", 7).Msg("served")
		}
	})
}
