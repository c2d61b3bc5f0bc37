// Command speedkit-server runs the Speed Kit service side over real HTTP:
// the origin, CDN-path page delivery (with ETag-based conditional
// revalidation), the sketch endpoint clients poll every Δ, and the
// first-party blocks API. It is the deployable surface of the
// reproduction — a service worker (or the curl commands below) plays the
// client role.
//
//	speedkit-server -addr :8080 -products 1000
//
//	curl localhost:8080/v1/page?path=/product/p00042      # anonymous shell
//	curl localhost:8080/v1/page?path=/product/p00042 -H 'If-None-Match: "v1"'
//	curl localhost:8080/v1/sketch -o sketch.bin           # Δ-refreshed sketch
//	printf '\x07u000001\x04cart' | curl --data-binary @- localhost:8080/v1/blocks  # framed user ID + names
//	curl -X POST 'localhost:8080/v1/write?product=p00042&price=9.99'
//	curl localhost:8080/stats
//
// Observability surface:
//
//	curl localhost:8080/healthz                        # liveness + deployment shape + WAL stats (JSON)
//	curl localhost:8080/metrics                        # Prometheus-style text exposition
//	curl 'localhost:8080/debug/traces?n=10'            # recent sampled request traces (JSON)
//	curl localhost:8080/debug/traces/<32-hex-id>       # one stitched trace by causal identity
//	curl localhost:8080/debug/slo                      # Δ-budget SLO: histograms, burn rates, exemplars
//	go tool pprof localhost:8080/debug/pprof/profile   # CPU profile (pprof is mounted)
//
// Requests carrying a W3C traceparent header join the caller's trace, so
// a device running the client proxy stitches its page loads into
// cross-process traces queryable at /debug/traces/<id>.
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/core"
	"speedkit/internal/durable"
	"speedkit/internal/httpapi"
	"speedkit/internal/httpbody"
	"speedkit/internal/obs"
	"speedkit/internal/session"
	"speedkit/internal/slog"
	"speedkit/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	products := flag.Int("products", 1000, "catalog size")
	delta := flag.Duration("delta", 60*time.Second, "staleness bound Δ")
	warm := flag.Bool("warm", false, "pre-fill the server's CDN tier with the home and category pages")
	traceSample := flag.Int("trace-sample", 1, "trace 1 in N requests (0 disables tracing)")
	traceRing := flag.Int("trace-ring", 256, "how many recent traces /debug/traces retains")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	dataDir := flag.String("data-dir", "", "durability directory (empty = memory-only); coherence state is journaled there and recovered at startup")
	flag.Parse()

	// The sanctioned process log: leveled logfmt on stderr, stamped with
	// the active trace/span when a request context carries one, with the
	// GDPR-classified field names denied at the sink (installed by the
	// obs package's init). Components below the GDPR boundary never log.
	logger := slog.New(os.Stderr, clock.System, slog.ParseLevel(*logLevel))
	ctx := context.Background()
	fatal := func(e *slog.Event, err error) {
		e.Err(err).Msg("fatal")
		os.Exit(1)
	}

	var store *durable.Store
	if *dataDir != "" {
		store = durable.New(durable.Config{
			Dir:        *dataDir,
			Clock:      clock.System,
			ColdWindow: *delta,
			// A lost cache-fill report can hide a stale copy for up to the
			// TTL it was issued with; the adaptive estimator caps at 24h.
			BlindHorizon: 24 * time.Hour,
		})
	}

	svc, err := core.NewStorefront(core.StorefrontConfig{
		Config: core.Config{
			Clock: clock.System, // real time for a real server
			Delta: *delta,
			// Identity seed 2: devices root their traces from seed 1, so
			// locally rooted server traces never collide with theirs.
			Tracer:  obs.NewTracerSeeded(clock.System, *traceSample, *traceRing, 2),
			SLO:     obs.NewDeltaSLO(obs.SLOConfig{Clock: clock.System}),
			Durable: store,
		},
		Products: *products,
	})
	if err != nil {
		fatal(logger.Error(ctx), err)
	}
	defer svc.Close()

	if store != nil {
		info, rerr := svc.Recovery()
		if rerr != nil {
			fatal(logger.Error(ctx).Str("component", "durable"), rerr)
		}
		logger.Info(ctx).
			Str("dir", *dataDir).
			Str("mode", info.Mode.String()).
			Uint("replayed", info.Replayed).
			Bool("saturated", info.Saturated).
			Msg("durability recovered")
	}

	if *warm {
		paths := []string{"/"}
		for _, cat := range workload.Categories {
			paths = append(paths, workload.CategoryPath(cat))
		}
		warmed, skipped, err := svc.Warm(paths)
		if err != nil {
			fatal(logger.Error(ctx), err)
		}
		logger.Info(ctx).Int("warmed", int64(warmed)).Int("skipped", int64(len(skipped))).Msg("cdn warmed")
	}

	api := httpapi.New(svc, session.Population(1, 100))
	logger.Info(ctx).
		Str("addr", *addr).
		Int("products", int64(*products)).
		Dur("delta", *delta).
		Msg("speedkit-server listening")

	srv := httpbody.NewServer(*addr, api.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// SIGTERM/SIGINT: stop serving, then seal the durability log with the
	// clean-shutdown marker so the next start recovers warm instead of
	// engaging the conservative cold start.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fatal(logger.Error(ctx), err)
	case sig := <-sigCh:
		logger.Info(ctx).Str("signal", sig.String()).Msg("draining")
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_ = srv.Shutdown(sctx)
		cancel()
		if store != nil {
			if err := store.Close(); err != nil {
				fatal(logger.Error(ctx).Str("component", "durable"), err)
			}
			logger.Info(ctx).Msg("durability log sealed clean")
		}
	}
}
