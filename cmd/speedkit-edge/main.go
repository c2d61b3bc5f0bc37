// Command speedkit-edge runs the edge cache: a streaming HTTP caching
// reverse proxy in front of a speedkit-server, serving sketch-coherent
// page bodies from memory and a crash-safe disk tier, and the Cache Sketch
// itself from the copy it polls. It answers pages, the sketch and purges,
// and nothing else: every other request is its own 404, so the
// personalized blocks API is reachable only at the server, and a device
// sends it there.
//
//	speedkit-edge -addr :8081 -upstream http://localhost:8080 -cache-dir /var/cache/speedkit
//
//	curl localhost:8081/v1/page?path=/product/p00042        # X-Edge-Cache: miss, then hit
//	curl -i -X POST localhost:8081/v1/blocks                # 404 not_found, from the edge
//	curl -i localhost:8081/v1/sketch                        # X-Edge-Cache: sketch, Age: <held for>
//	curl -i -X POST 'localhost:8081/v1/purge?path=/product/p00042' # 204 No Content, no body
//	curl localhost:8081/metrics                          # speedkit_edge_* counters, sketch generation and age, runtime gauges
//	curl localhost:8081/healthz
//
// The edge polls the upstream's public sketch endpoint every
// -sketch-refresh, so a cached body is revalidated as soon as the Bloom
// sketch flags its path on a newer generation — the same Δ-bounded
// coherence contract the client proxy enforces, applied one tier out. The
// sketch is the edge's only invalidation feed: the server pushes no
// purges, so -sketch-refresh is the bound on how long after a write the
// edge keeps serving the old version. Devices asking the edge for the
// sketch get that copy, with the Age it has reached, while that is below
// the max-age (Δ) the server sent it with; a copy past it is refreshed
// before it is served. The edge's own hits rest on the same copy: once it
// is Δ old, no sketch vouches for a cached body and every hit is
// revalidated (speedkit_edge_degraded_total). -sketch-refresh therefore
// belongs well below Δ: at or above it (or at 0, and the edge warns at
// both) every Δ some device's request waits for the upstream fetch the
// poller did not make, and hits turn into revalidations until the next
// poll.
//
// Its /metrics is the same obs registry and exposition the server
// uses; obs links no identity-bearing package, so neither does this
// binary. It deploys on shared points of presence. It never sees a
// session, a consent record, or a user identifier, and the lint suite
// holds it to that:
//
//speedkit:deploy shared-infra
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/edge"
	"speedkit/internal/httpbody"
	"speedkit/internal/slog"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	upstream := flag.String("upstream", "http://localhost:8080", "speedkit-server base URL")
	cacheDir := flag.String("cache-dir", "", "disk cache directory (empty = memory-only)")
	maxEntries := flag.Int("max-entries", 4096, "in-memory entry bound")
	sketchRefresh := flag.Duration("sketch-refresh", 10*time.Second, "sketch poll interval: how long after a write this edge may serve the old version; 0 disables polling; writes then reach this edge only every Δ")
	snapshotEvery := flag.Int("snapshot-every", 256, "disk-tier journal records between snapshots")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	flag.Parse()

	logger := slog.New(os.Stderr, clock.System, slog.ParseLevel(*logLevel))
	ctx := context.Background()

	proxy, info, err := edge.New(edge.Options{
		Upstream:      *upstream,
		CacheDir:      *cacheDir,
		MaxEntries:    *maxEntries,
		SnapshotEvery: *snapshotEvery,
	})
	if err != nil {
		logger.Error(ctx).Err(err).Msg("edge start failed")
		os.Exit(1)
	}
	if *cacheDir != "" {
		logger.Info(ctx).
			Str("dir", *cacheDir).
			Int("entries", int64(info.Entries)).
			Int("replayed", int64(info.Replayed)).
			Bool("cold_start", info.ColdStart).
			Msg("disk tier recovered")
	}

	// deltaLearned logs, after the first poll that brought a max-age, the
	// Δ the edge will serve the sketch under, and says so once if the poll
	// interval cannot keep a servable copy in hand: Age is rounded up, so
	// a copy is handed on until one second short of Δ.
	learned := false
	deltaLearned := func() {
		delta := proxy.SketchMaxAge()
		if learned || delta <= 0 {
			return
		}
		learned = true
		logger.Info(ctx).Dur("delta", delta).Msg("learned Δ from the sketch response")
		if *sketchRefresh <= 0 || *sketchRefresh >= delta-time.Second {
			logger.Warn(ctx).
				Dur("sketch_refresh", *sketchRefresh).
				Dur("delta", delta).
				Msg("-sketch-refresh is 0 or not below Δ: device sketch requests will wait on upstream fetches, and hits will be revalidated")
		}
	}

	// Prime the sketch before serving, then poll. A failed first fetch is
	// tolerated — until a sketch arrives, on the next tick, the edge
	// revalidates every hit: no sketch vouches for its copies.
	if err := proxy.RefreshSketch(ctx); err != nil {
		logger.Warn(ctx).Err(err).Msg("initial sketch fetch failed")
	}
	deltaLearned()
	stopRefresh := make(chan struct{})
	if *sketchRefresh > 0 {
		go func() {
			for {
				clock.Sleep(clock.System, *sketchRefresh)
				select {
				case <-stopRefresh:
					return
				default:
				}
				if err := proxy.RefreshSketch(ctx); err != nil {
					logger.Warn(ctx).Err(err).Msg("sketch refresh failed")
				}
				deltaLearned()
			}
		}()
	}

	logger.Info(ctx).
		Str("addr", *addr).
		Str("upstream", *upstream).
		Dur("sketch_refresh", *sketchRefresh).
		Msg("speedkit-edge listening")

	srv := httpbody.NewServer(*addr, proxy.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		logger.Error(ctx).Err(err).Msg("serve failed")
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info(ctx).Str("signal", sig.String()).Msg("draining")
		close(stopRefresh)
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_ = srv.Shutdown(sctx)
		cancel()
		if err := proxy.Close(); err != nil {
			logger.Error(ctx).Err(err).Msg("disk tier close failed")
			os.Exit(1)
		}
	}
}
