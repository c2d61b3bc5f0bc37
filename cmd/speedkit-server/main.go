// Command speedkit-server runs the Speed Kit service side over real HTTP:
// the origin, CDN-path page delivery (with ETag-based conditional
// revalidation), the sketch endpoint clients poll every Δ, and the
// first-party blocks API. It is the deployable surface of the
// reproduction — a service worker (or the curl commands below) plays the
// client role.
//
//	speedkit-server -addr :8080 -products 1000
//	speedkit-server -addr :8080 -nodes 3 -data-dir /var/lib/speedkit
//
// With -nodes N above 1 the coherence kernel is a cluster of N nodes in
// this process: each node owns a ring shard of the sketch and of the
// matcher's registrations, and with -data-dir journals into its own
// node-<i> subdirectory. Every Δ/30 the merge layer pulls each node's
// frame; /v1/sketch serves the merged sketch under max-age Δ less the
// cluster's lag (cluster.Cluster.Lag), and page answers state the merged
// epoch.
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
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/cluster"
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
	nodes := flag.Int("nodes", 1, "coherence nodes; above 1 they form a cluster, each journaling under <data-dir>/node-<i>")
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

	if *nodes < 1 {
		logger.Error(ctx).Msg("-nodes must be >= 1")
		os.Exit(2)
	}
	// One store per node: the lone node's over -data-dir itself, a
	// cluster node's over its own subdirectory.
	stores := make([]*durable.Store, *nodes)
	dirs := make([]string, *nodes)
	for i := range stores {
		if *dataDir == "" {
			continue
		}
		dirs[i] = *dataDir
		if *nodes > 1 {
			dirs[i] = filepath.Join(*dataDir, fmt.Sprintf("node-%d", i))
		}
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			fatal(logger.Error(ctx).Str("component", "durable"), err)
		}
		stores[i] = durable.New(durable.Config{Dir: dirs[i], Clock: clock.System})
	}
	recovered := func(dir string, info durable.RecoveryInfo, err error) {
		if err != nil {
			fatal(logger.Error(ctx).Str("component", "durable"), err)
		}
		logger.Info(ctx).
			Str("dir", dir).
			Str("mode", info.Mode.String()).
			Uint("replayed", info.Replayed).
			Bool("new_epoch", info.NewEpoch).
			Msg("durability recovered")
	}

	cfg := core.Config{
		Clock: clock.System, // real time for a real server
		Delta: *delta,
		// Identity seed 2: devices root their traces from seed 1, so
		// locally rooted server traces never collide with theirs.
		Tracer:  obs.NewTracerSeeded(clock.System, *traceSample, *traceRing, 2),
		SLO:     obs.NewDeltaSLO(obs.SLOConfig{Clock: clock.System}),
		Durable: stores[0],
	}
	var c *cluster.Cluster
	if *nodes > 1 {
		members := make([]*cluster.Node, *nodes)
		for i := range members {
			members[i] = cluster.NewNode(cluster.NodeConfig{
				Member:  fmt.Sprintf("node-%d", i),
				Clock:   clock.System,
				Durable: stores[i],
			})
			if stores[i] != nil {
				info, err := members[i].Recovery()
				recovered(dirs[i], info, err)
			}
		}
		var err error
		if c, err = cluster.New(cluster.Config{Seed: 1, Delta: *delta}, members); err != nil {
			fatal(logger.Error(ctx), err)
		}
		cfg.Kernel, cfg.Durable = c, nil
		// Fold every node's first frame before serving, so the merged
		// sketch leaves the saturated filter at once.
		if err := c.SyncDeltas(); err != nil {
			logger.Warn(ctx).Err(err).Msg("first delta exchange incomplete")
		}
	}

	svc, err := core.NewStorefront(core.StorefrontConfig{Config: cfg, Products: *products})
	if err != nil {
		fatal(logger.Error(ctx), err)
	}
	defer svc.Close()
	if c == nil && stores[0] != nil {
		info, err := svc.Recovery()
		recovered(dirs[0], info, err)
	}
	stopSync := make(chan struct{})
	if c != nil {
		go func() {
			for {
				clock.Sleep(clock.System, c.SyncPeriod())
				select {
				case <-stopSync:
					return
				default:
				}
				if err := c.SyncDeltas(); err != nil {
					logger.Warn(ctx).Err(err).Msg("delta exchange incomplete")
				}
			}
		}()
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
		Int("nodes", int64(*nodes)).
		Dur("delta", *delta).
		Msg("speedkit-server listening")

	srv := httpbody.NewServer(*addr, api.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// SIGTERM/SIGINT: stop serving, then seal the durability log with the
	// clean-shutdown marker so the next start continues the sketch epoch
	// instead of drawing a new one.
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
		close(stopSync)
		if *dataDir != "" {
			for _, store := range stores {
				if err := store.Close(); err != nil {
					fatal(logger.Error(ctx).Str("component", "durable"), err)
				}
			}
			logger.Info(ctx).Msg("durability log sealed clean")
		}
	}
}
